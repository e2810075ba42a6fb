"""Experiment modules: one per table and figure of the paper's evaluation.

Every module exposes a ``run(...)`` function returning a structured result and
a ``main()`` that prints the same rows/series the paper reports.  The
``benchmarks/`` directory wraps these functions with pytest-benchmark so the
whole evaluation can be regenerated with ``pytest benchmarks/ --benchmark-only``.

==========================  =====================================================
Module                      Paper artifact
==========================  =====================================================
``fig01_length_distributions``  Fig. 1 — dataset length histograms
``fig03_attention_cost_breakdown``  Fig. 3 — packing vs even-split CP cost shares
``fig05_zone_boundaries``   Fig. 5 — compute/communication curves and zones
``fig08_end_to_end``        Fig. 8 — end-to-end throughput grid
``fig09_scalability``       Fig. 9 — 3B scalability, 16-128 GPUs
``fig10_cluster_comparison``  Fig. 10 — Cluster A vs Cluster B
``fig11_ablation``          Fig. 11 — component ablation
``fig12_timeline``          Fig. 12 — per-round timeline analysis
``fig13_resilience``        Fig. 13 (extension) — goodput under injected faults
``fig14_serving``           Fig. 14 (extension) — closed-loop serving knee
``table2_dataset_distributions``  Table 2 — evaluation dataset histograms
``table3_cost_distribution``  Table 3 — per-component cost ranges
==========================  =====================================================
"""

__all__ = [
    "fig01_length_distributions",
    "fig03_attention_cost_breakdown",
    "fig05_zone_boundaries",
    "fig08_end_to_end",
    "fig09_scalability",
    "fig10_cluster_comparison",
    "fig11_ablation",
    "fig12_timeline",
    "fig13_resilience",
    "fig14_serving",
    "table2_dataset_distributions",
    "table3_cost_distribution",
]
