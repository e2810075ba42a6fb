"""Table 2 — sequence length distribution of the three evaluation datasets.

Prints the per-bin proportions of ArXiv, GitHub and ProLong-64k exactly as the
paper tabulates them (normalised, since the published GitHub row sums to
0.945), alongside the mean length and long-tail mass that drive the scheduling
behaviour differences between the datasets.
"""

from __future__ import annotations

from repro.data.distributions import TABLE2_DISTRIBUTIONS
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS


@EXPERIMENTS.register(
    "table2", description="Table 2 — evaluation dataset length distributions"
)
def run() -> ExperimentResult:
    """Regenerate Table 2 plus derived statistics."""
    grid = SweepSpec(axes={"dataset": tuple(TABLE2_DISTRIBUTIONS)})
    bins = next(iter(TABLE2_DISTRIBUTIONS.values())).bins
    headers = (
        ["dataset"]
        + [b.label for b in bins]
        + ["mean_len_tokens", "frac_ge_32k"]
    )
    result = ExperimentResult(
        name="table2",
        description="Sequence length distribution of the evaluation datasets",
        headers=headers,
    )
    for point in grid:
        name = point["dataset"]
        dist = TABLE2_DISTRIBUTIONS[name]
        probs = [round(b.probability, 3) for b in dist.bins]
        result.add_row(
            name,
            *probs,
            int(dist.mean_length),
            round(dist.long_tail_fraction(32 * 1024), 3),
        )
        result.extra[name] = dist.histogram()
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
