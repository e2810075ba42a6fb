"""Fig. 1 — sequence length distributions of the training-data mixture.

The paper motivates the problem with the length histograms of seven public
datasets (ArXiv, GitHub, FineWeb, FineWeb-Edu, OpenWebMath, StackExchange,
ProLong-64k).  This experiment regenerates the per-bin shares both from the
registered distributions and from actually sampling batches, confirming the
sampler reproduces the target histograms.
"""

from __future__ import annotations

import numpy as np

from repro.data.distributions import FIG1_DISTRIBUTIONS
from repro.exec import SweepSpec
from repro.experiments.common import ExperimentResult, print_result
from repro.registry import EXPERIMENTS


@EXPERIMENTS.register("fig1", description="Fig. 1 — dataset length histograms")
def run(samples_per_dataset: int = 20000, seed: int = 0) -> ExperimentResult:
    """Regenerate the Fig. 1 histograms.

    Parameters
    ----------
    samples_per_dataset:
        Number of sequence lengths drawn per dataset for the empirical check.
    """
    grid = SweepSpec(axes={"dataset": tuple(FIG1_DISTRIBUTIONS)})
    bins = next(iter(FIG1_DISTRIBUTIONS.values())).bins
    headers = ["dataset"] + [b.label for b in bins] + ["empirical_max_abs_err"]
    result = ExperimentResult(
        name="fig1",
        description="Sequence length distribution across datasets",
        headers=headers,
    )
    rng = np.random.default_rng(seed)
    for point in grid:
        name = point["dataset"]
        dist = FIG1_DISTRIBUTIONS[name]
        lengths = dist.sample_lengths(samples_per_dataset, rng)
        empirical = []
        for b in dist.bins:
            count = sum(1 for n in lengths if b.contains(n))
            empirical.append(count / len(lengths))
        target = [b.probability for b in dist.bins]
        max_err = max(abs(e - t) for e, t in zip(empirical, target))
        result.add_row(name, *[round(p, 4) for p in target], round(max_err, 4))
        result.extra[name] = {"target": target, "empirical": empirical}
    return result


def main() -> None:
    print_result(run())


if __name__ == "__main__":
    main()
