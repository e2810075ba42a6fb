"""Sequence-length distributions for the paper's datasets.

Two families of distributions are provided:

* :data:`TABLE2_DISTRIBUTIONS` — the three evaluation datasets of Table 2
  (ArXiv, GitHub, ProLong-64k) with the exact per-bin proportions printed in
  the paper.
* :data:`FIG1_DISTRIBUTIONS` — the seven-dataset mixture of Fig. 1 (arxiv,
  github, fineweb, fineweb_edu, openwebmath, stackexchange, prolong64).  The
  paper plots these only graphically; the numbers here are read off the figure
  and are used for the Fig. 1 / Fig. 3 reproductions where only the qualitative
  shape (e.g. "StackExchange is dominated by <1k sequences") matters.

A :class:`LengthDistribution` is a histogram over length bins; sampling picks a
bin by its probability and then a length uniformly inside the bin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class LengthBin:
    """A half-open sequence-length bin ``[lo, hi)`` with an occurrence probability."""

    lo: int
    hi: int
    probability: float

    def __post_init__(self) -> None:
        check_positive("lo", self.lo)
        if self.hi <= self.lo:
            raise ValueError(f"bin upper bound {self.hi} must exceed lower bound {self.lo}")
        if self.probability < 0:
            raise ValueError("bin probability must be >= 0")

    @property
    def label(self) -> str:
        """Human-readable label such as ``"1-2k"`` or ``"<1k"``."""
        if self.lo < 1024:
            return f"<{self.hi // 1024}k"
        return f"{self.lo // 1024}-{self.hi // 1024}k"

    @property
    def midpoint(self) -> int:
        return (self.lo + self.hi) // 2

    def contains(self, length: int) -> bool:
        return self.lo <= length < self.hi


@dataclass(frozen=True)
class LengthDistribution:
    """A named histogram over sequence-length bins."""

    name: str
    bins: tuple[LengthBin, ...]

    def __post_init__(self) -> None:
        if not self.bins:
            raise ValueError("a distribution needs at least one bin")
        total = sum(b.probability for b in self.bins)
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(
                f"bin probabilities of {self.name!r} must sum to 1, got {total:.6f}"
            )

    # -- statistics ---------------------------------------------------------

    @property
    def mean_length(self) -> float:
        """Expected sequence length under the bin-midpoint approximation."""
        return sum(b.probability * b.midpoint for b in self.bins)

    @property
    def max_length(self) -> int:
        """Upper bound of the longest non-empty bin."""
        return max(b.hi for b in self.bins if b.probability > 0)

    def long_tail_fraction(self, threshold: int) -> float:
        """Fraction of sequences at least ``threshold`` tokens long."""
        frac = 0.0
        for b in self.bins:
            if b.lo >= threshold:
                frac += b.probability
            elif b.hi > threshold:
                # partial bin: assume uniform within the bin
                frac += b.probability * (b.hi - threshold) / (b.hi - b.lo)
        return frac

    # -- sampling -----------------------------------------------------------

    def sample_lengths(self, count: int, rng: np.random.Generator) -> list[int]:
        """Draw ``count`` sequence lengths from the histogram."""
        if count <= 0:
            return []
        probs = np.array([b.probability for b in self.bins], dtype=float)
        probs = probs / probs.sum()
        bin_idx = rng.choice(len(self.bins), size=count, p=probs)
        lengths = []
        for idx in bin_idx:
            b = self.bins[int(idx)]
            lengths.append(int(rng.integers(b.lo, b.hi)))
        return lengths

    def histogram(self) -> dict[str, float]:
        """Return ``{bin label: probability}`` preserving bin order."""
        return {b.label: b.probability for b in self.bins}


def _dist(name: str, edges: list[int], probs: list[float]) -> LengthDistribution:
    """Build a distribution from bin edges (in tokens) and bin weights.

    Weights are normalised to probabilities: the paper's Table 2 rows do not
    all sum to exactly 1 (GitHub sums to 0.945), so the published proportions
    are treated as relative weights.
    """
    if len(probs) != len(edges) - 1:
        raise ValueError("need exactly one probability per bin")
    total = sum(probs)
    if total <= 0:
        raise ValueError("bin weights must have a positive sum")
    bins = tuple(
        LengthBin(lo=edges[i], hi=edges[i + 1], probability=probs[i] / total)
        for i in range(len(probs))
    )
    return LengthDistribution(name=name, bins=bins)


_K = 1024

# Bin edges used by Table 2: <1k, 1-2k, 2-4k, 4-8k, 8-16k, 16-32k, 32-64k,
# 64-128k, 128-256k.  The lower edge of the first bin is 64 tokens: the paper
# does not train on shorter fragments.
_TABLE2_EDGES = [64, _K, 2 * _K, 4 * _K, 8 * _K, 16 * _K, 32 * _K, 64 * _K, 128 * _K, 256 * _K]

TABLE2_DISTRIBUTIONS: dict[str, LengthDistribution] = {
    "arxiv": _dist(
        "arxiv",
        _TABLE2_EDGES,
        [0.032, 0.03, 0.08, 0.219, 0.338, 0.224, 0.077, 0.0, 0.0],
    ),
    "github": _dist(
        "github",
        _TABLE2_EDGES,
        [0.0, 0.34, 0.095, 0.104, 0.107, 0.102, 0.088, 0.064, 0.045],
    ),
    # Table 2 lists ProLong64k proportions that sum to 1 only approximately
    # (0.231 + 0.042 + 0.021 + 0.012 + 0.013 + 0.008 + 0.673 = 1.0); kept verbatim.
    "prolong64k": _dist(
        "prolong64k",
        _TABLE2_EDGES,
        [0.231, 0.042, 0.021, 0.012, 0.013, 0.008, 0.673, 0.0, 0.0],
    ),
}

# Fig. 1 mixture datasets (7 bins: <1k .. 32-64k).  Values are approximate
# shares read from the figure; they only feed the Fig. 1 / Fig. 3 shape plots.
_FIG1_EDGES = [64, _K, 2 * _K, 4 * _K, 8 * _K, 16 * _K, 32 * _K, 64 * _K]

FIG1_DISTRIBUTIONS: dict[str, LengthDistribution] = {
    "arxiv": _dist(
        "arxiv", _FIG1_EDGES, [0.032, 0.03, 0.08, 0.219, 0.338, 0.224, 0.077]
    ),
    "github": _dist(
        "github", _FIG1_EDGES, [0.0, 0.38, 0.11, 0.12, 0.12, 0.12, 0.15]
    ),
    "fineweb": _dist(
        "fineweb", _FIG1_EDGES, [0.62, 0.20, 0.10, 0.05, 0.02, 0.008, 0.002]
    ),
    "fineweb_edu": _dist(
        "fineweb_edu", _FIG1_EDGES, [0.58, 0.22, 0.11, 0.06, 0.02, 0.008, 0.002]
    ),
    "openwebmath": _dist(
        "openwebmath", _FIG1_EDGES, [0.45, 0.25, 0.16, 0.09, 0.035, 0.012, 0.003]
    ),
    "stackexchange": _dist(
        "stackexchange", _FIG1_EDGES, [0.78, 0.14, 0.055, 0.018, 0.005, 0.0015, 0.0005]
    ),
    "prolong64": _dist(
        "prolong64", _FIG1_EDGES, [0.231, 0.042, 0.021, 0.012, 0.013, 0.008, 0.673]
    ),
}


def available_distributions() -> list[str]:
    """Names of all registered distributions (Table 2 names take precedence)."""
    names = set(TABLE2_DISTRIBUTIONS) | set(FIG1_DISTRIBUTIONS)
    return sorted(names)


def get_distribution(name: str) -> LengthDistribution:
    """Look up a distribution by name.

    Table 2 distributions (used by the end-to-end evaluation) shadow the Fig. 1
    ones of the same name.
    """
    key = name.lower()
    if key in TABLE2_DISTRIBUTIONS:
        return TABLE2_DISTRIBUTIONS[key]
    if key in FIG1_DISTRIBUTIONS:
        return FIG1_DISTRIBUTIONS[key]
    raise KeyError(
        f"unknown distribution {name!r}; available: {available_distributions()}"
    )
