"""Similar/dissimilar pair constraints derived from class labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstraintSet:
    """Index pairs (i, j), i < j: same-class pairs and different-class pairs."""

    similar: np.ndarray
    dissimilar: np.ndarray

    def __post_init__(self):
        for name in ("similar", "dissimilar"):
            raw = np.asarray(getattr(self, name))
            if raw.size and raw.dtype.kind not in "iu":
                raise ValueError(f"{name} pairs must be integer indices, got dtype {raw.dtype}")
            pairs = raw.astype(int).reshape(-1, 2)
            if pairs.shape[0] < 1:
                raise ValueError(f"{name} pair set is empty")
            if np.any(pairs < 0):
                raise ValueError(f"{name} pairs must have non-negative indices")
            if np.any(pairs[:, 0] >= pairs[:, 1]):
                raise ValueError(f"{name} pairs must satisfy i < j")
            pairs.setflags(write=False)
            object.__setattr__(self, name, pairs)

    @property
    def n_similar(self) -> int:
        return self.similar.shape[0]

    @property
    def n_dissimilar(self) -> int:
        return self.dissimilar.shape[0]


def build_constraints(labels, max_pairs_per_set: int | None = None, seed: int = 0) -> ConstraintSet:
    """Enumerate all same-class and different-class index pairs.

    By default both sets are exhaustive.  When ``max_pairs_per_set`` is given
    and a set exceeds it, the set is subsampled uniformly without replacement,
    deterministically for a fixed seed.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples to build constraints")
    ii, jj = np.triu_indices(n, k=1)
    same = labels[ii] == labels[jj]
    similar = np.column_stack([ii[same], jj[same]])
    dissimilar = np.column_stack([ii[~same], jj[~same]])
    if similar.shape[0] == 0:
        raise ValueError("no similar pairs (no class has 2 members)")
    if dissimilar.shape[0] == 0:
        raise ValueError("no dissimilar pairs (only one class present)")
    if max_pairs_per_set is not None:
        if max_pairs_per_set < 1:
            raise ValueError("max_pairs_per_set must be >= 1")
        rng = np.random.default_rng(seed)
        similar = _cap(similar, max_pairs_per_set, rng)
        dissimilar = _cap(dissimilar, max_pairs_per_set, rng)
    return ConstraintSet(similar, dissimilar)


def _cap(pairs: np.ndarray, cap: int, rng: np.random.Generator) -> np.ndarray:
    if pairs.shape[0] <= cap:
        return pairs
    keep = np.sort(rng.choice(pairs.shape[0], size=cap, replace=False))
    return pairs[keep]
