"""Similar/dissimilar constraints derived from class labels."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConstraintSet:
    """Every same-class pair is similar and every different-class pair dissimilar.

    The set holds the training labels, not the pairs: ``labels`` is the
    read-only vector of class indices 0..c-1 that ``build_constraints`` makes,
    and the pair counts follow from the class sizes.
    """

    labels: np.ndarray

    @property
    def n_similar(self) -> int:
        sizes = np.bincount(self.labels)
        return int(np.sum(sizes * (sizes - 1)) // 2)

    @property
    def n_dissimilar(self) -> int:
        n = self.labels.shape[0]
        return n * (n - 1) // 2 - self.n_similar


def build_constraints(labels, max_pairs_per_set=None, seed=0) -> ConstraintSet:
    """The exhaustive constraint set of ``labels``, a vector of any label type renumbered 0..c-1 in order.

    The second and third parameters are kept only because
    ``perfbench/harness.py`` passes a cap of ``None`` and a seed
    positionally; remove them with ROADMAP item 1.  Any cap other than
    ``None`` is a ``ValueError``; the seed is unused.
    """
    if max_pairs_per_set is not None:
        raise ValueError(f"max_pairs_per_set is no longer supported, got {max_pairs_per_set!r}")
    raw = np.asarray(labels)
    if raw.ndim != 1:
        raise ValueError(f"labels must be a vector, got shape {raw.shape}")
    if raw.shape[0] < 2:
        raise ValueError("need at least 2 samples to build constraints")
    constraints = ConstraintSet(np.unique(raw, return_inverse=True)[1])
    constraints.labels.setflags(write=False)
    if constraints.n_similar == 0:
        raise ValueError("no similar pairs (no class has 2 members)")
    if constraints.n_dissimilar == 0:
        raise ValueError("no dissimilar pairs (only one class present)")
    return constraints
