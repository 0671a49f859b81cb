"""The paper's claims, as paired comparisons on a small wide workload.

Every setting here (seeds, sizes, margin) was fixed before it was measured.
The seeds are disjoint from the benchmark's.
"""

import numpy as np

from mvmetric import Hyperparams, generate_synthetic, run_benchmark

SEEDS = (51, 52, 53)


def _paired_accuracies(coupling_eta):
    """Per-trial accuracies over ``SEEDS``, two trials each; the splits depend on the seed alone."""
    accuracies = []
    for seed in SEEDS:
        # views 1 and 2 are wider than the 30 training samples, view 3 is pure noise
        ds = generate_synthetic(3, 20, [150, 100, 50], noise_views={3}, seed=seed)
        report = run_benchmark(ds, 30, 2, Hyperparams(embed_dim=5, coupling_eta=coupling_eta), seed=seed, k=1)
        accuracies.extend(report.per_trial_accuracy)
    return np.array(accuracies)


def test_maximising_the_cross_correlations_helps():
    # the abstract's first claim: the coupled fit at eta = 1 beats the uncoupled fit
    coupled, uncoupled = _paired_accuracies(1.0), _paired_accuracies(np.inf)
    assert coupled.mean() - uncoupled.mean() >= 0.05
    assert np.count_nonzero(coupled < uncoupled) <= 1
