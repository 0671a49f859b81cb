import mvmetric

REMOVED = (
    "euclidean_multiview_distance",
    "top_eigenpairs",
    "stacked_objective",
    "update_projections",
    "mahalanobis_distance",
)


def test_every_exported_name_resolves():
    assert len(set(mvmetric.__all__)) == len(mvmetric.__all__)
    for name in mvmetric.__all__:
        assert getattr(mvmetric, name) is not None


def test_test_only_helpers_are_not_exported():
    for name in REMOVED:
        assert name not in mvmetric.__all__
        assert not hasattr(mvmetric, name)
