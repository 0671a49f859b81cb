import re
from pathlib import Path

import mvmetric

REMOVED = (
    "euclidean_multiview_distance",
    "top_eigenpairs",
    "stacked_objective",
    "update_projections",
    "mahalanobis_distance",
    "distance_weights",
)


def test_every_exported_name_resolves():
    assert len(set(mvmetric.__all__)) == len(mvmetric.__all__)
    for name in mvmetric.__all__:
        assert getattr(mvmetric, name) is not None


def test_test_only_helpers_are_not_exported():
    for name in REMOVED:
        assert name not in mvmetric.__all__
        assert not hasattr(mvmetric, name)


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    weights, accuracies = capsys.readouterr().out.splitlines()
    assert weights.startswith("[") and len(accuracies.split()) == 2
