"""Loading, validation, splitting, and synthesis of multiview datasets.

A multiview dataset holds one feature matrix per view over a shared set of
samples.  On disk each view is a headerless CSV with one sample per row;
in memory a view is stored features-by-samples (``D_v x n``) so that
column ``i`` of every view describes sample ``i``.
"""

from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._format import FORMAT_VERSION, check_format_version, read_json_object
from .model import _integer, _real, _seed

SPLIT_RETRIES = 100  # draws ``split`` makes before giving up on a training set that can train
# a decimal integer, spaces around it allowed; int() would also read "1_0" as 10 and non-ASCII digits
_INTEGER_TEXT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _integer_labels(values, what: str) -> np.ndarray:
    """Class labels as an int array.

    Signed integers pass, unsigned ones must be below 2**63 and floats
    integral (``1.0`` is 1, ``0.5`` an error); bool, complex, string and
    object labels are errors.
    """
    values = np.asarray(values)
    kind = values.dtype.kind
    if kind not in "iuf":
        raise ValueError(f"{what} must be integers, got non-integral dtype {values.dtype}")
    if kind == "u":
        valid = values <= np.uint64(2**63 - 1)
    else:
        valid = kind == "i" or ((np.abs(values) < 2.0**63) & (values == np.trunc(values)))
    if not np.all(valid):
        raise ValueError(f"{what} must be integers, got non-integral or out-of-range values")
    return values.astype(int)


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ViewMatrix:
    """A single view: ``data`` has shape (n_features, n_samples)."""

    view_id: int
    data: np.ndarray

    def __post_init__(self):
        data = _frozen_array(self.data)
        if data.ndim != 2:
            raise ValueError(f"view {self.view_id}: expected 2-D data, got shape {data.shape}")
        if data.shape[0] < 1:
            raise ValueError(f"view {self.view_id}: needs at least 1 feature")
        if data.shape[1] < 2:
            raise ValueError(f"view {self.view_id}: needs at least 2 samples")
        if not np.isfinite(data).all():
            raise ValueError(f"view {self.view_id}: non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def n_features(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiviewDataset:
    """Aligned views plus one integer class label per sample.

    Views must agree on the sample count; at least two distinct labels are
    required, and float labels must be integral (``1.0`` loads as 1, ``0.5``
    is an error).
    """

    views: tuple
    labels: np.ndarray

    def __post_init__(self):
        views = tuple(self.views)
        if len(views) < 1:
            raise ValueError("dataset needs at least one view")
        ids = [v.view_id for v in views]
        if ids != list(range(1, len(views) + 1)):
            raise ValueError(f"view ids must be 1..m in order, got {ids}")
        n = views[0].n_samples
        for v in views:
            if v.n_samples != n:
                raise ValueError(f"sample count mismatch: view 1 has {n} samples, view {v.view_id} has {v.n_samples}")
        labels = _frozen_array(_integer_labels(self.labels, "labels"), dtype=int)
        if labels.ndim != 1 or labels.shape[0] != n:
            raise ValueError(f"label count {labels.shape} != sample count {n}")
        if np.unique(labels).size < 2:
            raise ValueError("fewer than 2 classes in labels")
        object.__setattr__(self, "views", views)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return len(self.views)

    @property
    def n(self) -> int:
        return self.views[0].n_samples

    @property
    def view_dims(self) -> list:
        return [v.n_features for v in self.views]

    def columns(self, indices) -> list:
        """Per-view submatrices restricted to the given sample indices."""
        idx = np.asarray(indices, dtype=int)
        return [v.data[:, idx] for v in self.views]

    def sample(self, index: int) -> list:
        """Per-view feature vectors of one sample."""
        return [v.data[:, index] for v in self.views]


def _sample_indices(name: str, values) -> np.ndarray:
    """Nonempty, distinct, non-negative sample indices as a read-only 1-D int array.

    An integer dtype is required: a float or bool array would be truncated or
    read as a mask, so it is a ``TypeError``.
    """
    values = np.asarray(values)
    if values.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if values.dtype.kind not in "iu":
        raise TypeError(f"{name} must be integers, got dtype {values.dtype}")
    if values.ndim != 1:
        raise ValueError(f"{name}: expected a 1-D array, got shape {values.shape}")
    indices = _frozen_array(values, dtype=int)
    if indices.min() < 0:
        raise ValueError(f"{name} must be >= 0, got {indices.min()}")
    if np.unique(indices).size != indices.size:
        raise ValueError(f"{name} must be distinct")
    return indices


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/test sample indices: nonempty 1-D integer arrays of distinct indices >= 0."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        train = _sample_indices("train_indices", self.train_indices)
        test = _sample_indices("test_indices", self.test_indices)
        if np.intersect1d(train, test).size:
            raise ValueError("train and test indices overlap")
        object.__setattr__(self, "train_indices", train)
        object.__setattr__(self, "test_indices", test)


def _parse_view_file(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"view file not found: {path}")
    with warnings.catch_warnings():
        # numpy only warns on a file without data rows; here that is one error naming the file
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValueError(f"view file {path}: {exc}") from exc
    if rows.size == 0:
        raise ValueError(f"view file {path}: no data rows")
    return rows.T  # samples-as-rows on disk, features-by-samples in memory


def _parse_labels_file(path: Path) -> np.ndarray:
    if not path.is_file():
        raise FileNotFoundError(f"labels file not found: {path}")
    labels = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        text = line.strip()
        if not text:
            continue
        if not _INTEGER_TEXT.fullmatch(text):
            raise ValueError(f"labels file {path}, line {lineno}: not an integer: {text!r}")
        labels.append(int(text))
    return np.asarray(labels, dtype=int)


def load_dataset(view_paths, labels_path) -> MultiviewDataset:
    """Load a dataset from per-view CSV files and a labels file.

    Each view file stores one sample per row; labels hold one integer per
    line.  All views must agree on the sample count.  The features are
    loaded as they are; ``Hyperparams.standardize`` scales them in training.
    """
    views = [ViewMatrix(i + 1, _parse_view_file(Path(p))) for i, p in enumerate(view_paths)]
    return MultiviewDataset(tuple(views), _parse_labels_file(Path(labels_path)))


def write_dataset(dataset: MultiviewDataset, out_dir, config: dict | None = None) -> Path:
    """Write per-view CSVs, a labels file, and a JSON manifest; returns the manifest path.

    Floats are written with 17 significant digits so a reload reproduces the
    arrays bit-exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    view_files = []
    for v in dataset.views:
        filename = f"view{v.view_id}.csv"
        # the bytes of np.savetxt(fmt="%.17g", delimiter=","), one row in memory at a time
        fmt = ",".join(["%.17g"] * v.n_features) + "\n"
        with open(out / filename, "w") as f:
            f.writelines(fmt % tuple(sample.tolist()) for sample in v.data.T)
        view_files.append(filename)
    (out / "labels.txt").write_text("\n".join(str(int(c)) for c in dataset.labels) + "\n")
    manifest = {
        "format_version": FORMAT_VERSION,
        "views": view_files,
        "labels": "labels.txt",
    }
    if config is not None:
        manifest["config"] = config
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def load_manifest(manifest_path) -> MultiviewDataset:
    """Load a dataset through its JSON manifest (paths resolved relative to it).

    ``views`` must list at least one file name and ``labels`` name one file.
    """
    path = Path(manifest_path)
    doc = read_json_object(path, "manifest")
    check_format_version(doc, f"manifest {path}", FORMAT_VERSION)
    for key in ("views", "labels"):
        if key not in doc:
            raise ValueError(f"manifest {path}: missing key {key!r}")
    views = doc["views"]
    if not isinstance(views, list) or not views or not all(isinstance(p, str) for p in views):
        raise ValueError(f"manifest {path}: 'views' must be a non-empty list of file names, got {views!r:.60}")
    if not isinstance(doc["labels"], str):
        raise ValueError(f"manifest {path}: 'labels' must be a file name, got {doc['labels']!r:.60}")
    base = path.parent
    return load_dataset([base / p for p in views], base / doc["labels"])


def split(dataset: MultiviewDataset, train_count: int, seed: int) -> SplitSpec:
    """Uniform random train/test split, deterministic given the seed.

    Redraws (up to ``SPLIT_RETRIES`` times) until the training labels
    cover two classes and some class twice, as ``build_constraints`` needs,
    then fails; so ``train_count`` must be in [3, n - 1].  ``train_count``
    and ``seed`` (>= 0) must be integers, not bools.
    """
    train_count = _integer("train_count", train_count)
    seed = _seed(seed)
    n = dataset.n
    if not 3 <= train_count <= n - 1:
        raise ValueError(f"train_count must be in [3, {n - 1}], got {train_count}")
    rng = np.random.default_rng(seed)
    for _ in range(SPLIT_RETRIES):
        train = np.sort(rng.choice(n, size=train_count, replace=False))
        sizes = np.unique(dataset.labels[train], return_counts=True)[1]
        if sizes.size >= 2 and sizes.max() >= 2:
            return SplitSpec(train, np.setdiff1d(np.arange(n), train))
    raise ValueError(f"could not obtain >= 2 classes, one of them twice, in a train set after {SPLIT_RETRIES} retries")


def generate_synthetic(
    classes: int,
    per_class: int,
    view_dims,
    noise_views=frozenset(),
    seed: int = 0,
    separation: float = 4.0,
) -> MultiviewDataset:
    """Generate a labeled multiview dataset with Gaussian class clusters.

    Informative views draw each class from a unit-variance Gaussian whose
    means sit on random orthogonal directions, pairwise at least
    ``separation`` apart.  Views listed in ``noise_views`` (1-based ids)
    contain pure standard-Gaussian noise independent of the class labels.
    """
    seed = _seed(seed)
    classes = _integer("classes", classes)
    per_class = _integer("per_class", per_class)
    view_dims = [_integer("view_dims entry", d) for d in view_dims]
    separation = _real("separation", separation)
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if per_class < 2:
        raise ValueError("per_class must be >= 2")
    if any(d < 2 for d in view_dims):
        raise ValueError("all view dims must be >= 2")
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    noise_views = {_integer("noise_views entry", v) for v in noise_views}
    if not noise_views <= set(range(1, len(view_dims) + 1)):
        raise ValueError(f"noise_views out of range 1..{len(view_dims)}: {sorted(noise_views)}")

    n = classes * per_class
    labels = np.repeat(np.arange(classes), per_class)
    rng = np.random.default_rng(seed)
    views = []
    for i, dim in enumerate(view_dims):
        view_id = i + 1
        if view_id in noise_views:
            data = rng.standard_normal((dim, n))
        else:
            # the full square is drawn to keep the random stream, but only the
            # columns used are factorized: their Q is the full factor's leading
            # columns, at O(dim * classes^2) instead of O(dim^3)
            draw = rng.standard_normal((dim, dim))
            directions, _ = np.linalg.qr(draw[:, : min(classes, dim)])
            means = np.empty((dim, classes))
            for c in range(classes):
                # same direction reused at growing radius once classes exceed dim;
                # any two means stay >= separation apart
                scale = separation * (1 + c // dim)
                means[:, c] = scale * directions[:, c % dim]
            data = means[:, labels] + rng.standard_normal((dim, n))
        views.append(ViewMatrix(view_id, data))
    return MultiviewDataset(tuple(views), labels)
