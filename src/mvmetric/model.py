"""Model container: learned per-view projections, view weights, and hyperparameters."""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._format import check_format_version, read_json_object

# "2": projections and scales are base64 float64 strings (number lists were "1")
MODEL_FORMAT_VERSION = "2"
ORTHONORMALITY_TOL = 1e-8
SIMPLEX_TOL = 1e-12
STOP_REASONS = (None, "tol", "max_iters")
# hyperparameters saved in model files and eval report configs, in this order
SAVED_HYPERPARAMS = ("embed_dim", "weight_exponent", "coupling_eta", "max_iters", "tol")


def _integer(name: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _seed(value) -> int:
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class Hyperparams:
    """Training knobs.

    embed_dim
        Shared number of projection columns per view; ``None`` resolves to
        ``min(10, smallest view dimension)`` at training time.
    weight_exponent
        Finite exponent r > 1 on the view weights; larger values push the
        learned weights toward uniform.
    coupling_eta
        Divisor of the cross-view coupling term: a fit divides each cross
        block C_vw by it once, where ``scatter.coupling_matrix`` builds the
        block matrix, and the weights scale it by (a_v^r + a_w^r) / 2.
        Larger values weaken the coupling, ``inf`` disables the coupling;
        such a fit solves each view exactly by its top eigenvectors.
    max_iters
        Most alternating iterations a fit runs; one that reaches it without
        meeting ``tol`` stops with ``stop_reason`` ``"max_iters"``.
    tol
        Finite stopping tolerance > 0 on an iteration's residual, the
        relative change of the per-view metrics ``W_v W_v^T``.  A fit stops
        with ``"tol"`` when the residual falls below it, or when the change
        still to come at the rate the residuals shrink is at most
        ``solver.STOP_MARGIN * tol`` (0.1 * tol; ``solver._alternate``).
    standardize
        Centre and scale each view's features by the mean and standard
        deviation of its training columns before fitting; the model keeps
        the scales and applies them to every sample it projects.

    Integer fields are stored as ``int`` and the others as ``float``, so
    every instance saves to a model file that loads; a bool is no number.
    """

    embed_dim: int | None = None
    weight_exponent: float = 2.0
    coupling_eta: float = 1.0
    max_iters: int = 50
    tol: float = 1e-6
    standardize: bool = False

    def __post_init__(self):
        if self.embed_dim is not None:
            object.__setattr__(self, "embed_dim", _integer("embed_dim", self.embed_dim))
        object.__setattr__(self, "max_iters", _integer("max_iters", self.max_iters))
        for name in ("weight_exponent", "coupling_eta", "tol"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not isinstance(self.standardize, bool):
            raise TypeError(f"standardize must be true or false, got {self.standardize!r}")
        if self.embed_dim is not None and self.embed_dim < 1:
            raise ValueError("d must be >= 1")
        if not 1.0 < self.weight_exponent < math.inf:
            raise ValueError("r must be > 1 and finite")
        if not self.coupling_eta > 0.0:
            raise ValueError("eta must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be > 0 and finite")

    def resolved(self, view_dims) -> "Hyperparams":
        """Copy with embed_dim pinned to a concrete, validated value."""
        min_dim = min(view_dims)
        d = self.embed_dim if self.embed_dim is not None else min(10, min_dim)
        if d > min_dim:
            raise ValueError(f"d={d} exceeds the smallest view dimension {min_dim}")
        return replace(self, embed_dim=d)


def _encode(array: np.ndarray) -> str:
    """The row-major little-endian float64 bytes of ``array`` as one padded base64 string."""
    return base64.b64encode(np.asarray(array, dtype="<f8").tobytes()).decode("ascii")


def _decode(value, what: str, row_bytes: int) -> np.ndarray:
    """Inverse of ``_encode``, flat: a string of a positive whole number of ``row_bytes`` rows.

    A non-string raises ``TypeError``; a character outside the standard
    alphabet (a newline included), missing padding or a partial row raises
    ``ValueError`` naming ``what``.
    """
    if not isinstance(value, str):
        raise TypeError(f"{what} must be a base64 string, got {type(value).__name__}")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"{what}: invalid base64 ({exc})") from None
    if not raw or len(raw) % row_bytes:
        raise ValueError(f"{what}: {len(raw)} bytes are not a positive whole number of {row_bytes}-byte rows")
    return np.frombuffer(raw, "<f8")


@dataclass(frozen=True)
class MultiviewMetricModel:
    """Learned projections W_v (columns orthonormal), simplex view weights and feature scales.

    ``scales`` holds one positive per-feature scale vector per view exactly
    when ``hyper.standardize`` is set, and is ``None`` otherwise; ``project``
    divides a view's features by it before applying ``W_v.T``.  The induced
    per-view metric matrix is ``W_v @ W_v.T`` without scales.  ``trace``
    keeps per-iteration diagnostics from training.  ``stop_reason`` is
    ``"tol"`` when training converged, ``"max_iters"`` when it ran out of
    iterations, and ``None`` when unknown (models built by hand).
    """

    projections: tuple
    view_weights: np.ndarray
    hyper: Hyperparams
    trace: tuple = ()
    stop_reason: str | None = None
    scales: tuple | None = None

    def __post_init__(self):
        if self.hyper.embed_dim is None:
            raise ValueError("model requires a resolved embed_dim")
        d = self.hyper.embed_dim
        projections = []
        for i, w in enumerate(self.projections):
            w = np.array(w, dtype=float)
            if w.ndim != 2 or w.shape[1] != d:
                raise ValueError(f"projection {i + 1}: expected shape (D_v, {d}), got {w.shape}")
            if not np.isfinite(w).all():
                raise ValueError(f"projection {i + 1}: non-finite entries")
            gram_err = np.linalg.norm(w.T @ w - np.eye(d))
            if gram_err > ORTHONORMALITY_TOL:
                raise ValueError(f"projection {i + 1}: columns not orthonormal (error {gram_err:.2e})")
            w.setflags(write=False)
            projections.append(w)
        if not projections:
            raise ValueError("model needs at least one view projection")
        weights = np.array(self.view_weights, dtype=float)
        if weights.shape != (len(projections),):
            raise ValueError("one view weight per projection is required")
        # NaN fails every comparison, so it must be rejected by name
        if not np.isfinite(weights).all() or np.any(weights < 0.0) or abs(weights.sum() - 1.0) > SIMPLEX_TOL:
            raise ValueError("view weights must be finite, nonnegative and sum to 1")
        weights.setflags(write=False)
        if self.stop_reason not in STOP_REASONS:
            raise ValueError(f"stop_reason must be one of {STOP_REASONS}, got {self.stop_reason!r}")
        if (self.scales is not None) != self.hyper.standardize:
            raise ValueError("scales are required exactly when hyper.standardize is set")
        if self.scales is not None:
            scales = tuple(np.array(s, dtype=float) for s in self.scales)
            shapes = [s.shape for s in scales]
            if shapes != [(w.shape[0],) for w in projections]:
                raise ValueError(f"scales: expected one vector of D_v entries per view, got shapes {shapes}")
            # NaN fails every comparison, so finiteness is tested by name
            if not all(np.isfinite(s).all() and np.all(s > 0.0) for s in scales):
                raise ValueError("scales: entries must be finite and > 0")
            for s in scales:
                s.setflags(write=False)
            object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "projections", tuple(projections))
        object.__setattr__(self, "view_weights", weights)
        object.__setattr__(self, "trace", tuple(self.trace))

    @property
    def num_views(self) -> int:
        return len(self.projections)

    @property
    def view_dims(self) -> list:
        return [w.shape[0] for w in self.projections]

    @property
    def embed_dim(self) -> int:
        return self.hyper.embed_dim

    @property
    def powered_weights(self) -> np.ndarray:
        """``a_v^r``: each view's squared distance is scaled as the objective scales that view."""
        return self.view_weights**self.hyper.weight_exponent

    def scaled(self, view: int, columns: np.ndarray) -> np.ndarray:
        """Raw columns (``D_v x n``) of the 1-based ``view``, divided by its feature scales if any."""
        return columns if self.scales is None else columns / self.scales[view - 1][:, None]

    def project(self, view: int, columns: np.ndarray) -> np.ndarray:
        """Raw columns (``D_v x n``) of the 1-based ``view`` as its ``d x n`` points.

        The one place the model is applied to data: the columns are scaled,
        then multiplied by ``W_v.T`` in one product, so equal columns give
        equal points and a sample equal to another is at distance exactly 0.0.
        """
        return self.projections[view - 1].T @ self.scaled(view, columns)

    def to_dict(self, config: dict | None = None) -> dict:
        """The model as a JSON-ready dict; each projection and scale vector is one base64 float64 string."""
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "num_views": self.num_views,
            "view_dims": self.view_dims,
            **{name: getattr(self.hyper, name) for name in SAVED_HYPERPARAMS},
            "view_weights": self.view_weights.tolist(),
            "projections": [_encode(w) for w in self.projections],
            "stop_reason": self.stop_reason,
            "trace": list(self.trace),
        }
        if self.scales is not None:
            doc["scales"] = [_encode(s) for s in self.scales]
        if config is not None:
            doc["config"] = config
        return doc

    def save(self, path, config: dict | None = None) -> None:
        # compact separators: a third smaller than indented JSON, written by the C encoder
        Path(path).write_text(json.dumps(self.to_dict(config=config), separators=(",", ":")) + "\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "MultiviewMetricModel":
        """Inverse of ``to_dict``; of its keys only ``format_version``, ``scales`` and ``config`` may be missing."""
        if not isinstance(doc, dict):
            raise ValueError(f"invalid model document: expected a JSON object, got {type(doc).__name__}")
        check_format_version(doc, "model document", MODEL_FORMAT_VERSION)
        try:
            # the JSON values go to Hyperparams as they are, so its checks see
            # them: 2.5 or "7" is no max_iters, and true is no eta
            values = {key: doc[key] for key in SAVED_HYPERPARAMS}
            if values["embed_dim"] is None:
                raise TypeError("embed_dim must be an integer, got None")
            scales = doc.get("scales")
            hyper = Hyperparams(**values, standardize=scales is not None)
            d = hyper.embed_dim
            projections = [
                _decode(w, f"projection {i + 1}", 8 * d).reshape(-1, d) for i, w in enumerate(doc["projections"])
            ]
            if scales is not None:
                scales = tuple(_decode(s, f"scales {i + 1}", 8) for i, s in enumerate(scales))
            weights = [_real("view_weights", w) for w in doc["view_weights"]]
            # 2.0 or true is no count, as in every other integer field
            _integer("num_views", doc["num_views"])
            for n in doc["view_dims"]:
                _integer("view_dims", n)
            trace = doc["trace"]
            if not isinstance(trace, list) or not all(isinstance(entry, dict) for entry in trace):
                raise TypeError(f"trace must be a list of objects, got {trace!r:.40}")
            stop_reason = doc["stop_reason"]
        except (KeyError, TypeError, OverflowError) as exc:
            raise ValueError(f"invalid model document: {exc}") from exc
        model = cls(tuple(projections), weights, hyper, tuple(trace), stop_reason, scales)
        for key, value in (("num_views", model.num_views), ("view_dims", model.view_dims)):
            if doc[key] != value:
                raise ValueError(f"model document: {key} {doc[key]!r:.40} does not match the projections' {value}")
        return model

    @classmethod
    def load(cls, path) -> "MultiviewMetricModel":
        return cls.from_dict(read_json_object(path, "model file"))
