"""Shared constants and reading for on-disk artifacts."""

import json
from pathlib import Path

# manifests and reports; model documents carry their own version (``mvmetric.model``)
FORMAT_VERSION = "1"


def read_json_object(path, what: str) -> dict:
    """The JSON object stored at ``path``; errors name the file as ``what``."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path}: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path}: expected a JSON object")
    return doc


def check_format_version(doc: dict, what: str, expected: str) -> None:
    """Reject a ``format_version`` other than ``expected``; a document without one passes."""
    version = doc.get("format_version", expected)
    if version != expected:
        raise ValueError(f"{what}: format_version {version!r:.40} is not the supported {expected!r}")
