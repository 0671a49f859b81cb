"""Shared constants and reading for on-disk artifacts."""

import json
from pathlib import Path

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


def check_format_version(doc: dict, what: str) -> None:
    """Reject a ``format_version`` other than ``FORMAT_VERSION``; a document without one passes."""
    version = doc.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ValueError(f"{what}: format_version {version!r:.40} is not the supported {FORMAT_VERSION!r}")
