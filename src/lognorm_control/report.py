"""The JSON form of every report the package prints.

Reports are dataclasses whose fields are the report's keys; numpy
scalars and arrays in them are written as plain JSON numbers and lists.
Keys are sorted, so a report's text depends only on its values.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

__all__ = ["Report", "dumps", "json_default"]


def json_default(obj):
    """Make numpy scalars and arrays serializable in reports."""
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dumps(doc) -> str:
    """``doc`` as indented JSON with sorted keys."""
    return json.dumps(doc, indent=2, sort_keys=True, default=json_default)


class Report:
    """Base of the report dataclasses: the fields, recursively, as a dict."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return dumps(self.to_dict())
