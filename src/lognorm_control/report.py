"""The JSON form of every report the package prints.

Reports are dataclasses whose fields are the report's keys, holding
plain Python values.  A non-finite number is written as null, so every
report is strict JSON (RFC 8259).  Keys are sorted, so a report's text
depends only on its values.
"""

from __future__ import annotations

import dataclasses
import json
import math

__all__ = ["Report", "dumps"]


def _finite(v):
    """``v`` with every non-finite float in it replaced by None."""
    if isinstance(v, dict):
        return {k: _finite(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_finite(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def dumps(doc) -> str:
    """``doc`` as indented strict JSON with sorted keys."""
    return json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False)


class Report:
    """Base of the report dataclasses: the fields, recursively, as a dict."""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self) -> str:
        return dumps(self.to_dict())
