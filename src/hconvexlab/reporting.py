"""Report envelopes, canonical JSON, and CSV emission.

All numbers serialize through Python's shortest round-trip float repr (at
most 17 significant digits), in JSON and CSV alike, so any report line can
be replayed bit-for-bit.  Canonical byte comparisons exclude the wall-time
fields, which are the only nondeterministic content in a report.
"""

from __future__ import annotations

import csv
import io
import json

from . import __version__

TOOL_NAME = "hconvexlab"
WALL_TIME_FIELDS = ("wall_time_s", "elapsed_s")

CHAIN_CSV_FIELDS = ("inequality", "n", "alpha", "gamma", "beta",
                    "lhs", "mid", "rhs", "margin1", "margin2", "feasible")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, shortest round-trip floats, no NaN."""
    return json.dumps(obj, sort_keys=True, allow_nan=False,
                      separators=(", ", ": "), indent=1)


def strip_wall_time(obj):
    """Recursive copy with wall-time fields removed, for byte comparisons."""
    if isinstance(obj, dict):
        return {k: strip_wall_time(v) for k, v in obj.items()
                if k not in WALL_TIME_FIELDS}
    if isinstance(obj, list):
        return [strip_wall_time(v) for v in obj]
    return obj


def envelope(command: str, config: dict, result, wall_time_s: float,
             seed=None, tolerances=None) -> dict:
    """The standard report wrapper: everything needed to reproduce a run."""
    return {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "command": command,
        "config": config,
        "seed": seed,
        "tolerances": tolerances or {},
        "result": result,
        "wall_time_s": wall_time_s,
    }


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(rows, fields=CHAIN_CSV_FIELDS) -> str:
    """Comma-separated, header row, RFC-style quoting, UTF-8 text."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_csv_cell(row[f]) for f in fields])
    return buf.getvalue()
