"""Deterministic CSV/JSON report writers.

Numbers are written in their shortest round-trip decimal form (repr of a
float, 17 significant digits where needed) with fixed row order, so
rerunning an identical config overwrites outputs byte-for-byte.  Writes are
atomic (temp file + rename).  Wall-clock timings are intentionally kept out
of the report files and go to a sidecar ``timings.log`` so that outputs stay
byte-identical across reruns and thread settings.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile

import numpy as np


def fmt(x) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    xf = float(x)
    if xf != xf:
        return "nan"
    return repr(xf)


def _atomic_write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=".tmp_", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return fmt(v)
    return str(v)


def write_csv(path: str, header: list, rows, comments: list = ()) -> None:
    """CSV of ``rows``: row tuples, each cell written by ``_cell``, or a 2-d
    float array, each cell written as ``fmt`` would without a call per cell."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    if isinstance(rows, np.ndarray):
        rows = rows.astype(float, copy=False).tolist()
        lines.extend(",".join(map(repr, row)) for row in rows)
    else:
        lines.extend(",".join(_cell(v) for v in row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def _jsonify(obj):
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def write_json(path: str, obj: dict) -> None:
    _atomic_write(path, json.dumps(_jsonify(obj), indent=2, sort_keys=True) + "\n")


def versions() -> dict:
    import scipy

    from . import __version__
    return {
        "potkit": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def run_report(config: dict, results: dict, verdicts: dict) -> dict:
    """Report body: config echoed verbatim plus result tables and verdicts."""
    return {
        "config": config,
        "results": _jsonify(results),
        "verdicts": _jsonify(verdicts),
        "versions": versions(),
    }


def log_timing(out_dir: str, label: str, seconds: float) -> None:
    path = os.path.join(out_dir, "timings.log")
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"{label}: {seconds:.3f} s\n")
