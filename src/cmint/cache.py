"""Report cache: one JSON file per (field, m).

The report of the field (D, Δ = (x + y√D)/den, mode) at m is the file
``<cache dir>/v2/<D>_<x>_<y>_<den>_<mode>_<m>.json``, holding
``json.dumps(report, sort_keys=True)``. A file is input from outside the program:
it is a hit only if it holds the report of exactly that field and m with entries
the CLI can print. Anything else is a miss, recomputed and overwritten in place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

CACHE_ENV = "CMINT_CACHE_DIR"
CACHE_VERSION = 2
_ENTRY_KEYS = {"p", "b", "route_a", "route_b", "per_n"}


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "cmint")


def report_path(base: Path, head: dict) -> Path:
    """The file of the report whose D, delta, mode and m are those of `head`."""
    d = head["delta"]
    name = f"{head['D']}_{d['x']}_{d['y']}_{d['den']}_{head['mode']}_{head['m']}.json"
    return base / f"v{CACHE_VERSION}" / name


def read(base: Path, head: dict) -> dict | None:
    """The cached report with exactly the header `head` (D, delta, mode, m), or None."""
    try:
        obj = json.loads(report_path(base, head).read_bytes())
    except (OSError, ValueError, RecursionError):  # missing, torn, not JSON, too deep
        return None
    # the header is compared as JSON text, so that 5.0 or true never stands in for 5 or 1
    want = json.dumps(list(head.values()), sort_keys=True)
    same = isinstance(obj, dict) and json.dumps([obj.get(k) for k in head], sort_keys=True) == want
    entries = obj.get("entries") if same else None
    ok = isinstance(entries, list) and all(
        isinstance(e, dict) and _ENTRY_KEYS <= e.keys() and type(e["p"]) is type(e["b"]) is int
        for e in entries
    )
    return obj if ok else None


def write(base: Path, report: dict) -> None:
    path = report_path(base, report)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, sort_keys=True))
