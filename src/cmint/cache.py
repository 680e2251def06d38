"""Report cache: one JSON file per (field, m).

The report of the field (D, Δ = (x + y√D)/den, mode) at m is the file
``<cache dir>/v3/<D>_<x>_<y>_<den>_<mode>_<m>.json``, holding the rows of
`bm.report_rows`: the head ``D``, ``delta``, ``mode``, ``m``, then ``flags``
and ``entries``, one row ``[p, b, route_b or null, [n₁, t₁, n₂, t₂, …]]`` per
prime, written compactly in that key order. A file is input from outside the
program: it is a hit only if it holds the report of exactly that field and m
with rows the CLI can print. Anything else is a miss, recomputed and
overwritten in place. A cache dir that cannot be written is skipped. Files of
other versions (``v2/``) are neither read nor removed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

CACHE_ENV = "CMINT_CACHE_DIR"
CACHE_VERSION = 3


def cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "cmint")


def report_path(base: Path, head: dict) -> Path:
    """The file of the report whose D, delta, mode and m are those of `head`."""
    d = head["delta"]
    name = f"{head['D']}_{d['x']}_{d['y']}_{d['den']}_{head['mode']}_{head['m']}.json"
    return base / f"v{CACHE_VERSION}" / name


def read(base: Path, head: dict) -> dict | None:
    """The cached rows with exactly the header `head` (D, delta, mode, m), or None."""
    try:
        obj = json.loads(report_path(base, head).read_bytes())
    except (OSError, ValueError, RecursionError):  # missing, torn, not JSON, too deep
        return None
    # the header is compared as JSON text, so that 5.0 or true never stands in for 5 or 1
    want = json.dumps(list(head.values()), sort_keys=True)
    same = isinstance(obj, dict) and json.dumps([obj.get(k) for k in head], sort_keys=True) == want
    if not same:
        return None
    flags, entries = obj.get("flags"), obj.get("entries")
    # flags are strings; each row [p, b, route_b, per_n]: p and b ints (not
    # bools), route_b an int or null, per_n a flat list of (n, term) int pairs
    ok = (
        type(flags) is list
        and {type(f) for f in flags} <= {str}
        and type(entries) is list
        and all(
            type(e) is list
            and len(e) == 4
            and type(e[0]) is type(e[1]) is int
            and (e[2] is None or type(e[2]) is int)
            and type(e[3]) is list
            and len(e[3]) % 2 == 0
            for e in entries
        )
        and {type(v) for e in entries for v in e[3]} <= {int}
    )
    return obj if ok else None


def write(base: Path, rows: dict) -> None:
    """Store the report rows `rows`; a cache dir that cannot be written is skipped."""
    path = report_path(base, rows)
    data = json.dumps(rows, separators=(",", ":")).encode()
    try:
        try:
            path.write_bytes(data)
        except FileNotFoundError:  # the first file of the version: make its directory
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
    except OSError:
        pass
