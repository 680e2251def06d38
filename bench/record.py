#!/usr/bin/env python3
"""Record the reference output digests the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted:

    PYTHONPATH=src python3 bench/record.py

It writes bench/reference.json with a SHA-256 digest for every op any seed
can draw:

* ``range-fill``     -- stdout of ``intersect --m 1-150`` for each range field.
* ``range-readback`` -- stdout of ``bm --m 1-150 --format csv`` read back warm.
* ``range-cli``      -- stdout of every query a range-cold or range-warm op
  may be: ``bm`` or ``intersect``, JSON or CSV, over a single m, a block of
  5 or a block of 10. A command prints the same whether the cache holds its
  m values or not, so the queries are answered from the filled cache.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import hashlib
import json
import os
import shutil
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent


def cli(argv: list[str], cache_dir: Path) -> bytes:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", CMINT_CACHE_DIR=str(cache_dir))
    return subprocess.run(
        [sys.executable, "-m", "cmint.cli", *argv], env=env, capture_output=True, check=True
    ).stdout


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    runs_dir = Path.cwd() / ".bench_run"
    runs_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=runs_dir))
    try:
        refs: dict[str, dict] = {"range-fill": {}, "range-readback": {}, "range-cli": {}}
        for D, x, y, den in worker.RANGE_FIELDS:
            fkey = worker.field_key(D, x, y, den)
            path = work / f"field-{D}_{x}_{y}_{den}.json"
            path.write_text(json.dumps({"D": D, "delta": {"x": x, "y": y, "den": den}, "mode": "strict"}))
            cache_dir = work / f"cache-{D}_{x}_{y}_{den}"
            m_all = f"1-{worker.RANGE_M}"
            refs["range-fill"][fkey] = sha256(cli(["intersect", "--field", str(path), "--m", m_all], cache_dir))
            refs["range-readback"][fkey] = sha256(
                cli(["bm", "--field", str(path), "--m", m_all, "--format", "csv"], cache_dir)
            )
            queries = [
                [cmd, "--field", str(path), "--m", spec, "--format", fmt]
                for cmd in ("bm", "intersect")
                for spec in sum(worker.warm_m_specs(), worker.m_blocks(worker.COLD_BLOCK))
                for fmt in ("json", "csv")
            ]
            with ThreadPoolExecutor(max_workers=2) as pool:
                outs = list(pool.map(lambda q: cli(q, cache_dir), queries))
            for q, out in zip(queries, outs):
                refs["range-cli"][worker.query_key(fkey, q)] = sha256(out)
            print(f"range fields: {fkey} done ({len(queries)} queries)", flush=True)

        (HERE / "reference.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            runs_dir.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    main()
