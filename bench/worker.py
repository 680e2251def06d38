"""Child-process side of the cmint benchmark; run.py starts it.

Run from the repository root with ``PYTHONPATH=src``:

    python3 bench/worker.py gen WORKLOAD SEED DIR       # draw inputs into DIR/inputs.json
    python3 bench/worker.py ops INPUTS OUT [--trace]    # time CLI ops in one process
    python3 bench/worker.py cli OUT OP -- ARGV...       # one traced cmint command

Each process starts with empty package caches, as a user's would. Results go
to the OUT file as JSON; ``cli`` prints the command's own stdout and exits
with its exit code, like ``python -m cmint.cli ARGV...``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()  # first thing: the rest of the run counts as the worker's

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from array import array
from pathlib import Path

# the ROADMAP's cold-table field D = 13, Δ = (−21 ± 2√13), D̃ = 389, in both
# conjugate presentations; other D̃ or D change the cost up to 3×
RANGE_FIELDS = ((13, -21, -2, 1), (13, -21, 2, 1))
RANGE_M = 150
# range-cold runs m <= 100 as 10 commands of 10 m each: an op of a few tenths
# of a second can be timed several times per run, a 7 s command cannot. Its
# pass (about 3 s; m <= 150 takes 8 s) is repeated 10-15 times per run, so
# each segment of it is scored over that many samples.
COLD_M = 100
COLD_BLOCK = 10
WARM_QUERIES = 16
WARM_BLOCK = 5


def field_key(D: int, x: int, y: int, den: int) -> str:
    return f"{D},{x},{y},{den}"


def m_blocks(size: int, top: int = RANGE_M) -> list[str]:
    """m <= top as consecutive --m ranges of `size` values."""
    return [f"{a}-{a + size - 1}" for a in range(1, top + 1, size)]


def warm_m_specs() -> tuple[list[str], list[str]]:
    """Every --m value a range-warm query may use: single m, and 5-blocks."""
    return [str(m) for m in range(1, RANGE_M + 1)], m_blocks(WARM_BLOCK)


def query_key(fkey: str, argv: list[str]) -> str:
    """Reference key of a range query: field | command | m spec | format."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return "|".join((fkey, argv[0], opts["--m"], opts.get("--format", "json")))


def _write_range_field(rng: random.Random, out_dir: Path) -> tuple[str, str]:
    from cmint.cli import load_field

    D, x, y, den = rng.choice(RANGE_FIELDS)
    path = out_dir / "field.json"
    path.write_text(json.dumps({"D": D, "delta": {"x": x, "y": y, "den": den}, "mode": "strict"}))
    load_field(str(path))
    return field_key(D, x, y, den), str(path)


def _gen_range_cold(rng: random.Random, out_dir: Path) -> dict:
    fkey, path = _write_range_field(rng, out_dir)
    # ascending, as `intersect --m 1-100` computes them: the blocks share the
    # package's caches, so their order moves each block's cost
    blocks = m_blocks(COLD_BLOCK, COLD_M)
    return {"field": fkey, "field_file": path, "ops": [["intersect", "--field", path, "--m", b] for b in blocks]}


def _gen_range_warm(rng: random.Random, out_dir: Path) -> dict:
    fkey, path = _write_range_field(rng, out_dir)
    # the same number of queries of each kind for every seed: a bm JSON block
    # takes ~2.5x as long as a single-m query, so a free mix would move the
    # pass time and the p90 with the seed
    queries = []
    for cmd in ("bm", "intersect"):
        for fmt in ("json", "csv"):
            for specs in warm_m_specs():
                for spec in rng.sample(specs, WARM_QUERIES // 8):
                    queries.append([cmd, "--field", path, "--m", spec, "--format", fmt])
    rng.shuffle(queries)
    return {"field": fkey, "field_file": path, "ops": queries}


def cmd_gen(workload: str, seed: int, out_dir: Path) -> None:
    rng = random.Random(f"cmint-bench:{workload}:{seed}")
    if workload == "range-cold":
        inputs = _gen_range_cold(rng, out_dir)
    elif workload == "range-warm":
        inputs = _gen_range_warm(rng, out_dir)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out_dir / "inputs.json").write_text(json.dumps(inputs))


# calls after which an op's clock is read: each m's route A, each prime's
# route B and each m's report
MARKS = (("cmint.bm", "_route_a"), ("cmint.bm", "bm_p_product"), ("cmint.bm", "bm_report"))


def _marked(fn, marks: list[float]):
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        marks.append(perf_counter())
        return result

    return marked


def _install_marks(marks: list[float]) -> None:
    """Append a `perf_counter` reading to `marks` each time a `MARKS` call returns.

    The readings cut an op into segments, mostly under a millisecond (about
    6,200 per pass), that are the same work in every pass; run.py scores each
    segment by its fastest pass. A function the package no longer has is
    skipped, which leaves coarser segments. As in tracer.py, each function is
    replaced in every ``cmint`` module that holds it.
    """
    import cmint.cli  # noqa: F401  (loads every module a command reaches)
    from tracer import replace_in_package

    for modname, attr in MARKS:
        fn = getattr(sys.modules.get(modname), attr, None)
        if fn is not None:
            replace_in_package(fn, _marked(fn, marks))


def cmd_ops(inputs_path: str, out_path: str, traced: bool) -> None:
    """Run each op's `cmint.cli.run(argv)` in this process; write times and stdout digests."""
    import cmint.cli

    inputs = json.loads(Path(inputs_path).read_text())
    tr = None
    if traced:
        from tracer import Tracer

        tr = Tracer()
        tr.install()
    # clock readings and segment times are kept as packed doubles and written
    # to OUT.seg as they come, so they add little to the worker's peak RSS
    marks = array("d")
    _install_marks(marks)
    t_ready = perf_counter()
    results = []
    with open(f"{out_path}.seg", "wb") as seg_file:
        for i, argv in enumerate(inputs["ops"]):
            if tr is not None:
                tr.op = i
            stdout = io.StringIO()
            del marks[:]
            t0 = perf_counter()
            try:
                # cmint.cli.run is looked up here, so a traced pass calls the wrapper
                with contextlib.redirect_stdout(stdout):
                    rc = cmint.cli.run(argv)
                error = None if rc == 0 else f"exit {rc}"
            except Exception as exc:  # an op that raises counts as failed; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            marks.append(t1)
            segments = array("d", (b - a for a, b in zip(itertools.chain((t0,), marks), marks)))
            segments.tofile(seg_file)
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            results.append({"key": query_key(inputs["field"], argv), "segments": len(segments),
                            "error": error, "digest": digest})
    out = {"t_ready": t_ready, "ops": results}
    if tr is not None:
        out["trace"] = tr.report()
    Path(out_path).write_text(json.dumps(out))


def read_segments(out_path: Path, ops: list[dict]) -> list[array]:
    """Each op's segment times (s) from the OUT.seg file `ops` wrote."""
    data = array("d")
    data.frombytes(Path(f"{out_path}.seg").read_bytes())
    out, i = [], 0
    for op in ops:
        out.append(data[i:i + op["segments"]])
        i += op["segments"]
    return out


def cmd_cli(out_path: str, op: int, argv: list[str]) -> int:
    from tracer import Tracer

    t0 = perf_counter()
    import cmint.cli

    import_s = perf_counter() - t0
    tr = Tracer()
    tr.install()
    tr.op = op
    try:
        return cmint.cli.run(argv)
    finally:
        sys.stdout.flush()
        out = tr.report()
        out["import_s"] = import_s
        out["t_start"], out["t_end"] = T_START, perf_counter()
        Path(out_path).write_text(json.dumps(out))


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "gen":
        cmd_gen(rest[0], int(rest[1]), Path(rest[2]))
        return 0
    if cmd == "ops":
        cmd_ops(rest[0], rest[1], "--trace" in rest[2:])
        return 0
    if cmd == "cli":
        if rest[2] != "--":
            raise SystemExit("usage: worker.py cli OUT OP -- ARGV...")
        return cmd_cli(rest[0], int(rest[1]), rest[3:])
    raise SystemExit(f"unknown worker command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
