#!/usr/bin/env python3
"""Benchmark harness for cmint: end-to-end metrics, or per-layer ones traced.

Run from the repository root (no install needed; the package is taken from
``src``):

    python3 bench/run.py --workload range-cold --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

Workloads (inputs are drawn from ``--seed``; see bench/README.md):

* ``range-cold`` -- ``cmint intersect`` over m <= 150 with an empty cache, in blocks.
* ``range-warm`` -- short ``bm``/``intersect`` queries against a filled cache.

Each workload is a closed loop with one client: the harness starts one child
process at a time and waits for it. Every pass runs in fresh interpreters, so
the package's in-process caches start empty. The run repeats passes over the
workload's fixed op list for about ``--seconds`` and scores each op by its
fastest passes, segment by segment (see `best_ms`). Every output is compared
with the SHA-256 digests in bench/reference.json. The last stdout line is one JSON object: end-to-end
metrics with ``--trace 0``; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics of bench/tracer.py are reported.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracer
from worker import RANGE_M, query_key, read_segments

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
MARKED_CLI = HERE / "marked_cli.py"
CHILD_SITE = HERE / "childsite"
REFERENCE = HERE / "reference.json"
WORKLOADS = ("range-cold", "range-warm")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "crosscheck_share": "ratio",
}
RUN_BUDGET_S = 165.0  # a run must end within 180 s, set-up included
CALIB_LOOP = 1_000_000


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for name in tracer.TARGETS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    out.update({
        "bm.crosscheck.compared": "count",
        "bm.crosscheck.inapplicable": "count",
        "tmatrix.t_matrix.admissible_ratio": "ratio",
        "numutil.factorize.hit_ratio": "ratio",
        "cache.load.bytes": "bytes",
        "cache.file_bytes": "bytes",
        "cache.hit_ratio": "ratio",
        "cli.import_s": "s",
        "cli.process_s": "s",
    })
    for name in tracer.LRU:
        for field in ("hits", "misses", "currsize"):
            out[f"lru.{name}.{field}"] = "count"
    out.update({
        "trace.wall_s": "s",
        "trace.overhead_ratio": "ratio",
        "trace.accounted_ratio": "ratio",
        "env.calib_s": "s",
    })
    return out


class BudgetExceeded(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop; tracks host speed, rescales nothing."""
    t0 = perf_counter()
    x = 0
    for i in range(CALIB_LOOP):
        x += i * i
    return perf_counter() - t0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def route_b_counts(bm_csv: bytes) -> tuple[int, int]:
    """(entries, entries with route_b compared) in `bm --format csv` output."""
    rows = list(csv.DictReader(io.StringIO(bm_csv.decode())))
    return len(rows), sum(1 for r in rows if r["route_b"] != "inapplicable")


def best_ms(op_passes: list[list[list[float]]]) -> list[float]:
    """Each op's latency (ms) scored by its fastest passes.

    Every pass times the same op list, each op as a list of segments that are
    the same work in every pass. Each segment is scored by its fastest pass and
    an op by the sum of its segments; if an op was not cut the same way in every
    pass, by its fastest whole time.
    """
    best = []
    for runs in zip(*op_passes):
        if len({len(segs) for segs in runs}) == 1:
            best.append(sum(min(times) for times in zip(*runs)))
        else:
            best.append(min(sum(segs) for segs in runs))
    return best


def git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


@dataclass
class Proc:
    """A finished child: exit code, seconds from spawn to reap, peak RSS, output."""

    rc: int
    wall: float
    rss_mb: float
    t0: float
    stdout: bytes
    stderr: bytes


def merge_traces(traces: list[dict]) -> dict:
    """Sum the traces of one pass's processes (currsize and file size: max)."""
    agg: dict[str, list] = {}
    counts: dict[str, int] = {}
    lru: dict[str, list | None] = {name: None for name in tracer.LRU}
    out = {"agg": agg, "counts": counts, "lru": lru, "cache_file_bytes": 0, "import_s": 0.0,
           "process_s": 0.0, "spans": []}
    for t in traces:
        for name, (calls, self_s) in t["agg"].items():
            a = agg.setdefault(name, [0, 0.0])
            a[0] += calls
            a[1] += self_s
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, info in t["lru"].items():
            if info is None:
                continue
            prev = lru.get(name) or [0, 0, 0]
            lru[name] = [prev[0] + info[0], prev[1] + info[1], max(prev[2], info[2])]
        out["cache_file_bytes"] = max(out["cache_file_bytes"], t["cache_file_bytes"])
        out["import_s"] += t.get("import_s", 0.0)
        out["process_s"] += t.get("process_s", 0.0)
        out["spans"] += t["spans"]
    return out


class Run:
    """One benchmark run of one workload; the run directory is removed at the end."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, trace: bool, refs: dict):
        self.root, self.workload, self.seed = root, workload, seed
        self.seconds, self.trace, self.refs = seconds, trace, refs
        runs_dir = root / ".bench_run"
        runs_dir.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=runs_dir))
        self.t_begin = perf_counter()
        self.checked = self.failed = self.unverified = 0
        self.errors: list[str] = []
        self.setups: list[float] = []
        self.walls: list[float] = []  # untraced passes
        self.traced_walls: list[float] = []
        self.op_passes: list[list[list[float]]] = []  # op segments (ms) of each untraced pass
        self.traced_op_passes: list[list[list[float]]] = []
        self.rss: list[float] = []
        self.entries = self.compared = 0
        self.calib: list[float] = []
        self.pass_traces: list[dict] = []
        self._n = 0

    # -- processes -----------------------------------------------------------

    def env(self, cache_dir: Path) -> dict:
        env = dict(os.environ, CMINT_BENCH_PEAK_RSS_FILE=str(self.dir / "peak_rss"))
        path = [str(CHILD_SITE), str(self.root / "src")]
        env["PYTHONPATH"] = os.pathsep.join(path + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        env["CMINT_CACHE_DIR"] = str(cache_dir)
        return env

    def spawn(self, argv: list[str], cache_dir: Path) -> Proc:
        """Run one child to completion; times it and reads its peak RSS.

        The child reports its peak RSS itself (childsite/sitecustomize.py).
        """
        remaining = RUN_BUDGET_S - (perf_counter() - self.t_begin)
        if remaining <= 0:
            raise BudgetExceeded(" ".join(argv))
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        killed = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env(cache_dir), stdout=out, stderr=err)

            def kill() -> None:
                killed.set()
                proc.kill()

            timer = threading.Timer(remaining, kill)
            timer.start()
            try:
                _, status = os.waitpid(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            raise BudgetExceeded(" ".join(argv))
        rss_path = self.dir / "peak_rss"
        rss_kb = int(rss_path.read_text().split()[1]) if rss_path.exists() else 0
        rss_path.unlink(missing_ok=True)
        return Proc(proc.returncode, wall, rss_kb / 1024, t0, out_path.read_bytes(), err_path.read_bytes())

    def cache_dir(self) -> Path:
        self._n += 1
        return self.dir / f"cache-{self._n}"

    def gen(self) -> tuple[float, dict]:
        argv = [sys.executable, str(WORKER), "gen", self.workload, str(self.seed), str(self.dir)]
        p = self.spawn(argv, self.dir / "cache-gen")
        if p.rc != 0:
            raise RuntimeError(f"input generation failed:\n{p.stderr.decode(errors='replace')}")
        return p.wall, json.loads((self.dir / "inputs.json").read_text())

    def cli(self, argv: list[str], cache_dir: Path, traced: bool, op: int) -> tuple[Proc, dict | None]:
        if not traced:
            return self.spawn([sys.executable, "-m", "cmint.cli", *argv], cache_dir), None
        out = self.dir / "trace.json"
        out.unlink(missing_ok=True)
        p = self.spawn([sys.executable, str(WORKER), "cli", str(out), str(op), "--", *argv], cache_dir)
        if not out.exists():
            return p, None
        trace = json.loads(out.read_text())
        # interpreter start-up and shutdown: the part of the op the worker cannot time
        trace["process_s"] = p.wall - (trace["t_end"] - trace["t_start"])
        return p, trace

    def marked_cli(self, argv: list[str], cache_dir: Path) -> tuple[Proc, list[float]]:
        """Run one cmint command through marked_cli.py; its time cut into segments (s)."""
        out = self.dir / "marks"
        out.unlink(missing_ok=True)
        p = self.spawn([sys.executable, str(MARKED_CLI), str(out), "--", *argv], cache_dir)
        marks = [float(x) for x in out.read_text().split()] if out.exists() else []
        bounds = [p.t0, *marks, p.t0 + p.wall]
        return p, [b - a for a, b in zip(bounds, bounds[1:])]

    # -- checks --------------------------------------------------------------

    def check(self, what: str, ok: bool, digest: str | None, expected: str | None, detail: str = "") -> bool:
        """Count one checked output; a failed op or a digest mismatch fails it."""
        self.checked += 1
        if ok and expected is None:
            self.unverified += 1
            return True
        if ok and digest == expected:
            return True
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{what}: {detail or 'output digest differs from reference'}")
        return False

    def check_proc(self, what: str, p: Proc, expected: str | None) -> bool:
        detail = "" if p.rc == 0 else f"exit {p.rc}: {p.stderr.decode(errors='replace').strip()[-300:]}"
        return self.check(what, p.rc == 0, sha256(p.stdout), expected, detail)

    # -- passes --------------------------------------------------------------

    def loop(self, one_pass) -> None:
        """Alternate passes (untraced first) for about --seconds.

        A pass is not started when it would end more than half a pass after
        --seconds, judged by the longest pass so far. At least two untraced
        passes run, so each op's score is the best of several samples even
        when one pass outlasts --seconds.
        """
        t0 = perf_counter()
        i = untraced = 0
        longest = 0.0
        while True:
            traced = self.trace and i % 2 == 1
            t = perf_counter()
            one_pass(traced)
            longest = max(longest, perf_counter() - t)
            i += 1
            untraced += not traced
            enough = untraced >= 2 and (not self.trace or i >= 2)
            if enough and perf_counter() - t0 + longest / 2 >= self.seconds:
                break

    def record_pass(self, traced: bool, op_ms: list[list[float]], traces: list[dict]) -> None:
        wall = sum(map(sum, op_ms)) / 1000
        if traced:
            self.traced_walls.append(wall)
            self.traced_op_passes.append(op_ms)
            self.pass_traces.append(merge_traces(traces))
        else:
            self.walls.append(wall)
            self.op_passes.append(op_ms)

    def worker_pass(self, traced: bool) -> None:
        """One pass of CLI ops run in-process: a fresh worker runs the whole op list."""
        gen_s, inputs = self.gen()
        self.calib.append(calibrate())
        cache_dir = self.cache_dir()
        out = self.dir / "ops.json"
        argv = [sys.executable, str(WORKER), "ops", str(self.dir / "inputs.json"), str(out)]
        p = self.spawn(argv + (["--trace"] if traced else []), cache_dir)
        if p.rc != 0:
            for _ in inputs["ops"]:
                self.check(f"{self.workload} op", False, None, None, f"worker exit {p.rc}")
            self.errors.append(p.stderr.decode(errors="replace").strip()[-300:])
            return
        data = json.loads(out.read_text())
        refs = self.refs["range-cli"]
        op_ms = []
        for op, segments in zip(data["ops"], read_segments(out, data["ops"])):
            op_ms.append([t * 1000 for t in segments])
            self.check(f"{self.workload} {op['key']}", op["error"] is None, op["digest"],
                       refs.get(op["key"]), op["error"] or "")
        if not traced:
            self.setups.append(gen_s + data["t_ready"] - p.t0)
            self.rss.append(p.rss_mb)
        self.record_pass(traced, op_ms, [data["trace"]] if traced else [])
        self.table = (inputs, cache_dir)

    def cli_pass(self, traced: bool, cache_dir: Path) -> None:
        """One pass of CLI ops, each a fresh process (marked_cli.py, or worker.py cli when traced)."""
        gen_s, inputs = self.gen()
        self.calib.append(calibrate())
        refs = self.refs["range-cli"]
        op_ms, traces = [], []
        for i, argv in enumerate(inputs["ops"]):
            if traced:
                p, trace = self.cli(argv, cache_dir, True, i)
                segments = [p.wall]
            else:
                p, segments = self.marked_cli(argv, cache_dir)
                trace = None
            key = query_key(inputs["field"], argv)
            self.check_proc(f"{self.workload} {key}", p, refs.get(key))
            op_ms.append([t * 1000 for t in segments])
            if trace:
                traces.append(trace)
            if not traced:
                self.rss.append(p.rss_mb)
        if not traced:
            self.setups.append(gen_s)
        self.record_pass(traced, op_ms, traces)
        self.table = (inputs, cache_dir)

    def table_cli(self, inputs: dict, cache_dir: Path, refs: str, cmd: str, *opts: str) -> Proc:
        """Run `cmd --field F --m 1-150 opts` on the run's field; check it against refs."""
        argv = [cmd, "--field", inputs["field_file"], "--m", f"1-{RANGE_M}", *opts]
        p, _ = self.cli(argv, cache_dir, False, 0)
        self.check_proc(f"{self.workload} {' '.join(argv)}", p, self.refs[refs].get(inputs["field"]))
        return p

    def range_readback(self) -> None:
        """Read the run's table back as `bm` CSV: digests and route-B share.

        The share is taken over the whole table, not over what the seed's
        queries happened to print, so it does not vary with the seed.
        `range-cold`'s m <= 100 table is read in its 10-m blocks, whose
        outputs reference.json holds; `range-warm`'s m <= 150 table at once.
        """
        inputs, cache_dir = self.table
        if self.workload == "range-warm":
            p = self.table_cli(inputs, cache_dir, "range-readback", "bm", "--format", "csv")
            outs = [p]
        else:
            outs = []
            for op in inputs["ops"]:
                argv = ["bm", *op[1:], "--format", "csv"]
                p, _ = self.cli(argv, cache_dir, False, 0)
                key = query_key(inputs["field"], argv)
                self.check_proc(f"{self.workload} readback {key}", p, self.refs["range-cli"].get(key))
                outs.append(p)
        if all(p.rc == 0 for p in outs):
            counts = [route_b_counts(p.stdout) for p in outs]
            self.entries = sum(n for n, _ in counts)
            self.compared = sum(c for _, c in counts)

    def execute(self) -> None:
        if self.workload == "range-cold":
            self.loop(self.worker_pass)
            self.range_readback()
        else:
            # the cache is filled once per run, outside the measured window:
            # the fill takes 8-9 s, too long to repeat within the run budget
            _, inputs = self.gen()
            warm_cache = self.cache_dir()
            fill_s = self.table_cli(inputs, warm_cache, "range-fill", "intersect").wall
            self.loop(lambda traced: self.cli_pass(traced, warm_cache))
            self.setups = [fill_s + s for s in self.setups]
            self.range_readback()

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        # Each segment of each op is timed once per pass and scored by its
        # fastest pass. Other tenants of the host slow CPU-bound code by up to
        # 60% for periods of a fraction of a second to a minute; a pass rarely
        # runs fast throughout, but most of its milliseconds run fast in some
        # pass, so the sum of segment minima is steadier than the fastest
        # whole pass or a mean or median.
        best = best_ms(self.op_passes)
        return {
            "setup_s": statistics.median(self.setups),
            "wall_s": sum(best) / 1000,
            "op_p50_ms": statistics.median(best),
            "op_p90_ms": statistics.quantiles(best, n=10, method="inclusive")[-1],
            "peak_rss_mb": max(self.rss),
            "crosscheck_share": self.compared / self.entries if self.entries else 0.0,
        }

    def per_layer(self) -> dict[str, float]:
        n = len(self.pass_traces)
        total = merge_traces([dict(t, spans=[]) for t in self.pass_traces])
        agg, counts, lru = total["agg"], total["counts"], total["lru"]
        out: dict[str, float] = {}
        self_sum = 0.0
        for name in tracer.TARGETS:
            calls, self_s = agg.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls / n
            out[f"{name}.self_s"] = self_s / n
            self_sum += self_s
        tm_calls = agg.get("tmatrix.t_matrix", (0, 0.0))[0]
        fz = lru.get("numutil.factorize") or [0, 0, 0]
        out.update({
            "bm.crosscheck.compared": counts.get("bm.crosscheck.compared", 0) / n,
            "bm.crosscheck.inapplicable": counts.get("bm.crosscheck.inapplicable", 0) / n,
            "tmatrix.t_matrix.admissible_ratio": counts.get("tmatrix.t_matrix.admissible", 0) / tm_calls if tm_calls else 0.0,
            "numutil.factorize.hit_ratio": fz[0] / (fz[0] + fz[1]) if fz[0] + fz[1] else 0.0,
            "cache.load.bytes": counts.get("cache.load.bytes", 0) / n,
            "cache.file_bytes": max(t["cache_file_bytes"] for t in self.pass_traces),
            "cache.hit_ratio": counts["cache.hits"] / counts["cache.gets"] if counts.get("cache.gets") else 0.0,
            "cli.import_s": total["import_s"] / n,
            "cli.process_s": total["process_s"] / n,
        })
        for name in tracer.LRU:
            # a cache the package no longer has reads as 0 (listed as removed)
            hits, misses, _ = lru.get(name) or [0, 0, 0]
            out[f"lru.{name}.hits"] = hits / n
            out[f"lru.{name}.misses"] = misses / n
            out[f"lru.{name}.currsize"] = max((t["lru"].get(name) or [0, 0, 0])[2] for t in self.pass_traces)
        # traced and untraced wall_s, each scored like the end-to-end wall_s
        traced_wall = sum(best_ms(self.traced_op_passes)) / 1000
        out.update({
            "trace.wall_s": traced_wall,
            "trace.overhead_ratio": traced_wall / (sum(best_ms(self.op_passes)) / 1000),
            "trace.accounted_ratio": (self_sum + total["import_s"] + total["process_s"]) / sum(self.traced_walls),
            "env.calib_s": statistics.median(self.calib),
        })
        return out

    def write_spans(self) -> Path:
        """Write the traced passes' spans, one list per pass, under .bench_out/."""
        path = self.root / ".bench_out" / f"spans-{self.workload}-seed{self.seed}.json"
        path.parent.mkdir(exist_ok=True)
        doc = {"fields": ["id", "name", "start_s", "end_s", "parent", "op"],
               "passes": [t["spans"] for t in self.pass_traces]}
        path.write_text(json.dumps(doc))
        return path

    def removed_caches(self) -> list[str]:
        return [name for name in tracer.LRU if all(t["lru"].get(name) is None for t in self.pass_traces)]


def print_table(title: str, metrics: dict[str, float], units: dict[str, str]) -> None:
    print(f"# {title}")
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def run_one(root: Path, args, workload: str, refs: dict, env_info: dict) -> dict:
    run = Run(root, workload, args.seed, args.seconds, bool(args.trace), refs)
    try:
        try:
            run.execute()
        except BudgetExceeded as exc:
            run.check(f"{workload} budget", False, None, None, f"run exceeded {RUN_BUDGET_S:.0f} s at: {exc}")
        if not run.walls or (run.trace and not run.traced_walls):
            raise RuntimeError(f"{workload}: no complete pass; errors: {run.errors}")
        if run.trace:
            metrics = run.per_layer()
            units = per_layer_metrics()
        else:
            metrics = run.end_to_end()
            units = END_TO_END
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)
        try:
            (root / ".bench_run").rmdir()
        except OSError:
            pass
    info = dict(env_info, workload=workload, seconds=args.seconds, trace=args.trace)
    print("# env " + json.dumps(info, sort_keys=True))
    summary = {
        "passes": len(run.walls) + len(run.traced_walls),
        "ops_checked": run.checked,
        "failed": run.failed,
        "unverified": run.unverified,
        "failed_share": run.failed / run.checked if run.checked else 0.0,
        "env.calib_s": statistics.median(run.calib) if run.calib else 0.0,
        "pass_wall_s": run.walls,
        "pass_calib_s": run.calib,
    }
    if run.trace:
        summary["removed_caches"] = run.removed_caches()
        summary["spans_file"] = str(run.write_spans().relative_to(root))
    print("# summary " + json.dumps(summary, sort_keys=True))
    for err in run.errors:
        print(f"# error {err}")
    print_table(f"{workload}: {'per-layer (traced)' if run.trace else 'end-to-end'}", metrics, units)
    return {
        "correct": run.failed == 0,
        "attempted": run.checked,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind like Ctrl-C: running children are killed and reaped
    # and the run directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "cmint" / "__init__.py").is_file():
        print("bench: run from the root of a cmint checkout (src/cmint not found)", file=sys.stderr)
        return 2
    refs = json.loads(REFERENCE.read_text())
    env_info = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "seed": args.seed,
    }
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_one(root, args, w, refs, env_info) for w in workloads}
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
