"""Layer tracing for the cmint benchmark, installed from outside the package.

`Tracer.install()` replaces each layer entry point named in `TARGETS` with a
timing wrapper, in every ``cmint`` module that holds a reference to it, so a
call made through ``cmint.bm.t_matrix`` is traced the same as one made through
``cmint.tmatrix.t_matrix``. Every wrapped call adds to its name's call count and
self time (its duration minus the durations of the wrapped calls it made).
Calls into the coarse layers (`SPAN_LAYERS`) are also kept as spans; the
fine-grained functions run about 10^5 times per run, so they are only
aggregated. Everything is held in memory and returned by `Tracer.report()`.

This module imports nothing from ``cmint`` at import time, so the harness can
read the metric names without loading the package.
"""

from __future__ import annotations

import sys
from time import perf_counter

# metric prefix -> (module, attribute) of the layer entry point
TARGETS = {
    "bm.report": ("cmint.bm", "bm_report"),
    "bm.route_a": ("cmint.bm", "_route_a"),
    "bm.support": ("cmint.bm", "support_primes"),
    "bm.route_b": ("cmint.bm", "bm_p_product"),
    "tmatrix.mu_candidates": ("cmint.tmatrix", "mu_candidates"),
    "tmatrix.t_matrix": ("cmint.tmatrix", "t_matrix"),
    "localdensity.b_l_factor": ("cmint.localdensity", "b_l_factor"),
    "localdensity.alpha_l": ("cmint.localdensity", "alpha_l"),
    "padic.hilbert": ("cmint.padic", "hilbert"),
    "numutil.prime_factors": ("cmint.numutil", "prime_factors"),
    "quadfield.ord_at": ("cmint.quadfield", "ord_at"),
    "quadfield.splitting": ("cmint.quadfield", "splitting"),
    "cmfield.classify": ("cmint.cmfield", "classify_in_reflex_cm"),
    "cmfield.rho": ("cmint.cmfield", "rho"),
    "cmfield.build": ("cmint.cmfield", "build_cm_field"),
    "cache.load": ("cmint.cache", "load"),
    "cache.append": ("cmint.cache", "append"),
    "cli.parse_m": ("cmint.cli", "parse_m_values"),
    "cli.emit": ("cmint.cli", "_print_json"),
    "cli.run": ("cmint.cli", "run"),
}

SPAN_LAYERS = ("bm", "cache", "cli")

# every functools.lru_cache in the package, read through cache_info()
LRU = {
    "numutil.factorize": ("cmint.numutil", "factorize"),
    "padic.hensel_sqrt": ("cmint.padic", "hensel_sqrt"),
    "quadfield._splitting": ("cmint.quadfield", "_splitting"),
    "quadfield._root_for_spot": ("cmint.quadfield", "_root_for_spot"),
    "cmfield._dyadic_squares": ("cmint.cmfield", "_dyadic_squares"),
    "cmfield._build_cached": ("cmint.cmfield", "_build_cached"),
    "bm._kind": ("cmint.bm", "_kind"),
    "bm._route_a": ("cmint.bm", "_route_a"),
    "bm.support_primes": ("cmint.bm", "support_primes"),
    "bm.bm_report": ("cmint.bm", "bm_report"),
}

COUNTS = (
    "bm.crosscheck.compared",
    "bm.crosscheck.inapplicable",
    "tmatrix.t_matrix.admissible",
    "cache.load.bytes",
    "cache.gets",
    "cache.hits",
)


def replace_in_package(orig, new) -> None:
    """Bind `new` to every name that holds `orig` in a loaded ``cmint`` module."""
    for modname, mod in list(sys.modules.items()):
        if modname == "cmint" or modname.startswith("cmint."):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)


def _cache_file_bytes() -> int:
    cache = sys.modules.get("cmint.cache")
    path_fn = getattr(cache, "cache_file", None)
    if path_fn is None:
        return 0
    path = path_fn()
    return path.stat().st_size if path.exists() else 0


class _CountingStore(dict):
    """The dict `cache.load` returns, counting lookups and hits by key."""

    counts: dict

    def get(self, key, default=None):
        self.counts["cache.gets"] += 1
        if key in self:
            self.counts["cache.hits"] += 1
        return super().get(key, default)


class Tracer:
    def __init__(self) -> None:
        self.agg: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.op = None
        self._stack: list[list[float]] = []  # child seconds of each open call
        self._open_spans: list[int] = []
        self._lru: dict[str, object] = {}
        self._lru_base: dict[str, tuple[int, int]] = {}

    def _wrap(self, name: str, fn, after=None):
        agg = self.agg.setdefault(name, [0, 0.0])
        stack = self._stack
        open_spans = self._open_spans
        spans = self.spans
        keep = name.split(".", 1)[0] in SPAN_LAYERS

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            if keep:
                sid = len(spans) + len(open_spans)
                parent = open_spans[-1] if open_spans else None
                open_spans.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                agg[0] += 1
                agg[1] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    open_spans.pop()
                    spans.append((sid, name, t0, t1, parent, self.op))
            return result if after is None else after(result)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _after_t_matrix(self, result):
        if result is not None:
            self.counts["tmatrix.t_matrix.admissible"] += 1
        return result

    def _after_route_b(self, result):
        key = "inapplicable" if result is None else "compared"
        self.counts[f"bm.crosscheck.{key}"] += 1
        return result

    def _after_cache_load(self, result):
        self.counts["cache.load.bytes"] += _cache_file_bytes()
        store = _CountingStore(result)
        store.counts = self.counts
        return store

    def install(self) -> None:
        """Wrap every target present in the package; absent ones stay at 0."""
        import cmint  # noqa: F401
        import cmint.cli  # noqa: F401  (loads every module a command reaches)

        for name, (modname, attr) in LRU.items():
            fn = getattr(sys.modules.get(modname), attr, None)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self._lru[name] = fn
                self._lru_base[name] = (info.hits, info.misses)
        after = {
            "tmatrix.t_matrix": self._after_t_matrix,
            "bm.route_b": self._after_route_b,
            "cache.load": self._after_cache_load,
        }
        for name, (modname, attr) in TARGETS.items():
            orig = getattr(sys.modules.get(modname), attr, None)
            if orig is not None:
                replace_in_package(orig, self._wrap(name, orig, after.get(name)))

    def report(self) -> dict:
        lru = {}
        for name in LRU:
            fn = self._lru.get(name)
            if fn is None:
                lru[name] = None
                continue
            info = fn.cache_info()
            hits0, misses0 = self._lru_base[name]
            lru[name] = [info.hits - hits0, info.misses - misses0, info.currsize]
        return {
            "agg": self.agg,
            "counts": self.counts,
            "lru": lru,
            "cache_file_bytes": _cache_file_bytes(),
            "spans": self.spans,
        }
