import importlib
import inspect
import pkgutil

import cmint


def lru_caches() -> dict:
    """Every functools.lru_cache in the package, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(cmint.__path__):
        mod = importlib.import_module(f"cmint.{info.name}")
        holders = [mod] + [c for _, c in inspect.getmembers(mod, inspect.isclass)]
        for holder in holders:
            for value in vars(holder).values():
                if hasattr(value, "cache_parameters") and value.__module__ == mod.__name__:
                    found[f"{mod.__name__}.{value.__qualname__}"] = value
    return found


def test_every_lru_cache_is_bounded():
    caches = lru_caches()
    assert {
        "cmint.cmfield._build_cached",
        "cmint.cmfield._dyadic_squares",
        "cmint.cmfield.spot_kinds",
        "cmint.quadfield._splitting",
        "cmint.quadfield._root_for_spot",
        "cmint.numutil.factorize",
        "cmint.bm._route_b",
        "cmint.bm.bm_report",
    } <= caches.keys()
    # their one caller, bm_report, is cached
    assert "cmint.bm._route_a" not in caches
    assert "cmint.bm.support_primes" not in caches
    unbounded = sorted(n for n, fn in caches.items() if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == []
