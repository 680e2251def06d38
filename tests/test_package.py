import copy
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import cmint
from cmint import (
    BadReductionCertificate,
    CMFieldData,
    LogCombo,
    PrimeSpot,
    QuadElem,
    QuadField,
    TMatrix,
    build_cm_field,
)
from cmint import bm, cli, localdensity
from cmint.bm import report_rows
from cmint.cmfield import spot_kinds
from cmint.numutil import prime_factors


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
    assert caches.keys() == {"cmint.cmfield._build_cached"}
    # their calls do not repeat within one command, so a memo would only keep
    # each result alive; a field holds its spot rows over 2 and D, each route
    # fetches another prime's once per scan, and `report_rows` hands its one
    # factor table to the scans. Each name must exist, or its check is empty
    for name in (
        "bm._factor_table",
        "bm._route_a",
        "bm._route_b",
        "cmfield._dyadic_squares",
        "cmfield.spot_kinds",
        "numutil.factorize",
        "quadfield._splitting",
    ):
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"cmint.{module}"), attr, None)), name
        assert f"cmint.{name}" not in caches
    unbounded = sorted(n for n, fn in caches.items() if fn.cache_parameters()["maxsize"] is None)
    assert unbounded == []


def test_every_lru_cache_is_hit_within_one_command(tmp_path, monkeypatch, capsys):
    # each memo that stays is hit by the work of one call that needs it
    caches = lru_caches()

    def hits(name, call):
        caches[name].cache_clear()
        call()
        return caches[name].cache_info().hits

    # a process that runs several commands on one field builds it once
    field = tmp_path / "f.json"
    field.write_text('{"D": 13, "delta": {"x": -21, "y": -2, "den": 1}, "mode": "strict"}')
    monkeypatch.setenv("CMINT_CACHE_DIR", str(tmp_path / "cache"))

    def two_commands():
        for m in ("1-2", "3-4"):
            assert cli.run(["intersect", "--field", str(field), "--m", m, "--no-cache"]) == 0

    assert hits("cmint.cmfield._build_cached", two_commands) >= 1
    capsys.readouterr()


def test_each_route_fetches_a_spot_row_once_per_m(monkeypatch):
    # `spot_kinds` keeps no memo, so its callers keep their own rows: route A
    # reads those over 2 and D off the field, classifies a spot where Δ̃ is a
    # unit off one symbol and fetches the other primes' rows once per scan;
    # route B evaluates its factor at each l | m once per scan, not per (T, l).
    # Over m <= 100 each route asks for a prime at most once per m, and only
    # for the primes of 2·D·D̃·norm(Δ̃)·m, not for each support prime
    f13 = build_cm_field(13, QuadElem(QuadField(13), -21, -2))
    x, y = f13.delta_tilde.x, f13.delta_tilde.y
    fixed = 2 * f13.D * f13.dtilde * abs(x * x - y * y * f13.dtilde)
    ms = range(1, 101)
    primes = set(prime_factors(fixed)).union(*(prime_factors(m) for m in ms))
    assert len(primes) == 26
    calls, total = Counter(), Counter()
    for route, mod in (("A", bm), ("B", localdensity)):

        def counting(field, l, route=route):
            calls[route, l] += 1
            return spot_kinds(field, l)

        monkeypatch.setattr(mod, "spot_kinds", counting)
    for m in ms:
        calls.clear()
        report_rows(f13, m)
        assert max(calls.values(), default=1) == 1, (m, calls)
        assert all(fixed * m % l == 0 for _, l in calls), (m, calls)
        assert not {l for route, l in calls if route == "A"} & {2, f13.D}, (m, calls)
        total.update(route for route, _ in calls)
    assert total == {"A": 135, "B": 48}, total


FIELD_REPR = (
    "CMFieldData(D=13, delta=QuadElem(field=QuadField(disc=13), x=-21, y=-2, den=1), "
    "dtilde=389, "
    "delta_tilde=QuadElem(field=QuadField(disc=389), x=-42, y=2, den=1), "
    "rel_diff=((PrimeSpot(disc=389, l=13, kind='split', label=8), 1),), w_k=2, mode='strict')"
)


def value_cases():
    """(class, constructor args, field tuple, repr) for each value class.

    The reprs are the ones the generated dataclass code gave.
    """
    F = QuadField(13)
    f = build_cm_field(13, QuadElem(F, -21, -2))
    field_args = (f.D, f.delta, f.dtilde, f.delta_tilde, f.rel_diff, f.w_k, f.mode)
    half = Fraction(1, 2)
    return [
        (QuadField, (13,), (13,), "QuadField(disc=13)"),
        (QuadElem, (F, -21, -2), (F, -21, -2, 1),
         "QuadElem(field=QuadField(disc=13), x=-21, y=-2, den=1)"),
        (PrimeSpot, (389, 7, "inert"), (389, 7, "inert", None),
         "PrimeSpot(disc=389, l=7, kind='inert', label=None)"),
        (PrimeSpot, (389, 5, "split", 2), (389, 5, "split", 2),
         "PrimeSpot(disc=389, l=5, kind='split', label=2)"),
        (CMFieldData, field_args, field_args, FIELD_REPR),
        (LogCombo, (), ((),), "LogCombo(coeffs=())"),
        (LogCombo, (((2, half),),), (((2, half),),),
         "LogCombo(coeffs=((2, Fraction(1, 2)),))"),
        (TMatrix, ((7852, -1248, 208), 52, 1, 5, 1), ((7852, -1248, 208), 52, 1, 5, 1),
         "TMatrix(num=(7852, -1248, 208), q=52, m=1, n=5, mu=1)"),
        (BadReductionCertificate, (f, (1,), ((2, 1),), (2,), half),
         (f, (1,), ((2, 1),), (2,), half),
         f"BadReductionCertificate(field={FIELD_REPR}, indices=(1,), per_prime=((2, 1),), "
         "bad_primes=(2,), bound=Fraction(1, 2))"),
    ]


def test_value_classes_keep_dataclass_semantics():
    cases = value_cases()
    assert len({cls for cls, *_ in cases}) == 7
    for i, (cls, args, values, text) in enumerate(cases):
        obj, again = cls(*args), cls(*args)
        assert obj is not again and obj == again and not obj != again
        assert obj != values and values != obj
        other_cls, other_args, *_ = cases[i - 1]
        assert obj != other_cls(*other_args)
        twin = type("Twin", (cls,), {"__slots__": ()})(*args)  # same fields, another class
        assert obj != twin and twin != obj
        assert hash(obj) == hash(again) == hash(values)
        assert repr(obj) == text
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
        name = text[text.index("(") + 1 : text.index("=")]  # the first field
        with pytest.raises(AttributeError):
            setattr(obj, name, values[0])
        with pytest.raises(AttributeError):
            delattr(obj, name)
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert getattr(obj, name) == values[0]
    F = QuadField(13)
    # defaults
    assert QuadElem(F, 1, 2).den == 1
    assert PrimeSpot(13, 3, "inert").label is None
    assert LogCombo().coeffs == ()
    # den-2 reduction and validation, as __post_init__ did
    assert QuadElem(F, 4, 2, 2) == QuadElem(F, 2, 1, 1)
    assert repr(QuadElem(F, 4, 2, 2)) == "QuadElem(field=QuadField(disc=13), x=2, y=1, den=1)"
    assert QuadElem(F, 3, 1, 2).den == 2
    for bad in ((F, 1, 0, 2), (F, 1, 1, 3)):
        with pytest.raises(cmint.InputError):
            QuadElem(*bad)
    with pytest.raises(cmint.InputError):
        QuadField(9)
    # keyword construction, as the generated __init__ allowed
    assert PrimeSpot(disc=13, l=3, kind="inert") == PrimeSpot(13, 3, "inert")


SRC = os.path.dirname(os.path.dirname(cmint.__file__))

# modules that a cache hit never runs, so the CLI must not load them before it
# needs them: the applications, LogCombo and selfcheck load inside their
# commands, csv only for CSV output, and no module on a hit builds a Fraction
HIT_UNLOADED = (
    "fractions",
    "decimal",
    "cmint.applications",
    "cmint.logcombo",
    "cmint.selfcheck",
    "csv",
    "dataclasses",
)


# run first in a fresh interpreter: at exit, its last stderr line names the
# loaded modules among cmint's and `HIT_UNLOADED`
WATCH = (
    "import atexit, sys; atexit.register(lambda: print(*sorted(m for m in sys.modules"
    f" if m.split('.')[0] == 'cmint' or m in {HIT_UNLOADED!r}), file=sys.stderr))"
)


def fresh_python(code: str, *args: str, **env: str) -> tuple[int, bytes, set[str]]:
    """`code` run with `args` in a fresh interpreter on this source tree: its exit
    code, its stdout, and the modules `WATCH` saw loaded.

    A fresh one, since pytest and the other tests have already loaded most of
    these modules here.
    """
    env = dict(os.environ, PYTHONPATH=SRC, **env)
    argv = [sys.executable, "-c", f"{WATCH}; {code}", *args]
    out = subprocess.run(argv, env=env, capture_output=True)
    err = out.stderr.decode().splitlines()
    return out.returncode, out.stdout, set(err[-1].split()) if err else set()


def test_cli_import_leaves_dataclasses_unloaded():
    # cmint.bm must load eagerly with the CLI, since the benchmark's range-cold
    # clock marks are installed on the modules that import loads, and with it
    # the modules it scans with, which the benchmark's tracer hooks only if loaded
    assert fresh_python("import cmint.cli")[2] == {
        "cmint",
        "cmint.bm",
        "cmint.cache",
        "cmint.cli",
        "cmint.cmfield",
        "cmint.errors",
        "cmint.frozen",
        "cmint.localdensity",
        "cmint.numutil",
        "cmint.quadfield",
        "cmint.tmatrix",
    }


@pytest.mark.parametrize(
    "argv",
    [["bm", "--m", "1-3"], ["intersect", "--m", "1-3", "--format", "csv"]],
    ids=["bm-json", "intersect-csv"],
)
def test_cold_and_warm_runs_load_only_what_they_run(tmp_path, argv):
    # the routes build no Fraction either, so a run that computes loads no more
    # than one that reads the cache
    field = tmp_path / "f.json"
    field.write_text('{"D": 13, "delta": {"x": -21, "y": -2, "den": 1}, "mode": "strict"}')
    argv = [argv[0], "--field", str(field), *argv[1:]]
    cache = tmp_path / "cache"
    code = "import cmint.cli; sys.exit(cmint.cli.run(sys.argv[1:]))"
    cold = fresh_python(code, *argv, CMINT_CACHE_DIR=str(cache))
    files = {f: f.stat().st_mtime_ns for f in cache.rglob("*.json")}
    assert len(files) == 3
    warm = fresh_python(code, *argv, CMINT_CACHE_DIR=str(cache))
    # every m was a hit: no file was written again
    assert {f: f.stat().st_mtime_ns for f in files} == files
    assert warm[1] == cold[1]
    for status, _, mods in (cold, warm):
        assert status == 0
        assert mods & set(HIT_UNLOADED) == ({"csv"} if "csv" in argv else set())


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(cmint.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_each_submodule_imports_alone(name):
    # the package imports none of them, so nothing fixes their import order:
    # each must import first, in a fresh interpreter, without a cycle
    assert fresh_python(f"import cmint.{name}")[0] == 0


def test_package_names_load_on_first_use():
    assert len(SUBMODULES) == 13
    # `import cmint` loads no submodule; star-import binds every public name
    assert fresh_python("import cmint")[2] == {"cmint"}
    code = "from cmint import *; import cmint; print(all(n in globals() for n in cmint.__all__))"
    assert fresh_python(code)[1] == b"True\n"
    assert len(cmint.__all__) == len(set(cmint.__all__)) == 23
    assert "report_rows" in cmint.__all__
    assert set(cmint.__all__) <= set(dir(cmint))
    for name in cmint.__all__:
        value = getattr(cmint, name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    assert cmint.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match=r"^module 'cmint' has no attribute 'nope'$"):
        cmint.nope


def test_readme_library_example_runs_as_printed(capsys):
    # README's python block is the library's promise: each line it prints is
    # the `# …` comment of the print that made it
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as f:
        code = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("# ", 1)[1] for line in code.splitlines() if line.startswith("print(")]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
    assert want == ["{2: Fraction(1, 1)}", "[[2, 2, 2, [-1, 2]]]"]
