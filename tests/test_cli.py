import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
import weakref

import pytest

import cmint.cli as cli
from cmint import cache, cmfield, numutil, quadfield, selfcheck
from cmint.bm import BmEntry, BmReport, bm_report
from cmint.errors import InputError, InternalConsistencyError


def write_field(path, D=5, x=-13, y=1, den=2, mode="strict"):
    path.write_text(json.dumps({"D": D, "delta": {"x": x, "y": y, "den": den}, "mode": mode}))
    return str(path)


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("CMINT_CACHE_DIR", str(d))
    return d


def test_bm_output(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    # one report spliced into the document is the document json.dumps gives
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert payload == {
        "reports": [
            {
                "D": 5,
                "delta": {"x": -13, "y": 1, "den": 2},
                "mode": "strict",
                "m": 1,
                "entries": [
                    {
                        "p": 2,
                        "b": 2,
                        "route_a": 2,
                        "route_b": 2,
                        "per_n": [{"n": -1, "term": 2}],
                    }
                ],
                "flags": [],
            }
        ]
    }


def test_m_ranges(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1-3,5", "--no-cache"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["m"] for r in payload["reports"]] == [1, 2, 3, 5]


def test_parse_m_values_first_occurrence_order():
    assert list(cli.parse_m_values("3,1-4,2")) == [3, 1, 2, 4]
    assert list(cli.parse_m_values("5-9,1-6,8,2-12,3")) == [5, 6, 7, 8, 9, 1, 2, 3, 4, 10, 11, 12]


def test_parse_m_values_long_range_is_fast():
    start = time.perf_counter()
    vals = list(cli.parse_m_values("1-32000,5,31990-32005"))
    elapsed = time.perf_counter() - start
    assert vals == list(range(1, 32006))
    assert elapsed < 0.5, f"parsing took {elapsed:.2f}s"


def test_parse_m_values_is_lazy():
    # only the (lo, hi) pairs are held: the first m of a long range costs no list of it
    tracemalloc.start()
    try:
        assert next(iter(cli.parse_m_values("1-200000"))) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_parse_m_values_checks_every_part_first():
    # a bad part fails at the call, before any m is yielded, with the first bad part's text
    with pytest.raises(InputError, match=r"'x'"):
        cli.parse_m_values("1-5,x,3-1")
    with pytest.raises(InputError, match=r"'3-1'"):
        cli.parse_m_values("1-5,3-1,x")


def test_intersect_exact_fractions(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["intersect", "--field", field, "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"] == [{"m": 1, "intersection": {"2": 1}}]
    assert "conjectural" not in payload


def test_permissive_marked_conjectural(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "p.json", x=-25, y=-3, mode="permissive")
    assert cli.run(["intersect", "--field", field, "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["conjectural"] is True
    assert payload["results"] == [{"m": 1, "intersection": {"2": 2, "3": 2}}]


def test_mode_override(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "p.json", x=-25, y=-3, mode="permissive")
    assert cli.run(["bm", "--field", field, "--m", "1", "--mode", "strict"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "field-rejected"
    assert err["reason"] == "norm-not-prime"


def test_order_not_free_exit_code(tmp_path, cache_dir, capsys):
    # Δ = (−11 + √5)/2 has the prime norm 29, but no w ∈ O_F has w² ≡ Δ mod 4
    field = write_field(tmp_path / "f.json", x=-11, y=1)
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert (err["error"], err["reason"]) == ("field-rejected", "order-not-free")


def test_csv_format(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "D,x,y,den,mode,m,p,b,route_a,route_b"
    assert lines[1] == "5,-13,1,2,strict,1,2,2,2,2"


def cache_files(cache_dir) -> dict:
    """Every file under the cache dir with its bytes and modification time."""
    return {f: (f.read_bytes(), f.stat().st_mtime_ns) for f in cache_dir.rglob("*") if f.is_file()}


def report_file(cache_dir, m, D=5, x=-13, y=1, den=2, mode="strict"):
    return cache_dir / "v3" / f"{D}_{x}_{y}_{den}_{mode}_{m}.json"


def test_cache_roundtrip_byte_identical(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1-2"]) == 0
    first = capsys.readouterr().out
    before = cache_files(cache_dir)
    assert set(before) == {report_file(cache_dir, 1), report_file(cache_dir, 2)}
    for f, (data, _) in before.items():
        rows = json.loads(data)
        assert rows["m"] == int(f.stem.rsplit("_", 1)[1])
        # compact rows in the code's key order, no sorted keys
        assert data == json.dumps(rows, separators=(",", ":")).encode()
        assert all(type(row) is list and len(row) == 4 for row in rows["entries"])
    assert before[report_file(cache_dir, 1)][0] == selfcheck.WORKED_ROWS.encode()
    assert cli.run(["bm", "--field", field, "--m", "1-2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert cache_files(cache_dir) == before  # cache hits add or change no file


def test_no_cache_writes_nothing(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1", "--no-cache"]) == 0
    capsys.readouterr()
    assert not cache_dir.exists()


def test_corrupt_cache_line_is_ignored(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    cold = capsys.readouterr().out
    path = report_file(cache_dir, 1)
    good = path.read_bytes()
    path.write_text("not json\n")
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    assert capsys.readouterr().out == cold
    assert path.read_bytes() == good  # recomputed and rewritten


def foreign_content(kind: str, good: str, other: str) -> bytes:
    """A cache file's content that is not the report it should hold."""
    obj = json.loads(good)
    p, b, route_b, per_n = obj["entries"][0]
    texts = {
        "empty-object": "{}",
        "array": "[]",
        "null": "null",
        "empty-file": "",
        "truncated": good[: len(good) // 2],
        "too-deep": "[" * 100_000,
        "old-cache-row": json.dumps({"key": "5|-13|1|2|strict|1", "version": 1, "report": {}}),
        "other-m": other,
        "m-as-float": json.dumps({**obj, "m": 1.0}),
        "m-as-bool": json.dumps({**obj, "m": True}),
        "extra-delta-key": json.dumps({**obj, "delta": {**obj["delta"], "z": 0}}),
        "entries-not-list": json.dumps({**obj, "entries": {}}),
        "entry-not-object": json.dumps({**obj, "entries": [1]}),
        "entry-missing-key": json.dumps({**obj, "entries": [{"p": 2, "b": 2}]}),
        "b-not-int": json.dumps({**obj, "entries": [[p, "x", route_b, per_n]]}),
        "row-wrong-length": json.dumps({**obj, "entries": [[p, b, route_b]]}),
        "p-as-bool": json.dumps({**obj, "entries": [[True, b, route_b, per_n]]}),
        "route-b-string": json.dumps({**obj, "entries": [[p, b, "inapplicable", per_n]]}),
        "per-n-odd-length": json.dumps({**obj, "entries": [[p, b, route_b, per_n[:-1]]]}),
        "per-n-string": json.dumps({**obj, "entries": [[p, b, route_b, ["x", *per_n[1:]]]]}),
        "per-n-bool": json.dumps({**obj, "entries": [[p, b, route_b, [*per_n[:-1], True]]]}),
        "flag-not-string": json.dumps({**obj, "flags": [{"a": 1}]}),
    }
    return b"\xff" + good.encode() if kind == "not-utf8" else texts[kind].encode()


FOREIGN_KINDS = [
    "empty-object", "array", "null", "empty-file", "truncated", "too-deep", "not-utf8",
    "old-cache-row", "other-m", "m-as-float", "m-as-bool", "extra-delta-key",
    "entries-not-list", "entry-not-object", "entry-missing-key", "b-not-int",
    "row-wrong-length", "p-as-bool", "route-b-string", "per-n-odd-length",
    "per-n-string", "per-n-bool", "flag-not-string",
]


@pytest.mark.parametrize("kind", FOREIGN_KINDS)
@pytest.mark.parametrize("command", ["bm", "intersect"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_foreign_cache_file_is_recomputed(tmp_path, cache_dir, capsys, kind, command, fmt):
    field = write_field(tmp_path / "f.json")
    argv = [command, "--field", field, "--m", "1", "--format", fmt]
    assert cli.run(["bm", "--field", field, "--m", "1-2"]) == 0
    capsys.readouterr()
    assert cli.run(argv + ["--no-cache"]) == 0
    cold = capsys.readouterr().out
    path = report_file(cache_dir, 1)
    good = path.read_text()
    path.write_bytes(foreign_content(kind, good, report_file(cache_dir, 2).read_text()))
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == cold
    assert path.read_text() == good  # recomputed and overwritten


def test_warm_single_m_reads_only_its_file(tmp_path, cache_dir, capsys, monkeypatch):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    cold = capsys.readouterr().out
    assert cli.run(["bm", "--field", field, "--m", "2-6"]) == 0
    capsys.readouterr()
    for m in range(2, 7):
        report_file(cache_dir, m).write_text("not json")
    (cache_dir / "reports.jsonl").write_text(
        '{"key": "5|-13|1|2|strict|1", "version": 1, "report": {}}\n'
    )
    before = cache_files(cache_dir)

    def boom(*a, **k):
        raise AssertionError("a cached m was recomputed")

    monkeypatch.setattr(cli, "report_rows", boom)
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    assert capsys.readouterr().out == cold
    assert cache_files(cache_dir) == before


@pytest.mark.parametrize("command", ["bm", "intersect"])
def test_v2_cache_file_is_neither_read_nor_removed(tmp_path, cache_dir, capsys, command):
    # a file of the previous layout, here with a b no computation gives
    field = write_field(tmp_path / "f.json")
    argv = [command, "--field", field, "--m", "1"]
    assert cli.run(argv + ["--no-cache"]) == 0
    cold = capsys.readouterr().out
    old = cache_dir / "v2" / report_file(cache_dir, 1).name
    old.parent.mkdir(parents=True)
    entry = {"p": 2, "b": 98, "route_a": 98, "route_b": 98, "per_n": [{"n": -1, "term": 98}]}
    text = json.dumps(
        {"D": 5, "delta": {"x": -13, "y": 1, "den": 2}, "mode": "strict", "m": 1,
         "entries": [entry], "flags": []},
        sort_keys=True,
    )
    old.write_text(text)
    for _ in range(2):  # cold, then warm from the v3 file
        assert cli.run(argv) == 0
        assert capsys.readouterr().out == cold
    assert old.read_text() == text
    assert set(cache_files(cache_dir)) == {old, report_file(cache_dir, 1)}


@pytest.mark.parametrize("command", ["bm", "intersect"])
def test_unwritable_cache_dir_still_prints(tmp_path, monkeypatch, capsys, command):
    field = write_field(tmp_path / "f.json")
    argv = [command, "--field", field, "--m", "1-2"]
    assert cli.run(argv + ["--no-cache"]) == 0
    want = capsys.readouterr().out
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("CMINT_CACHE_DIR", str(blocker))
    assert cli.run(argv) == 0
    out = capsys.readouterr()
    assert out.out == want and out.err == ""
    assert blocker.read_text() == ""


def test_cache_write_makes_its_version_dir(tmp_path):
    # the file is opened first and its `v3/` made only when it is missing:
    # under a fresh base, and again after it was removed between two writes
    base = tmp_path / "cache"
    head = {"D": 5, "delta": {"x": -13, "y": 1, "den": 2}, "mode": "strict"}
    for m in (1, 2):
        rows = {**head, "m": m, "flags": [], "entries": [[2, 2, 2, [-1, 2]]]}
        cache.write(base, rows)
        path = report_file(base, m)
        assert path.read_bytes() == json.dumps(rows, separators=(",", ":")).encode()
        assert [p.name for p in base.iterdir()] == ["v3"]
        shutil.rmtree(base / "v3")


def test_one_process_shares_one_parser(tmp_path, monkeypatch, capsys):
    # each command run after another in one process prints what it prints as
    # a fresh `python -m cmint.cli`, and the parser is built once
    field = write_field(tmp_path / "f.json")
    commands = [
        (["bm", "--field", field], 2, "usage: cmint bm"),  # no --m: argparse exits
        (["bm", "--field", field, "--m", "1"], 0, ""),
        (["bm", "--field", field, "--m", "1-x"], 2, '{"error": "invalid-input"'),
        (["intersect", "--field", field, "--m", "1-3", "--format", "csv"], 0, ""),
    ]
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    build, builds = cli._build_parser, []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_parser", None)
    for i, (argv, code, err) in enumerate(commands):
        monkeypatch.setenv("CMINT_CACHE_DIR", str(tmp_path / f"cache-{i}"))
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code
        got = capsys.readouterr()
        env["CMINT_CACHE_DIR"] = str(tmp_path / f"fresh-{i}")
        fresh = subprocess.run([sys.executable, "-m", "cmint.cli", *argv], env=env, capture_output=True)
        # decoded without newline translation: the CSV rows end in \r\n
        want = (fresh.returncode, fresh.stdout.decode(), fresh.stderr.decode())
        assert (rc, got.out, got.err) == want
        assert rc == code and got.err.startswith(err), argv
    assert len(builds) == 1


def test_missing_field_file(tmp_path, capsys):
    assert cli.run(["bm", "--field", str(tmp_path / "nope.json"), "--m", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "field-rejected"
    assert err["reason"] == "unreadable-field-file"


def test_malformed_field_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert cli.run(["bm", "--field", str(bad), "--m", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "malformed-field-file"
    # a D past `int`'s 4,300-digit limit, nesting past the recursion limit, not text
    big = '{"D": %s, "delta": {"x": -13, "y": 1, "den": 2}}' % ("1" * 5000)
    for raw in (big.encode(), b"[" * 100_000, b"\xff" + big.encode()):
        bad.write_bytes(raw)
        assert cli.run(["bm", "--field", str(bad), "--m", "1"]) == 2
        assert json.loads(capsys.readouterr().err)["reason"] == "malformed-field-file"
    bad.write_text(json.dumps({"D": 5, "delta": {"x": -13, "y": True, "den": 2}}))
    assert cli.run(["bm", "--field", str(bad), "--m", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "non-integer-field-data"
    bad.write_text(json.dumps({"D": 5}))
    assert cli.run(["bm", "--field", str(bad), "--m", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "missing-field-keys"


def test_rejected_field_exit_code(tmp_path, capsys):
    field = write_field(tmp_path / "r.json", x=-7)  # norm 11
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["reason"] == "norm-not-1-mod-4"
    # Δ = (0 − 2√5)/2 is −√5, named by its reduced coordinates
    field = write_field(tmp_path / "r.json", x=0, y=-2, den=2)
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["reason"], err["detail"]) == ("delta-not-totally-negative", "Δ = (0+-1√5)/1")


def test_bad_D_is_refused_as_D(tmp_path, capsys, monkeypatch):
    # a D that Q(√D) refuses gets the same slug and detail as a composite D,
    # and each is refused before anything factorizes it: the last is p·q with
    # p, q primes ≡ 1 mod 4 above 10²⁰, on which Pollard rho takes about √p steps
    def refuse(n):
        raise AssertionError(f"factorized {n}")

    monkeypatch.setattr(numutil, "factorize", refuse)
    monkeypatch.setattr(numutil, "pollard_factorize", refuse)
    pq = 100_000_000_000_000_000_129 * 100_000_000_000_000_000_193
    for D in (1, -3, 3, 7, 9, 25, 21, pq):
        field = write_field(tmp_path / "d.json", D=D)
        assert cli.run(["bm", "--field", field, "--m", "1", "--no-cache"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {
            "error": "field-rejected",
            "reason": "D-not-valid",
            "detail": f"D = {D} must be a prime ≡ 1 mod 4",
        }
    # a bad Δ over a good D keeps its slug
    assert cli.run(["bm", "--field", write_field(tmp_path / "d.json", den=3), "--m", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "invalid-delta"


def test_prime_D_is_not_trial_divided(tmp_path, capsys, monkeypatch):
    # a 13-digit prime D is proved prime, never factored: by the field's one
    # validator, and again by `QuadField`'s squarefree test
    D = 1_000_000_000_061
    factored, proved = [], []

    def counting(real, calls):
        def wrapper(n):
            calls.append(n)
            return real(n)

        return wrapper

    monkeypatch.setattr(numutil, "factorize", counting(numutil.factorize, factored))
    monkeypatch.setattr(numutil, "pollard_factorize", counting(numutil.pollard_factorize, factored))
    is_prime = counting(numutil.is_prime, proved)
    for mod in (cli, cmfield, numutil, quadfield):
        if hasattr(mod, "is_prime"):
            monkeypatch.setattr(mod, "is_prime", is_prime)
    # Δ = −1,000,001 + √D has norm ≡ 0 mod 4 and is refused
    field = write_field(tmp_path / "big.json", D=D, x=-1_000_001, y=1, den=1)
    assert cli.run(["bm", "--field", field, "--m", "1", "--no-cache"]) == 2
    assert json.loads(capsys.readouterr().err)["reason"] == "norm-not-1-mod-4"
    assert factored == []
    # Δ = (−1,000,009 + √D)/2 is accepted; its composite D̃ is still factored
    factored.clear()
    proved.clear()
    cmfield._build_cached.cache_clear()
    path = write_field(tmp_path / "ok.json", D=D, x=-1_000_009, y=1, den=2, mode="permissive")
    assert cli.load_field(path).dtilde == 4_500_005
    assert 4_500_005 in factored
    assert not [n for n in factored if n % D == 0], factored
    assert proved.count(D) <= 2, proved


def test_bad_m_specification(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "3-1"]) == 2
    assert cli.run(["bm", "--field", field, "--m", "x"]) == 2
    assert cli.run(["bm", "--field", field, "--m", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["{big}", "1-{big}", "2,{big}-{big}"])
@pytest.mark.parametrize("command", ["bm", "intersect"])
def test_m_past_the_int_digit_limit_is_refused(tmp_path, cache_dir, capsys, command, spec):
    # 5,000 digits is past `int`'s 4,300-digit limit, so no m of it is ever computed
    field = write_field(tmp_path / "f.json")
    text = spec.format(big="7" * 5000)
    assert cli.run([command, "--field", field, "--m", text]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    err = json.loads(out.err)
    assert err["error"] == "invalid-input" and err["detail"].startswith("bad m specification: '")
    assert cache_files(cache_dir) == {}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["bm", "intersect"])
def test_internal_error_exit_code(tmp_path, cache_dir, capsys, monkeypatch, command, fmt):
    # a failing m prints nothing, and the reports of the m before it stay cached
    field = write_field(tmp_path / "f.json")
    real = cli.report_rows

    def boom(f, m):
        if m == 3:
            raise InternalConsistencyError("routes disagree somewhere")
        return real(f, m)

    monkeypatch.setattr(cli, "report_rows", boom)
    assert cli.run([command, "--field", field, "--m", "1-3", "--format", fmt]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    assert json.loads(out.err) == {
        "error": "internal-consistency",
        "detail": "routes disagree somewhere",
    }
    assert set(cache_files(cache_dir)) == {report_file(cache_dir, 1), report_file(cache_dir, 2)}


@pytest.mark.parametrize(
    "command", [["intersect"], ["bm", "--format", "csv"]], ids=["intersect", "bm-csv"]
)
def test_one_report_alive_at_a_time(tmp_path, capsys, monkeypatch, command):
    # the consumer's current report and the new one, never the whole range
    class Report(dict):
        __hash__ = object.__hash__  # weakly settable, by identity
        __eq__ = object.__eq__

    alive = weakref.WeakSet()
    most = []
    real = cli.report_rows

    def tracked(field, m):
        rows = Report(real(field, m))
        alive.add(rows)
        most.append(len(alive))
        return rows

    monkeypatch.setattr(cli, "report_rows", tracked)
    field = write_field(tmp_path / "f.json")
    assert cli.run([*command, "--field", field, "--m", "1-6", "--no-cache"]) == 0
    assert capsys.readouterr().out
    assert len(most) == 6 and max(most) <= 2, most


def test_range_builds_no_bm_entry(tmp_path, capsys, monkeypatch):
    # the CLI computes each m's rows directly, never the library's entry objects
    built = []
    real = BmEntry.__init__

    def counting(self, *args):
        built.append(args[0])
        real(self, *args)

    monkeypatch.setattr(BmEntry, "__init__", counting)
    path = write_field(tmp_path / "f.json", D=13, x=-21, y=-2, den=1)
    assert cli.run(["intersect", "--field", path, "--m", "1-10", "--no-cache"]) == 0
    assert capsys.readouterr().out
    assert built == []
    # the count sees an entry the library builds
    assert bm_report(cli.load_field(path), 10).entries and built


def test_humbert_command(tmp_path, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["humbert", "--field", field, "--m", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["humbert_intersection"] == {"2": 1}
    assert cli.run(["humbert", "--field", field, "--m", "5"]) == 2
    capsys.readouterr()


def test_badprimes_and_igusa_commands(tmp_path, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["badprimes", "--field", field]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["bad_primes"] == [2]
    assert payload["bound"] == "205/64"
    assert payload["indices"] == [1]
    assert payload["per_prime"] == {"2": 2}
    assert cli.run(["igusa", "--field", field]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["A1"] == {"2": 12}
    assert payload["A2"] == payload["A3"] == {"2": 8}


SMALL_CHECKS = [
    "worked-instance", "cyclotomic-vanishing", "t-matrix-laws", "route-agreement",
    "cache-roundtrip",
]


def test_selfcheck_small(capsys):
    assert cli.run(["selfcheck", "--suite", "small"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert [c["name"] for c in payload["checks"]] == SMALL_CHECKS


def test_selfcheck_suite_layout():
    # the wide checks run at full scale in the acceptance tests, so the full
    # suite's names and order are read off the table run_suite walks
    assert [name for name, _ in selfcheck.SUITES["small"]] == SMALL_CHECKS
    full = SMALL_CHECKS + ["route-agreement-wide", "vanishing-range"]
    assert [name for name, _ in selfcheck.SUITES["full"]] == full


def test_selfcheck_reports_route_disagreement(monkeypatch, capsys):
    real = selfcheck.bm_report

    def skewed(field, m):
        rep = real(field, m)
        bumped = [BmEntry(e.p, e.b, e.route_a + 1, e.route_b, e.per_n) for e in rep.entries]
        return BmReport(rep.field, rep.m, tuple(bumped), rep.flags)

    monkeypatch.setattr(selfcheck, "bm_report", skewed)
    assert cli.run(["selfcheck", "--suite", "small"]) == 3
    out = capsys.readouterr()
    assert out.err == ""
    checks = {c["name"]: c for c in json.loads(out.out)["checks"]}
    assert checks["route-agreement"]["ok"] is False
    assert "route disagreement" in checks["route-agreement"]["detail"]


GOLDEN_FIELDS = {
    "389": {"D": 13, "x": -21, "y": -2, "den": 1},  # D̃ = 389, strict
    "permissive": {"x": -25, "y": -3, "mode": "permissive"},  # D̃ = 145
    "worked": {},
}

GOLDEN_COMMANDS = {
    "bm-json": ["bm", "--m", "1-40", "--no-cache"],
    "bm-csv": ["bm", "--m", "1-40", "--no-cache", "--format", "csv"],
    "intersect-json": ["intersect", "--m", "1-40", "--no-cache"],
    "intersect-csv": ["intersect", "--m", "1-40", "--no-cache", "--format", "csv"],
    "humbert-7": ["humbert", "--m", "7"],
    "humbert-4": ["humbert", "--m", "4"],
    "badprimes": ["badprimes"],
    "igusa": ["igusa"],
}

# SHA-256 of stdout; each of these exits 0 with nothing on stderr
GOLDEN = {
    ("389", "bm-json"):
        "ac0e81e59d8bddf7026fae0f1417bc2490803bde79945a07d458b3014c5cfb86",
    ("389", "bm-csv"):
        "95169502e440140535685eaf2da3fed9ead0a292c94ba5ddbfec561ddd7b485e",
    ("389", "intersect-json"):
        "1f68f99138acca3f90c0fb77641d67a51c0460c8127448fe4a605c8a432a1269",
    ("389", "intersect-csv"):
        "de1326f5e5fec900e9e0f9fb62be4804ea732e31635398b31989fcf6fa56b113",
    ("389", "humbert-7"):
        "01c7435e91b311bb1fdbfd85bd4d10324699ceff58d77f5212780d528ff29308",
    ("389", "humbert-4"):
        "7475ccc8dd3e8b86615dc1eedb094869a8d629c3cc82521348a3782156aeb9f6",
    ("389", "badprimes"):
        "cd2b23c931432d0ffbf1ecb0a2800de0ec4d4badba3e9bce37bb5b515fb3429d",
    ("389", "igusa"):
        "7f04d646e93e1f78423bf87c5ba4b1706c9642b8d3805c9244faeed256557014",
    ("permissive", "bm-json"):
        "6b035a15a83d663e8767e15e9308e28e8c5c6023186adeaa69e786d9683f159b",
    ("permissive", "bm-csv"):
        "0e5d1276ef59963b3eb8a8703cfcf2fe091d3aea9cb880b6e01dd94a40735db1",
    ("permissive", "intersect-json"):
        "53918dbf13e021a2c085c4dc6ffa89fabdf7c8578466909c0489da30f1c78ce9",
    ("permissive", "intersect-csv"):
        "5541c3616541a897c2a3932a40fb76730d635d783ad7e752429af5bd026cf9bb",
    ("permissive", "humbert-7"):
        "6c60237794c671328f2542192e179778ec8ec2a66be534e2804c18993ad149f4",
    ("permissive", "humbert-4"):
        "3755df9057b79c1e6dc63b3fc2e26c2ef317a2fa8c6647d35fcc00ae2887c31e",
    ("worked", "bm-json"):
        "0dd4c518e8695faa5aaa7ec3ad4c938b8da423a6a7c0db6e20a5f9bb2d1523c7",
    ("worked", "bm-csv"):
        "3ae4d2604fd07761eebe0f66a93db2c0db6d7ad7769809aa975379c43d811ffc",
    ("worked", "intersect-json"):
        "33f2478bfd6ec29cce5976f357dbc0d4f617c74df5595b4572ce21ff9222b1bb",
    ("worked", "intersect-csv"):
        "56ef95b4d1be49956f1b308a6a88edc41b65eed2131254d7b2510f99ae9a12e5",
    ("worked", "humbert-7"):
        "ecca059468ad873fe755756832bb458873d89b43583e332b58ed821bcf7e23e5",
    ("worked", "humbert-4"):
        "b3b3682e131e558549fbb76057c96221eb6f6d18b544088f51b472fad4001ca2",
    ("worked", "badprimes"):
        "c0322898bcd6a46e2224d4f0289a9a40f4851a1ea162d3beaeb2056fa403fa23",
    ("worked", "igusa"):
        "3eb8b81defe7cd1e27be4d8cb138ee1166c55a3dca4cecbe4c6bafef287fdbad",
}

# the strict-only commands refuse the permissive field: exit 2, no stdout
REFUSED = {
    ("permissive", "badprimes"): "bad-reduction certificates require strict mode",
    ("permissive", "igusa"): "denominator bounds require strict mode",
}


def golden_digests(tmp_path, capsys) -> dict:
    """Run every golden command on every golden field; the stdout digests."""
    out = {}
    for fname, spec in GOLDEN_FIELDS.items():
        field = write_field(tmp_path / f"{fname}.json", **spec)
        for cname, (command, *rest) in GOLDEN_COMMANDS.items():
            rc = cli.run([command, "--field", field, *rest])
            cap = capsys.readouterr()
            if (fname, cname) in REFUSED:
                err = {"error": "invalid-input", "detail": REFUSED[fname, cname]}
                assert (rc, cap.out, cap.err) == (2, "", json.dumps(err) + "\n")
            else:
                assert (rc, cap.err) == (0, ""), (fname, cname)
                out[fname, cname] = hashlib.sha256(cap.out.encode()).hexdigest()
    return out


def test_golden_output_bytes(tmp_path, cache_dir, capsys):
    # pins every byte the commands print: indentation, key order, CSV line
    # ends and exact halves ("b/2")
    assert golden_digests(tmp_path, capsys) == GOLDEN


def test_intersect_halves_any_cached_entries(tmp_path, cache_dir, capsys):
    # a file cache.read accepts may hold entries no computation gives: primes
    # out of order, a repeated prime (the last one counts), zeros and odd b
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    capsys.readouterr()
    path = report_file(cache_dir, 1)
    obj = json.loads(path.read_text())
    _, _, route_b, per_n = obj["entries"][0]
    pairs = ((11, 3), (2, 5), (3, 0), (2, 7), (5, -1))
    path.write_text(json.dumps({**obj, "entries": [[p, b, route_b, per_n] for p, b in pairs]}))
    assert cli.run(["intersect", "--field", field, "--m", "1"]) == 0
    out = capsys.readouterr().out
    assert '"11": "3/2",\n        "2": "7/2",\n        "5": "-1/2"' in out
    assert cli.run(["intersect", "--field", field, "--m", "1", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "5,-13,1,2,strict,1,2,7/2",
        "5,-13,1,2,strict,1,5,-1/2",
        "5,-13,1,2,strict,1,11,3/2",
    ]
