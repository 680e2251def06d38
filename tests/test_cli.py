import json
import time

import pytest

import cmint.cli as cli
from cmint.errors import InternalConsistencyError


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
    payload = json.loads(capsys.readouterr().out)
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
    assert cli.parse_m_values("3,1-4,2") == [3, 1, 2, 4]


def test_parse_m_values_long_range_is_fast():
    start = time.perf_counter()
    vals = cli.parse_m_values("1-32000,5,31990-32005")
    elapsed = time.perf_counter() - start
    assert vals == list(range(1, 32006))
    assert elapsed < 0.5, f"parsing took {elapsed:.2f}s"


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
    return cache_dir / "v2" / f"{D}_{x}_{y}_{den}_{mode}_{m}.json"


def test_cache_roundtrip_byte_identical(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "1-2"]) == 0
    first = capsys.readouterr().out
    before = cache_files(cache_dir)
    assert set(before) == {report_file(cache_dir, 1), report_file(cache_dir, 2)}
    for f, (data, _) in before.items():
        assert json.loads(data)["m"] == int(f.stem.rsplit("_", 1)[1])
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
    entry = obj["entries"][0]
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
        "b-not-int": json.dumps({**obj, "entries": [{**entry, "b": "x"}]}),
    }
    return b"\xff" + good.encode() if kind == "not-utf8" else texts[kind].encode()


FOREIGN_KINDS = [
    "empty-object", "array", "null", "empty-file", "truncated", "too-deep", "not-utf8",
    "old-cache-row", "other-m", "m-as-float", "m-as-bool", "extra-delta-key",
    "entries-not-list", "entry-not-object", "entry-missing-key", "b-not-int",
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

    monkeypatch.setattr(cli, "bm_report", boom)
    assert cli.run(["bm", "--field", field, "--m", "1"]) == 0
    assert capsys.readouterr().out == cold
    assert cache_files(cache_dir) == before


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


def test_bad_m_specification(tmp_path, cache_dir, capsys):
    field = write_field(tmp_path / "f.json")
    assert cli.run(["bm", "--field", field, "--m", "3-1"]) == 2
    assert cli.run(["bm", "--field", field, "--m", "x"]) == 2
    assert cli.run(["bm", "--field", field, "--m", "0"]) == 2
    capsys.readouterr()


def test_internal_error_exit_code(tmp_path, cache_dir, capsys, monkeypatch):
    field = write_field(tmp_path / "f.json")

    def boom(*a, **k):
        raise InternalConsistencyError("routes disagree somewhere")

    monkeypatch.setattr(cli, "bm_report", boom)
    assert cli.run(["bm", "--field", field, "--m", "1", "--no-cache"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "internal-consistency"


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


def test_selfcheck_small(capsys):
    assert cli.run(["selfcheck", "--suite", "small"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "worked-instance" in names and "route-agreement" in names
