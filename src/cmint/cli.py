"""Command line interface."""

from __future__ import annotations

import argparse
import json
import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from pathlib import Path

from . import cache
from .bm import field_header, report_json_obj, report_rows
from .cmfield import CMFieldData, _build_cached
from .errors import FieldRejected, InputError, InternalConsistencyError

_RANGE = re.compile(r"^(\d+)(?:-(\d+))?$")


def parse_m_values(text: str) -> Iterator[int]:
    """The m of `text` ('3', '1-10' or '1,3,9-12'), each once, in first-occurrence order.

    Every part is checked here, so a bad spec fails before any m is yielded;
    the m themselves are then yielded lazily from the parsed (lo, hi) pairs.
    """
    pairs = []
    for part in text.split(","):
        bad = InputError(f"bad m specification: {part.strip()!r}")
        mobj = _RANGE.match(part.strip())
        if not mobj:
            raise bad
        try:
            lo = int(mobj.group(1))
            hi = int(mobj.group(2)) if mobj.group(2) else lo
        except ValueError:  # more digits than `int` converts (4,300)
            raise bad from None
        if lo < 1 or hi < lo:
            raise bad
        pairs.append((lo, hi))
    return _first_occurrences(pairs)


def _first_occurrences(pairs: list[tuple[int, int]]) -> Iterator[int]:
    # `seen` holds the union of the earlier pairs as sorted half-open bounds
    # [a0, b0, a1, b1, ...]: m is covered when an odd number of them are <= m
    seen: list[int] = []
    for lo, hi in pairs:
        m = lo
        while m <= hi:
            i = bisect_right(seen, m)
            if i % 2:  # m lies in [seen[i - 1], seen[i]): skip to its end
                m = seen[i]
                continue
            stop = min(hi + 1, seen[i]) if i < len(seen) else hi + 1
            yield from range(m, stop)
            m = stop
        i, j = bisect_left(seen, lo), bisect_right(seen, hi + 1)
        seen[i:j] = [b for b, k in ((lo, i), (hi + 1, j)) if k % 2 == 0]


def load_field(path: str, mode_override: str | None = None) -> CMFieldData:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise FieldRejected("unreadable-field-file", str(exc)) from exc
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # not JSON, not text, too deep, too many digits
        raise FieldRejected("malformed-field-file", str(exc)) from exc
    if not isinstance(data, dict):
        raise FieldRejected("malformed-field-file", "top level must be a JSON object")
    if "D" not in data or "delta" not in data:
        raise FieldRejected("missing-field-keys", "need D and delta")
    delta = data["delta"]
    if not isinstance(delta, dict) or {"x", "y", "den"} - delta.keys():
        raise FieldRejected("malformed-delta", "delta needs keys x, y, den")
    vals = [data["D"], delta["x"], delta["y"], delta["den"]]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in vals):
        raise FieldRejected("non-integer-field-data", repr(vals))
    mode = mode_override or data.get("mode", "strict")
    if mode not in ("strict", "permissive"):
        raise FieldRejected("bad-mode", str(mode))
    # the field's one validator checks D, Δ and its norm, in its fixed order of slugs
    return _build_cached(*vals, mode)


def _report_rows(field: CMFieldData, ms: Iterable[int], use_cache: bool) -> Iterator[dict]:
    """Each m's report rows (`report_rows`) in turn, read from the cache or computed and stored."""
    base = cache.cache_dir()
    for m in ms:
        rows = cache.read(base, {**field_header(field), "m": m}) if use_cache else None
        if rows is None:
            rows = report_rows(field, m)
            if use_cache:
                cache.write(base, rows)
        yield rows


def _json_text(payload: dict, field: CMFieldData | None) -> str:
    """A command's JSON; one about a permissive `field` is marked conjectural."""
    if field is not None and field.mode == "permissive":
        payload["conjectural"] = True
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_json(payload: dict, field: CMFieldData | None = None) -> None:
    print(_json_text(payload, field))


def _write_csv(field: CMFieldData, columns: tuple[str, ...], rows) -> None:
    """CSV rows (m, *columns) about `field`, each after its D,x,y,den,mode."""
    import csv  # only CSV output needs it

    d = field.delta
    head = [field.D, d.x, d.y, d.den, field.mode]
    w = csv.writer(sys.stdout)
    w.writerow(["D", "x", "y", "den", "mode", "m", *columns])
    w.writerows([*head, *row] for row in rows)


def _cmd_bm(args) -> int:
    field = load_field(args.field, args.mode)
    reports = _report_rows(field, parse_m_values(args.m), not args.no_cache)
    if args.format == "csv":
        # every row is built before the first is written, so a failing m prints nothing;
        # route (a) is b, and a route (b) that does not apply prints as "inapplicable"
        rows = [
            (rep["m"], p, b, b, "inapplicable" if route_b is None else route_b)
            for rep in reports
            for p, b, route_b, _ in rep["entries"]
        ]
        _write_csv(field, ("p", "b", "route_a", "route_b"), rows)
    else:
        # each report is held as its text, indented as it sits in the document, not
        # as a dict, and all are built before the first is printed; the document
        # around them is that of one stand-in report, whose line they take
        texts = []
        for rep in reports:
            text = json.dumps(report_json_obj(rep), indent=2, sort_keys=True)
            texts.append("    " + text.replace("\n", "\n    "))
        head, tail = _json_text({"reports": [0]}, field).split("\n    0\n")
        print(head)
        print(*texts, sep=",\n")
        print(tail)
    return 0


def _cmd_intersect(args) -> int:
    field = load_field(args.field, args.mode)
    results = []
    for rep in _report_rows(field, parse_m_values(args.m), not args.no_cache):
        bs = {p: b for p, b, _, _ in rep["entries"]}  # a repeated p: the last one counts
        # ½·b exactly, as `rational_json` writes it: b // 2, or "b/2" when b is odd
        half = {str(p): b // 2 if b % 2 == 0 else f"{b}/2" for p, b in sorted(bs.items()) if b}
        results.append({"m": rep["m"], "intersection": half})
    if args.format == "csv":
        rows = ((r["m"], p, c) for r in results for p, c in r["intersection"].items())
        _write_csv(field, ("p", "coefficient"), rows)
    else:
        _print_json({**field_header(field), "results": results}, field)
    return 0


def _cmd_humbert(args) -> int:
    from .applications import humbert_intersection  # a cache hit never runs the applications

    field = load_field(args.field, args.mode)
    combo = humbert_intersection(field, args.m)
    payload = {**field_header(field), "m": args.m, "humbert_intersection": combo.json_obj()}
    _print_json(payload, field)
    return 0


def _cmd_badprimes(args) -> int:
    from .applications import bad_reduction_primes
    from .logcombo import rational_json

    field = load_field(args.field, args.mode)
    cert = bad_reduction_primes(field)
    payload = {
        **field_header(field),
        "indices": list(cert.indices),
        "per_prime": {str(l): c for l, c in cert.per_prime},
        "bad_primes": list(cert.bad_primes),
        "bound": rational_json(cert.bound),
    }
    _print_json(payload, field)
    return 0


def _cmd_igusa(args) -> int:
    from .applications import igusa_denominator_bounds

    field = load_field(args.field, args.mode)
    bounds = igusa_denominator_bounds(field)
    payload = field_header(field)
    for name, exps in bounds.items():
        payload[name] = {str(p): e for p, e in sorted(exps.items())}
    _print_json(payload, field)
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_suite  # only this command needs the suites

    results = run_suite(args.suite)
    payload = {
        "suite": args.suite,
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in results],
        "ok": all(ok for _, ok, _ in results),
    }
    _print_json(payload)
    return 0 if payload["ok"] else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmint",
        description="Exact intersection multiplicities of modular divisors with quartic CM cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def field_opts(sp):
        sp.add_argument("--field", required=True, help="path to a field description JSON file")
        sp.add_argument(
            "--mode",
            choices=("strict", "permissive"),
            default=None,
            help="override the mode recorded in the field file",
        )

    for name, handler, text in (
        ("bm", _cmd_bm, "multiplicities b_m(p) with per-n breakdown"),
        ("intersect", _cmd_intersect, "arithmetic intersection numbers ½·b_m"),
    ):
        sp = sub.add_parser(name, help=text)
        field_opts(sp)
        sp.add_argument("--m", required=True, help="m values: '3', '1-10', or '1,3,9-12'")
        sp.add_argument("--no-cache", action="store_true", help="skip the result cache")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.set_defaults(handler=handler)

    sp = sub.add_parser("humbert", help="intersection with the m-th Humbert surface")
    field_opts(sp)
    sp.add_argument("--m", required=True, type=int)
    sp.set_defaults(handler=_cmd_humbert)

    sp = sub.add_parser("badprimes", help="certified bad-reduction primes")
    field_opts(sp)
    sp.set_defaults(handler=_cmd_badprimes)

    sp = sub.add_parser("igusa", help="denominator exponent bounds at the CM point")
    field_opts(sp)
    sp.set_defaults(handler=_cmd_igusa)

    sp = sub.add_parser("selfcheck", help="run the built-in consistency suite")
    sp.add_argument("--suite", choices=("small", "full"), default="small")
    sp.set_defaults(handler=_cmd_selfcheck)

    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first `run`, shared by the rest


def run(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args)
    except FieldRejected as exc:
        print(
            json.dumps({"error": "field-rejected", "reason": exc.reason, "detail": exc.detail}),
            file=sys.stderr,
        )
        return 2
    except InputError as exc:
        print(json.dumps({"error": "invalid-input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except InternalConsistencyError as exc:
        print(json.dumps({"error": "internal-consistency", "detail": str(exc)}), file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
