"""Command line interface."""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import cache
from .applications import (
    bad_reduction_primes,
    humbert_intersection,
    igusa_denominator_bounds,
)
from .bm import bm_report, report_json_obj
from .cmfield import CMFieldData, build_cm_field
from .errors import FieldRejected, InputError, InternalConsistencyError
from .logcombo import LogCombo
from .quadfield import QuadElem, QuadField
from .selfcheck import run_suite

_RANGE = re.compile(r"^(\d+)(?:-(\d+))?$")


def parse_m_values(text: str) -> list[int]:
    vals: dict[int, None] = {}  # ordered set: the first occurrence keeps its place
    for part in text.split(","):
        mobj = _RANGE.match(part.strip())
        if not mobj:
            raise InputError(f"bad m specification: {part.strip()!r}")
        lo = int(mobj.group(1))
        hi = int(mobj.group(2)) if mobj.group(2) else lo
        if lo < 1 or hi < lo:
            raise InputError(f"bad m specification: {part.strip()!r}")
        vals.update(dict.fromkeys(range(lo, hi + 1)))
    return list(vals)


def load_field(path: str, mode_override: str | None = None) -> CMFieldData:
    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise FieldRejected("unreadable-field-file", str(exc)) from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
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
    D, x, y, den = vals
    try:
        elem = QuadElem(QuadField(D), x, y, den)
    except InputError as exc:
        raise FieldRejected("invalid-delta", str(exc)) from exc
    return build_cm_field(D, elem, mode)


def _field_obj(field: CMFieldData) -> dict:
    return {
        "D": field.D,
        "delta": {"x": field.delta.x, "y": field.delta.y, "den": field.delta.den},
        "mode": field.mode,
    }


def _frac_json(x: Fraction) -> int | str:
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _report_objs(field: CMFieldData, ms: list[int], use_cache: bool) -> list[dict]:
    base = cache.cache_dir()
    out = []
    for m in ms:
        obj = cache.read(base, {**_field_obj(field), "m": m}) if use_cache else None
        if obj is None:
            obj = report_json_obj(bm_report(field, m))
            if use_cache:
                cache.write(base, obj)
        out.append(obj)
    return out


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_bm(args) -> int:
    field = load_field(args.field, args.mode)
    reports = _report_objs(field, parse_m_values(args.m), not args.no_cache)
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["D", "x", "y", "den", "mode", "m", "p", "b", "route_a", "route_b"])
        for obj in reports:
            d = obj["delta"]
            for e in obj["entries"]:
                w.writerow(
                    [obj["D"], d["x"], d["y"], d["den"], obj["mode"], obj["m"],
                     e["p"], e["b"], e["route_a"], e["route_b"]]
                )
        return 0
    payload = {"reports": reports}
    if field.mode == "permissive":
        payload["conjectural"] = True
    _print_json(payload)
    return 0


def _cmd_intersect(args) -> int:
    field = load_field(args.field, args.mode)
    results = []
    for obj in _report_objs(field, parse_m_values(args.m), not args.no_cache):
        combo = LogCombo.from_dict({e["p"]: e["b"] for e in obj["entries"]})
        results.append({"m": obj["m"], "intersection": combo.scaled(Fraction(1, 2)).json_obj()})
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["D", "x", "y", "den", "mode", "m", "p", "coefficient"])
        d = _field_obj(field)
        for row in results:
            for p, c in sorted(row["intersection"].items(), key=lambda kv: int(kv[0])):
                w.writerow(
                    [d["D"], d["delta"]["x"], d["delta"]["y"], d["delta"]["den"],
                     d["mode"], row["m"], p, c]
                )
        return 0
    payload = _field_obj(field)
    payload["results"] = results
    if field.mode == "permissive":
        payload["conjectural"] = True
    _print_json(payload)
    return 0


def _cmd_humbert(args) -> int:
    field = load_field(args.field, args.mode)
    combo = humbert_intersection(field, args.m)
    payload = _field_obj(field)
    payload["m"] = args.m
    payload["humbert_intersection"] = combo.json_obj()
    if field.mode == "permissive":
        payload["conjectural"] = True
    _print_json(payload)
    return 0


def _cmd_badprimes(args) -> int:
    field = load_field(args.field, args.mode)
    cert = bad_reduction_primes(field)
    payload = _field_obj(field)
    payload["indices"] = list(cert.indices)
    payload["per_prime"] = {str(l): c for l, c in cert.per_prime}
    payload["bad_primes"] = list(cert.bad_primes)
    payload["bound"] = _frac_json(cert.bound)
    _print_json(payload)
    return 0


def _cmd_igusa(args) -> int:
    field = load_field(args.field, args.mode)
    bounds = igusa_denominator_bounds(field)
    payload = _field_obj(field)
    for name, exps in bounds.items():
        payload[name] = {str(p): e for p, e in sorted(exps.items())}
    _print_json(payload)
    return 0


def _cmd_selfcheck(args) -> int:
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

    sp = sub.add_parser("bm", help="multiplicities b_m(p) with per-n breakdown")
    field_opts(sp)
    sp.add_argument("--m", required=True, help="m values: '3', '1-10', or '1,3,9-12'")
    sp.add_argument("--no-cache", action="store_true", help="skip the result cache")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_bm)

    sp = sub.add_parser("intersect", help="arithmetic intersection numbers ½·b_m")
    field_opts(sp)
    sp.add_argument("--m", required=True, help="m values: '3', '1-10', or '1,3,9-12'")
    sp.add_argument("--no-cache", action="store_true", help="skip the result cache")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.set_defaults(handler=_cmd_intersect)

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


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
