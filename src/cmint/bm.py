"""The multiplicities b_m(p) by two independent routes.

Route (a) is the definitional ideal count: sum over signed n with
t = (n + m√D̃)/(2D) in the inverse relative different, of local terms at the
non-split spots over p; it decides membership at the primes dividing 2D first,
from v_l(m²D̃ − n²), and reads the other spot valuations off the factorization
of (m²D̃ − n²)/(4D). At a prime of that factorization prime to D·m·D̃·norm(Δ̃),
where Δ̃ is a unit, the one spot's kind in K̃ is one quadratic character.
Route (b) is the closed product formula over primes dividing (m²D̃ − n²)/(4D),
valid for squarefree m coprime to 2DD̃p. Each route is one scan over n per m
that yields every prime's value, and every scan walks only the residue classes
of n with 4D | m²D̃ − n² (`_roots_mod`). The routes share only that range of n
and the m's factor table (`_factor_table`), which factors every
(m²D̃ − n²)/4D with one sieve; `report_rows` builds it once per m and hands
it to route (a), the support primes and route (b). Whenever route (b) applies,
the two are compared and a mismatch is a hard error. Route (b) multiplies
the factors of each matrix T once and serves every prime from that product.

No spot row is memoized: route (a) reads the rows over 2 and D off the field
and fetches those over the other primes of m·D̃·norm(Δ̃) with `spot_kinds`
once per scan, and route (b) evaluates its factor at each l | m with t_l = 0,
which no T changes, once per scan.

`report_rows` returns the report as rows, the one shape of a report: the
cache stores it, the CLI prints from it and the library reads it.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, isqrt

from .cmfield import CMFieldData, spot_kinds
from .errors import InputError, InternalConsistencyError
from .localdensity import _reflex_split_factor, b_l_factors
from .numutil import (
    TRIAL_LIMIT,
    is_squarefree,
    pollard_factorize,
    primes_up_to,
    sqrts_mod_prime,
)
from .quadfield import split_ord
from .tmatrix import admissible_matrices


def _roots_mod(a: int, div: int) -> list[int]:
    """The roots of n² ≡ a (mod div) in [0, div), ascending.

    div = 2^k·q with k <= 2 and q 1 or an odd prime, as every caller's 4D is:
    the roots mod 2^k come from a scan of at most 4 residues, those mod q from
    `sqrts_mod_prime`, and CRT joins them.
    """
    two = div & -div
    q = div // two
    roots = [r for r in range(two) if (a - r * r) % two == 0]
    if q > 1:
        inv = pow(two, -1, q)
        roots = sorted(r + two * ((s - r) * inv % q) for r in roots for s in sqrts_mod_prime(a, q))
    return roots


def _factor_table(m2dt: int, div: int) -> dict[int, tuple[tuple[int, int], ...]]:
    """`factorize((m2dt − n²)/div)` for every admissible 0 <= n < √m2dt, by n.

    One polynomial-value sieve over the n in the classes of `_roots_mod`. A
    prime l ∤ div divides the quotient exactly when n ≡ ±√m2dt (mod l), which
    within the class n ≡ r (mod div) is one class of n // div mod l (CRT), so
    it is divided out along an arithmetic progression of the list. A prime
    l | div is tried on every value. Every prime up to the bound is divided out, so a
    cofactor below (bound + 1)² is 1 or prime; a larger one needs the bound
    at its limit, so it has no prime factor up to the limit and goes straight
    to `pollard_factorize`.
    """
    roots = _roots_mod(m2dt, div)
    nmax = isqrt(m2dt - 1)
    # n = r_j + div·k sits at k·width + j, r_j the j-th root
    width = len(roots)
    ns = [base + r for base in range(0, nmax + 1, div) for r in roots if base + r <= nmax]
    rest = [(m2dt - n * n) // div for n in ns]
    facs: list[list[tuple[int, int]]] = [[] for _ in ns]
    size = len(ns)
    bound = min(isqrt(m2dt // div), TRIAL_LIMIT)
    for l in primes_up_to(bound):
        if div % l == 0:
            starts, step = (0,), 1
        else:
            sqrts = sqrts_mod_prime(m2dt, l)
            if not sqrts:
                continue
            inv = pow(div, -1, l)
            starts = [(s - r) * inv % l * width + j for j, r in enumerate(roots) for s in sqrts]
            step = l * width
        for start in starts:
            for i in range(start, size, step):
                c = rest[i]
                if c % l:
                    continue  # only when l | div
                c //= l
                e = 1
                while c % l == 0:
                    c //= l
                    e += 1
                rest[i] = c
                facs[i].append((l, e))
    top = (bound + 1) ** 2
    for c, fac in zip(rest, facs):
        if c >= top:
            fac.extend(pollard_factorize(c))
        elif c > 1:
            fac.append((c, 1))
    return dict(zip(ns, map(tuple, facs)))


def _spot_exps(vec: list, n: int, m: int, l: int, vl: int, rows) -> bool:
    """Append (l, kind in K̃, exponent, e_𝔡, f) for each spot over l where t·𝔡,
    t = (n + m√D̃)/2D, has a nonzero exponent; False if one is negative. Needs
    vl = v_l(m²D̃ − n²) and the rows of `spot_kinds(field, l)`. The two split
    spots' valuations add up to vl, so the second is vl minus the first."""
    v = None
    for spot, kind, kind_f, shift, rel, f, _ in rows:
        if not vl:
            v = 0
        elif kind_f == "ramified":
            v = vl
        elif kind_f == "inert":
            if vl % 2:
                raise InternalConsistencyError("odd norm valuation at an inert spot")
            v = vl // 2
        else:
            v = split_ord(n, m, spot, vl) if v is None else vl - v
        exp = v + shift
        if exp < 0:
            return False
        if exp:
            vec.append((l, kind, exp, rel, f))
    return True


def _unit_spot_kind(x: int, y: int, n: int, m: int, l: int) -> str:
    """The kind in K̃ of the spot over l where √D̃ ≡ −n/m, for an odd prime
    l ∤ m·norm(Δ̃), Δ̃ = x + y√D̃: "split" when the unit x − y·n/m, times the
    square m², is a square mod l (Euler's criterion), else "inert"."""
    return "split" if pow((x * m - y * n) * m, l >> 1, l) == 1 else "inert"


def _candidate_n(field: CMFieldData, m: int, table: dict) -> list[int]:
    """The admissible signed n, ascending, that can pass membership at D.

    `table` is the m's factor table, keyed by the admissible n >= 0; the spot
    rows over D are the field's.
    Admissibility depends on n² only, so the n < 0 are their negatives.

    When D ∤ m and D splits in F̃, D | m²D̃ − n² puts n + m√D̃ in exactly one
    spot over D, the one whose label L has n ≡ −m·L (mod D), with valuation
    ≥ 1 there and 0 at the other. The one spot over D outside the different
    has a negative shift (−1), so n must lie in its class; were both outside,
    as only a hand-built field has it, the check at D rejects that class too.
    Otherwise every admissible n is returned, to be checked one by one.
    """
    D = field.D
    keys = list(table)
    ns = [-k for k in reversed(keys) if k] + keys
    rows = field.rows_d
    neg = [label for _, _, kind_f, shift, _, _, label in rows if kind_f == "split" and shift < 0]
    if m % D == 0 or not neg:
        return ns
    c = -m * neg[0] % D
    return [n for n in ns if n % D == c]


def _route_a(
    field: CMFieldData, m: int, table: dict
) -> tuple[dict[int, list[tuple[int, int]]], tuple[str, ...]]:
    """One scan over signed n computing every prime's definitional terms.

    Returns each prime's (signed n, term) pairs in scan order, and the flags.

    `table` is the m's factor table at 4D. The relative different lies over D
    (`cmfield._relative_different`), so membership forces 4D | m²D̃ − n², and a
    field with a spot of the different elsewhere is refused. Membership comes
    first: only spots over 2 and D can carry a negative exponent, so it is
    decided there from v_l(m²D̃ − n²) = v_l(table entry) + v_l(4D) alone, and
    the scan walks only the class of n that can pass at D (`_candidate_n`).
    Only for the n that pass are the entry's other primes read.

    An odd l ∤ D·m·D̃·norm(Δ̃) splits in F̃, and n + m√D̃ has all of v_l at its
    spot √D̃ ≡ −n/m, where Δ̃ is a unit: that spot's kind is one symbol (`_unit_spot_kind`).
    The rows over 2 and D are the field's; those over the other primes of
    m·D̃·norm(Δ̃) are fetched with `spot_kinds` once per scan.
    """
    D = field.D
    if any(s.l != D for s, _ in field.rel_diff):
        raise InputError("the relative different must lie over D")
    rows_2, rows_d = field.rows_2, field.rows_d
    x, y = field.delta_tilde.x, field.delta_tilde.y
    special = m * field.dtilde * (x * x - y * y * field.dtilde)  # its primes read rows
    rows_of: dict[int, tuple] = {}
    terms: dict[int, list[tuple[int, int]]] = {}
    neg, dual = set(), []  # |n| of the members n < 0; the n > 0 whose −n is one too
    for n in _candidate_n(field, m, table):
        fac = table[abs(n)]
        v2 = vd = 0
        for l, e in fac:
            if l == 2:
                v2 = e
            elif l == D:
                vd = e
        vec = []
        # v_l(m²D̃ − n²) is the entry's v_l plus v_l(4D): 2 at l = 2, 1 at l = D
        if not (
            _spot_exps(vec, n, m, 2, v2 + 2, rows_2) and _spot_exps(vec, n, m, D, vd + 1, rows_d)
        ):
            continue
        for l, vl in fac:
            if l == 2 or l == D:
                continue
            if special % l:
                vec.append((l, _unit_spot_kind(x, y, n, m, l), vl, 0, 1))
                continue
            rows = rows_of.get(l)
            if rows is None:
                rows = rows_of[l] = spot_kinds(field, l)
            _spot_exps(vec, n, m, l, vl, rows)
        if n < 0:
            neg.add(-n)
        elif n in neg and n % D:
            dual.append(n)
        # ρ of the vector with one non-split spot's exponent lowered by one:
        # the product of (e + 1) over split spots, 0 if an inert e is odd. So an
        # n has one inert term or only ramified ones, which lie over the primes
        # of the different, met first and in order
        split_prod, odd_inert = 1, 0
        for _, kind, exp, _, _ in vec:
            if kind == "split":
                split_prod *= exp + 1
            elif kind == "inert":
                odd_inert += exp % 2
        for p, kind, exp, rel, f in vec:
            if kind == "split":
                continue
            odd = odd_inert  # odd inert exponents once this one is lowered
            if kind == "inert":
                odd += -1 if exp % 2 else 1
            if odd:
                continue
            terms.setdefault(p, []).append((n, (exp - rel + 1) * split_prod * f))
    flags = tuple(f"dual-membership:|n|={k}" for k in dual)
    return terms, flags


def _table_primes(table: dict) -> tuple[int, ...]:
    """The primes of a factor table's entries, ascending."""
    return tuple(sorted({p for fac in table.values() for p, _ in fac}))


def route_b_applies(field: CMFieldData, m: int) -> bool:
    """Route B's guard on m: squarefree and coprime to 2DD̃. It then applies at every p ∤ m."""
    return is_squarefree(m) and gcd(m, 2 * field.D * field.dtilde) == 1


def _route_b(field: CMFieldData, m: int, table: dict) -> dict[int, int]:
    """One scan over n computing the product formula for every p ∤ m at once.

    Needs m squarefree and coprime to 2DD̃, and its factor table at 4D. Every
    T contributes to each prime p ∤ m of the quotient (e_p + 1) times its
    local factor at l = p times the factors at the other l | quot, so each
    factor is evaluated once per (T, l) as the pair (value if l = p, value if
    l ≠ p). The values if l ≠ p are multiplied once per T, their zeros
    counted apart: with none, p's term divides p's own value out of the
    product; with one, at l₀, only p = l₀ can have a nonzero term; with more,
    every term is 0. A p ∤ m missing from the result has b_m(p) = 0.

    t_l = 0 only at l | m, where the factor depends on no T: it is evaluated
    once per l in the scan.
    """
    totals: dict[int, int] = {}
    at_m: dict[int, tuple[int, int]] = {}  # the factor at each l | m with t_l = 0
    for n, fac in table.items():
        if n == 0 or not any(m % p for p, _ in fac):
            continue
        # t_l = v_l(quot) − 2·v_l(m), and v_l(m) is 0 or 1 for squarefree m
        t_ls = [(l, e if m % l else e - 2) for l, e in fac]
        for l, t_l in t_ls:
            if not t_l and l not in at_m:
                at_m[l] = (_reflex_split_factor(field, l),) * 2
        for T in admissible_matrices(field, m, n):
            factors = [at_m[l] if not t_l else b_l_factors(field, T, l, t_l) for l, t_l in t_ls]
            off, zero_at = 1, []
            for i, (_, v) in enumerate(factors):
                if v:
                    off *= v
                else:
                    zero_at.append(i)
            if not zero_at:
                for (p, e), (at_p, v) in zip(fac, factors):
                    if at_p and m % p:
                        totals[p] = totals.get(p, 0) + (e + 1) * at_p * (off // v)
            elif len(zero_at) == 1:
                (p, e), (at_p, _) = fac[zero_at[0]], factors[zero_at[0]]
                if at_p and m % p:
                    totals[p] = totals.get(p, 0) + (e + 1) * at_p * off
    return totals


def field_header(field: CMFieldData) -> dict:
    """The {D, delta, mode} head of a report and of every CLI payload about `field`."""
    d = field.delta
    return {"D": field.D, "delta": {"x": d.x, "y": d.y, "den": d.den}, "mode": field.mode}


def report_rows(field: CMFieldData, m: int) -> dict:
    """Both routes for every support prime, cross-checked, as rows.

    The rows are the report's head, its flags and one row per support prime,
    [p, b, route_b or None, [n₁, t₁, n₂, t₂, …]]: route (a)'s value b, route
    (b)'s where it applies, and route (a)'s signed n and terms. The cache
    stores them, the CLI prints from them and the library sums them; route
    (a) is b, so it has no column.

    Route (a) reads the same table at 4D, so a nonzero term at a prime outside
    the support is an internal error.

    Not memoized, so rows the caller drops are freed, as is the m's one
    factor table that both routes read; the CLI's cache files are the report
    memo.
    """
    if m < 1:
        raise InputError("need m >= 1")
    table = _factor_table(m * m * field.dtilde, 4 * field.D)
    terms, flags = _route_a(field, m, table)
    support = _table_primes(table)
    stray = sorted(p for p in terms.keys() - set(support) if sum(t for _, t in terms[p]))
    if stray:
        raise InternalConsistencyError(f"nonzero multiplicity outside the support primes: {stray}")
    applies = route_b_applies(field, m)
    totals = _route_b(field, m, table) if applies else {}
    entries = []
    for p in support:
        per_n = terms.get(p)
        flat = list(chain.from_iterable(per_n)) if per_n else []
        a_val = sum(flat[1::2])
        b_val = totals.get(p, 0) if applies and m % p else None
        if b_val is not None and b_val != a_val:
            raise InternalConsistencyError(
                f"route disagreement at p={p}, m={m}: {a_val} (definition) vs {b_val} (product)"
            )
        entries.append([p, a_val, b_val, flat])
    return {**field_header(field), "m": m, "flags": list(flags), "entries": entries}


def bm_full(field: CMFieldData, m: int) -> LogCombo:
    """b_m = Σ_p b_m(p)·log p with the opportunistic route cross-check."""
    from .logcombo import LogCombo  # the CLI reads reports, never combos

    return LogCombo.from_dict({p: b for p, b, *_ in report_rows(field, m)["entries"]})


def intersection_number(field: CMFieldData, m: int) -> LogCombo:
    """The arithmetic intersection multiplicity, ½·b_m."""
    from fractions import Fraction

    from .logcombo import LogCombo

    entries = report_rows(field, m)["entries"]
    return LogCombo.from_dict({p: Fraction(b, 2) for p, b, *_ in entries})


def report_json_obj(rows: dict) -> dict:
    """The JSON shape `bm` prints of the report whose rows are `rows`."""
    return {
        **{k: rows[k] for k in ("D", "delta", "mode", "m")},
        "entries": [
            {
                "p": p,
                "b": b,
                "route_a": b,
                "route_b": "inapplicable" if route_b is None else route_b,
                "per_n": [{"n": n, "term": t} for n, t in zip(flat[::2], flat[1::2])],
            }
            for p, b, route_b, flat in rows["entries"]
        ],
        "flags": rows["flags"],
    }
