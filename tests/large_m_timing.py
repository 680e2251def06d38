"""Seconds of `bm_report` at large m; pytest does not collect this script.

    PYTHONPATH=src python tests/large_m_timing.py [m ...]

Prints one line per m (default 1,000, 3,001, 10,001 and 30,001): m, the number
of support primes and the wall seconds of `bm_report` on the ROADMAP field
D = 13, Δ = −21 − 2√13 (D̃ = 389), one call each, in one process and in the
order given. From m = 3,001 to 30,001 the time should grow roughly linearly.
"""

import sys
import time

from cmint.bm import bm_report
from cmint.cmfield import build_cm_field
from cmint.quadfield import QuadElem, QuadField

DEFAULT_MS = (1000, 3001, 10001, 30001)


def main(argv: list[str]) -> None:
    ms = [int(a) for a in argv] or list(DEFAULT_MS)
    field = build_cm_field(13, QuadElem(QuadField(13), -21, -2))
    print("m,support_primes,seconds")
    for m in ms:
        t0 = time.perf_counter()
        rep = bm_report(field, m)
        print(f"{m},{len(rep.entries)},{time.perf_counter() - t0:.3f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
