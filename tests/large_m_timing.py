"""Seconds of `bm_report` at large m; pytest does not collect this script.

    PYTHONPATH=src python tests/large_m_timing.py [m ...]

Prints one line per m (default 1,000, 3,001, 10,001 and 30,001): m, the number
of support primes, the wall seconds of `bm_report` on the ROADMAP field
D = 13, Δ = −21 − 2√13 (D̃ = 389), one call each, in one process and in the
order given, and the process's VmHWM in MB after the call (`-` where
/proc/self/status is missing). From m = 3,001 to 30,001 the time should grow
roughly linearly. VmHWM is the peak resident size of the whole process so far,
a high-water mark, so it never falls along the list: run one m per process to
read the peak of that m alone.
"""

import sys
import time

from cmint.bm import bm_report
from cmint.cmfield import build_cm_field
from cmint.quadfield import QuadElem, QuadField

DEFAULT_MS = (1000, 3001, 10001, 30001)


def vmhwm_mb() -> str:
    """The process's peak resident set size so far in MB, or '-' where it cannot be read."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return f"{int(line.split()[1]) / 1024:.1f}"  # the value is in kB
    except OSError:
        pass
    return "-"


def main(argv: list[str]) -> None:
    ms = [int(a) for a in argv] or list(DEFAULT_MS)
    field = build_cm_field(13, QuadElem(QuadField(13), -21, -2))
    print("m,support_primes,seconds,vmhwm_mb")
    for m in ms:
        t0 = time.perf_counter()
        rep = bm_report(field, m)
        secs = time.perf_counter() - t0
        print(f"{m},{len(rep.entries)},{secs:.3f},{vmhwm_mb()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
