"""Start-up hook of every benchmark child: records the process's own peak RSS.

run.py puts this directory first on the children's ``PYTHONPATH``, so the
interpreter imports this module at start-up (``site`` imports
``sitecustomize``). When ``CMINT_BENCH_PEAK_RSS_FILE`` is set, the process
writes its ``VmHWM`` line from ``/proc/self/status`` to that file at exit.

The parent's ``wait4`` rusage cannot be used: Linux folds the high-water RSS
of the memory the child had before ``exec`` into its ``ru_maxrss``, and with
``vfork`` that memory is the harness's, which is larger than a small cmint
command's.
"""

import atexit
import os

_OUT = os.environ.get("CMINT_BENCH_PEAK_RSS_FILE")


def _write_peak_rss() -> None:
    with open("/proc/self/status") as status:
        line = next((ln for ln in status if ln.startswith("VmHWM:")), "")
    with open(_OUT, "w") as out:
        out.write(line)


if _OUT:
    atexit.register(_write_peak_rss)
