"""Run one cmint command as ``python -m cmint.cli ARGV...`` does, reading the clock as it goes.

    python3 bench/marked_cli.py OUT -- ARGV...

run.py starts it with ``PYTHONPATH=src`` for each untraced ``range-warm`` op.
The command's stdout, stderr and exit code are those of ``cmint.cli.run``.
At exit the process writes to OUT its ``perf_counter`` readings, one per
line: when this file starts, when each module is imported (from an audit
hook), when the package is loaded, when the cache module parses a line (it
reads its ``json`` through a stand-in whose ``loads`` is wrapped), when
``cache.load`` returns and when the command returns. ``perf_counter`` is the
system's monotonic clock, so run.py can cut the op, timed from spawn to reap,
into segments at these readings. A function the package no longer has is not
marked. The file imports only what the interpreter has already loaded before
it imports the package.
"""

from time import perf_counter

MARKS = [perf_counter()]

import sys  # noqa: E402


def _on_audit(event: str, args: tuple) -> None:
    if event == "import":
        MARKS.append(perf_counter())


def _marked(fn):
    def marked(*args, **kwargs):
        result = fn(*args, **kwargs)
        MARKS.append(perf_counter())
        return result

    return marked


def main(argv: list[str]) -> int:
    out, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: marked_cli.py OUT -- ARGV...")
    sys.addaudithook(_on_audit)
    import cmint.cli

    MARKS.append(perf_counter())
    cache = sys.modules.get("cmint.cache")
    if getattr(cache, "load", None) is not None:  # the CLI reads it as cache.load
        cache.load = _marked(cache.load)
    json = getattr(cache, "json", None)
    if getattr(json, "loads", None) is not None:
        stand_in = type(sys)("json")
        stand_in.__dict__.update((k, v) for k, v in vars(json).items() if not k.startswith("__"))
        stand_in.loads = _marked(json.loads)
        cache.json = stand_in
    try:
        return cmint.cli.run(cli_argv)
    finally:
        MARKS.append(perf_counter())
        sys.stdout.flush()
        with open(out, "w") as fh:
            fh.write("\n".join(map(repr, MARKS)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
