"""Run one ``lcsideals`` command as ``python -m lcsideals.cli`` does, plus
either the speed meter or spans.

Usage: python3 perfbench/cli_child.py --meter VERB [ARGS...]
       python3 perfbench/cli_child.py --spans SPANS_PATH VERB [ARGS...]

The report goes to stdout as usual.  With ``--meter`` the kernel of
``calibrate`` is sampled all through the command, and the last line on
stderr gives the samples and their total time, for the caller to scale the
child's time by.  With ``--spans`` the spans go to SPANS_PATH, and the last
line on stderr gives the monotonic times around the span dump, so that the
caller can leave the dump out of the CLI's own overhead.
"""

import sys
import time


def metered(argv: list[str]) -> int:
    from calibrate import Meter

    meter = Meter()
    meter.start()
    from lcsideals import cli

    try:
        code = cli.main(argv)
    finally:
        meter.stop()
    sys.stdout.flush()
    meter.sample()
    print(f"meter {meter.samples} {meter.kernel_s!r}", file=sys.stderr)
    return code


def traced(path: str, argv: list[str]) -> int:
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    from lcsideals import cli

    root = tracer.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        tracer.close(root)
    sys.stdout.flush()
    dump_start = time.perf_counter()
    tracer.settle()
    tracer.spans.dump(path, {"counters": dict(tracer.counters)})
    print(f"spans-dumped {dump_start!r} {time.perf_counter()!r}", file=sys.stderr)
    return code


def main(argv: list[str]) -> int:
    if argv[:1] == ["--meter"]:
        return metered(argv[1:])
    if argv[:1] == ["--spans"] and len(argv) > 1:
        return traced(argv[1], argv[2:])
    print("usage: cli_child.py --meter | --spans PATH  VERB [ARGS...]", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
