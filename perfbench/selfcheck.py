"""Self-check of the answer checker.

Each workload is run with one deliberately wrong expected answer
(``run.py --wrong-answer``).  The run must count the failure, so that its
error rate is above 0, report ``correct: false`` and exit non-zero.

Usage, from the root of a checkout:

    python3 perfbench/selfcheck.py [WORKLOAD ...]     (default: all four)
"""

import json
import subprocess
import sys
from pathlib import Path

from run import NAMES

RUN = Path(__file__).resolve().with_name("run.py")


def check(workload: str) -> bool:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", "1",
        "--seconds", "1", "--trace", "0", "--wrong-answer",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ok = proc.returncode != 0 and not result["correct"] and result["failed"] >= 1
    rate = result["failed"] / result["attempted"]
    print(
        f"[{'PASS' if ok else 'FAIL'}] {workload}: exit {proc.returncode}, "
        f"error_rate {rate:.4g} ({result['failed']}/{result['attempted']})"
    )
    return ok


def main(argv: list[str]) -> int:
    results = [check(w) for w in (argv or NAMES)]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
