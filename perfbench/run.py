"""Benchmark for lcsideals: four exact-answer workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with no
tracing.  The workload asks whole rounds of questions until S seconds have
passed.  Every time is scaled to a fixed machine speed by the kernel of
``calibrate.py``, sampled in the same thread all through set-up and the
questions (in the CLI child for ``containment_cold``), because the speed of
a shared host drifts far more within minutes than the bounds allow.  Each
figure is a median:

* ``setup_s``: the median of three fresh set-ups (this process and two probe
  interpreters), each from interpreter start to the first question;
* ``questions_per_s``: the median over rounds of questions per second of
  question time;
* ``question_p50_ms``: per round, the median latency; the median over rounds;
* ``question_tail_ms``: per round, the latency at the highest percentile with
  at least ten questions beyond it, or the round's maximum when the round
  has fewer than 100 questions (then no such percentile reaches the 90th);
  the median over rounds;
* ``peak_rss_mb``: peak resident memory of the process doing the work, the
  largest CLI child for ``containment_cold``.

``--trace 1`` runs set-up plus round 0 three times, once untraced and twice
traced, and reports the per-layer metrics: counts from a traced pass, times
averaged over both, and ``trace.overhead_s`` as traced minus untraced time.
It fails if the two traced passes disagree on any count.

Every answer is checked against ``reference.py``/``references.json``; a
wrong, failed or refused answer makes ``correct`` false and the exit code 1
(``--wrong-answer`` plants one wrong expected answer to show that).  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print every metric with its unit, the
error rate, the unscaled throughput with the mean kernel time, and a stamp
(commit, source digest, Python, CPU count, CPU model, seed).  The full
record, and in traced runs the spans (``tracer.Spans.load`` reads them), go
to ``perfbench/out/``.
"""

import time

T0 = time.perf_counter()

from calibrate import REFERENCE_S, Meter  # noqa: E402

METER = Meter()
if __name__ == "__main__":
    METER.start()  # set-up is scaled too, from interpreter start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
SRC = Path.cwd() / "src"
SPEC = Path.cwd() / "BENCHMARK.json"
NAMES = ("containment_cold", "membership_warm", "pbw_straighten", "quotient_dims")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument(
        "--wrong-answer",
        action="store_true",
        help="self-check: give the checker one wrong expected answer",
    )
    return p.parse_args(argv)


# -- asking questions ---------------------------------------------------------------


class Tally:
    """Question latencies per round, scaled by `meter` when one is given,
    and the questions that failed."""

    def __init__(self, meter=None):
        self.meter = meter
        self.rounds: list[list[float]] = []
        self.walls: list[float] = []  # unscaled, summed per round
        self.failed = 0

    @property
    def latencies(self) -> list[float]:
        return [x for r in self.rounds for x in r]

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)

    def ask_round(self, questions, reset, tracer=None) -> None:
        """Ask every question, each after `reset` and outside its time."""
        self.rounds.append([])
        self.walls.append(0.0)
        for q in questions:
            reset()
            self.ask(q, tracer)

    def ask(self, q, tracer) -> None:
        root = tracer.open() if tracer is not None else None
        before = self.meter.reading() if self.meter is not None else None
        started = time.perf_counter()
        try:
            answer = q.ask()
            ok = True
        except Exception:
            traceback.print_exc()
            ok = False
        wall = time.perf_counter() - started
        self.walls[-1] += wall
        self.rounds[-1].append(wall if self.meter is None else self.meter.scale(before, wall))
        if tracer is not None:
            tracer.close(root)
        if not (ok and q.check(answer, q.expected)):
            print(f"wrong or failed answer: {q.label} (expected {q.expected!r})", file=sys.stderr)
            self.failed += 1


def wrong_answer(expected):
    if isinstance(expected, bool):
        return not expected
    if isinstance(expected, int):
        return expected + 1
    return {**expected, (): 1}


def timed_pass(wl, first_round, seconds: float) -> Tally:
    """Closed loop: ask whole rounds of questions until `seconds` have passed."""
    tally = Tally(METER)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        i = len(tally.rounds)
        questions = first_round if i == 0 else wl.round(i)
        tally.ask_round(questions, wl.reset)
    return tally


def traced_pass(wl, questions, tracer):
    """Set-up plus round 0, with spans when a tracer is given.  Returns the
    tally and the program's time: set-up plus question latencies, leaving
    out the answer checks."""
    wl.tracer = tracer
    if tracer is not None:
        tracer.install()
    tally = Tally()
    try:
        root = tracer.open("setup") if tracer is not None else None
        started = time.perf_counter()
        wl.prepare()
        setup_s = time.perf_counter() - started
        if tracer is not None:
            tracer.close(root)
        tally.ask_round(questions, wl.reset, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.tracer = None
    if tracer is not None:
        tracer.settle()
    return tally, setup_s + sum(tally.latencies)


# -- metrics ------------------------------------------------------------------------


def round_tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum below 100 samples."""
    xs = sorted(latencies)
    if len(xs) < 100:
        return xs[-1], 100.0
    return xs[len(xs) - 11], 100.0 * (len(xs) - 10) / len(xs)


def end_to_end(spec: dict, tally: Tally, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    tails = [round_tail(r) for r in tally.rounds]
    values = {
        "setup_s": setup_s,
        "questions_per_s": statistics.median(len(r) / sum(r) for r in tally.rounds),
        "question_p50_ms": 1e3 * statistics.median(statistics.median(r) for r in tally.rounds),
        "question_tail_ms": 1e3 * statistics.median(t for t, _ in tails),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    extra = {
        "samples": tally.attempted,
        "rounds": len(tally.rounds),
        "question_tail_percentile": tails[0][1],
        "unscaled_questions_per_s": statistics.median(len(r) / w for r, w in zip(tally.rounds, tally.walls)),
        "meter_samples": METER.samples,
        "meter_kernel_mean_s": METER.kernel_s / METER.samples,
    }
    return metrics, extra


def layer_metrics(spec: dict, passes: list, times: list, overhead_s: float) -> dict:
    """Per-layer metrics named in the spec, from the traced passes and their
    ``self_times``.  ``X.calls`` counts X's spans and ``X.self_s`` sums X's
    self time (averaged over the passes); the ratios and the two overheads
    are computed here; every other name is a counter."""
    from tracer import CACHED

    tracer = passes[0]
    counts = {name: c for name, (c, _) in times[0].items()}
    c = tracer.counters
    calls = sum(counts.get(n, 0) for n in CACHED)
    offered = c["linalg.from_rows.rows_offered"]
    special = {
        "series.cache_hit_ratio": sum(c[n + ".hits"] for n in CACHED) / calls if calls else 0.0,
        "linalg.keep_ratio": c["linalg.from_rows.rows_kept"] / offered if offered else 0.0,
        "cli.overhead_s": statistics.mean(t.extra_s["cli.overhead_s"] for t in passes),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in special:
            value = special[name]
        elif name.endswith(".calls"):
            value = counts.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            key = name[: -len(".self_s")]
            value = statistics.mean(t.get(key, (0, 0.0))[1] for t in times)
        else:
            value = c[name]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def work_counts(tracer, times: dict) -> dict:
    """Every count a traced pass produces; equal work gives equal counts."""
    counts = {f"spans:{k}": c for k, (c, _) in times.items()}
    counts.update(tracer.counters)
    return counts


# -- stamp and output -----------------------------------------------------------------


def stamp(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    digest = hashlib.sha256()
    for f in sorted((SRC / "lcsideals").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def finish(args, tally: Tally, metrics: dict, extra: dict) -> int:
    error_rate = tally.failed / tally.attempted
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {error_rate:.6g} ({tally.failed}/{tally.attempted})")
    if "samples" in extra:
        print(
            f"{args.workload} latency samples = {extra['samples']} in {extra['rounds']} rounds, "
            f"tail at percentile {extra['question_tail_percentile']:.4g} of a round"
        )
        print(
            f"{args.workload} unscaled questions_per_s = {extra['unscaled_questions_per_s']:.6g} 1/s; "
            f"kernel {1e3 * extra['meter_kernel_mean_s']:.4g} ms on average over "
            f"{extra['meter_samples']} samples, {1e3 * REFERENCE_S:.4g} ms at the reference speed"
        )
    st = stamp(args)
    print("stamp " + json.dumps(st, sort_keys=True))
    correct = tally.failed == 0 and not extra.get("problems")
    result = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = dict(result, stamp=st, error_rate=error_rate, **extra)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


# -- modes --------------------------------------------------------------------------------


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, as that interpreter measures it."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-probe",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_untraced(args, spec, wl, first_round, own_setup_s: float) -> int:
    tally = timed_pass(wl, first_round, args.seconds)
    METER.stop()
    who = resource.RUSAGE_CHILDREN if wl.name == "containment_cold" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    setups = [own_setup_s] + [setup_probe(args) for _ in range(SETUP_PROBES)]
    metrics, extra = end_to_end(spec, tally, statistics.median(setups), rss_kb / 1024)
    extra["setup_samples_s"] = setups
    return finish(args, tally, metrics, extra)


def run_traced(args, spec, wl, first_round) -> int:
    from tracer import Tracer

    tally, plain_s = traced_pass(wl, first_round, None)
    passes, traced_s = [], []
    for _ in range(2):
        tracer = Tracer()
        t, seconds = traced_pass(wl, first_round, tracer)
        tally.rounds += t.rounds
        tally.failed += t.failed
        passes.append(tracer)
        traced_s.append(seconds)
    problems = []
    times = [t.spans.self_times() for t in passes]
    c1, c2 = (work_counts(t, s) for t, s in zip(passes, times))
    if c1 != c2:
        diff = {k: (c1.get(k), c2.get(k)) for k in sorted(set(c1) | set(c2)) if c1.get(k) != c2.get(k)}
        problems.append(f"traced passes disagree on counts: {diff}")
        print("error: " + problems[-1], file=sys.stderr)
    metrics = layer_metrics(spec, passes, times, statistics.mean(traced_s) - plain_s)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.bin"
    passes[0].spans.dump(spans_path, {"workload": args.workload, "seed": args.seed})
    extra = {
        "counts": c1,
        "pass_seconds": [plain_s, *traced_s],
        "spans_file": str(spans_path.relative_to(Path.cwd())),
        "problems": problems,
    }
    return finish(args, tally, metrics, extra)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lcsideals" / "__init__.py").is_file() or not SPEC.is_file():
        print("error: run from the root of an lcsideals checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.make(args.workload, args.seed)
    first_round = wl.round(0)
    wl.prepare()
    own_setup_s = METER.scale((0, 0.0), time.perf_counter() - T0)
    if args.setup_probe:
        METER.stop()
        print(repr(own_setup_s))
        return 0
    if args.wrong_answer:
        first_round[0].expected = wrong_answer(first_round[0].expected)
    spec = json.loads(SPEC.read_text())
    if args.trace or not wl.in_process:
        METER.stop()
    if args.trace:
        return run_traced(args, spec, wl, first_round)
    wl.meter = METER
    return run_untraced(args, spec, wl, first_round, own_setup_s)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        METER.stop()
    sys.exit(code)
