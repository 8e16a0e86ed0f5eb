"""The four workloads: seeded inputs, the question each one asks, and the
answer each question must give.

Every workload is a closed loop with one client: one question at a time,
from one process, and for ``containment_cold`` one child process at a time.
Questions come in rounds; round ``i`` depends only on the workload, the
seed and ``i``, so a traced pass can repeat round 0 exactly.  ``reset`` runs
before every question, outside its time, and sets the cache state the
workload is about.  Where it empties caches it also collects garbage, so that
a question starts as in a fresh session and its work does not depend on the
order in which the seed puts the questions:

* ``containment_cold`` asks ``lcsideals containment`` in a new interpreter,
  so every span is built from empty caches.  A round is a basket with a fixed
  number of questions from each cost class (see ``references.json``), so
  that every seed asks for about the same work.
* ``membership_warm`` builds ``M_2..M_6`` and ``L_2..L_6`` of ``A_3`` at
  degrees 6 and 7 in set-up, then parses seeded expressions and tests them
  against those spans.  It reads the echelon forms and never writes them.
* ``pbw_straighten`` straightens seeded elements of ``A_2`` and ``A_3``
  with the ``lyndon`` caches cleared before each question, so every
  question pays its solver builds; ``linalg`` does no work.  Every round
  straightens the same elements with seeded coefficients (see
  ``PbwStraighten``), because the cost of a word is heavy-tailed and a random
  sample would make the work differ from seed to seed.
* ``quotient_dims`` computes the dimensions of ``N_r`` in ``R_{2,2}`` and
  ``R_{2,3}`` with the span caches cleared before each question.  It is the
  only workload that builds ``product_span`` and calls ``extension_dim``.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path
from random import Random

from lcsideals import exprs, lyndon, quotients, series
from lcsideals.freealg import Poly

import reference
from tracer import Spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
CHILD_TIMEOUT_S = 170


class Question:
    """One question: ``ask`` is timed, ``check`` compares outside the timing."""

    __slots__ = ("label", "ask", "expected", "check")

    def __init__(self, label, ask, expected, check=None):
        self.label = label
        self.ask = ask
        self.expected = expected
        self.check = check or (lambda answer, expected: answer == expected)


class Workload:
    name = ""
    # False when the questions run in child processes, which sample the
    # speed meter themselves and hand their samples to ``meter``
    in_process = True

    def __init__(self, seed: int):
        self.seed = seed
        self.tracer = None
        self.meter = None

    def rng(self, i: int) -> Random:
        return Random(f"{self.name}:{self.seed}:{i}")

    def prepare(self) -> None:
        """Set-up work done before the first question can be asked."""

    def reset(self) -> None:
        """Bring the caches to the state every question starts from."""

    def round(self, i: int) -> list[Question]:
        raise NotImplementedError


# -- containment_cold ----------------------------------------------------------


class ContainmentCold(Workload):
    name = "containment_cold"
    in_process = False
    # two A_3 questions put the median latency inside one cost class
    BASKET = ("a3_cutoff7", "a3_cutoff7", "a2_cutoff10", "a2_cutoff9")

    def __init__(self, seed: int, refs: dict):
        super().__init__(seed)
        self.pools: dict[str, list[dict]] = {}
        for q in refs["containment"]:
            self.pools.setdefault(q["class"], []).append(q)
        src = str(Path.cwd() / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def round(self, i: int) -> list[Question]:
        rng = self.rng(i)
        picks = [rng.choice(self.pools[c]) for c in self.BASKET]
        rng.shuffle(picks)
        out = []
        for q in picks:
            argv = [
                "containment",
                "--n", str(q["n"]),
                "--tuple", ",".join(map(str, q["tuple"])),
                "--cutoff", str(q["cutoff"]),
            ]
            out.append(Question(" ".join(argv), lambda argv=argv: self._ask(argv), q["index"]))
        return out

    def _ask(self, argv: list[str]) -> int:
        tracer, meter = self.tracer, self.meter
        spans_path = OUT / "child-spans.bin"
        child = [sys.executable, str(HERE / "cli_child.py")]
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            cmd = [*child, "--spans", str(spans_path), *argv]
        elif meter is not None:
            cmd = [*child, "--meter", *argv]
        else:
            cmd = [sys.executable, "-m", "lcsideals.cli", *argv]
        spawned = time.perf_counter()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=self.env, timeout=CHILD_TIMEOUT_S
        )
        exited = time.perf_counter()
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        index = json.loads(proc.stdout)["result"]["index"]
        if tracer is not None:
            self._merge(tracer, spans_path, proc.stderr, spawned, exited)
        elif meter is not None:
            _, samples, kernel_s = proc.stderr.strip().splitlines()[-1].split()
            meter.add(int(samples), float(kernel_s))
        return index

    @staticmethod
    def _merge(tracer, spans_path: Path, stderr: str, spawned: float, exited: float) -> None:
        spans, head = Spans.load(spans_path)
        tracer.spans.extend(spans, tracer.trace_id, tracer.stack[-1])
        tracer.counters.update(head["counters"])
        # every span but the child's cli.main root is a layer call
        layer = [i for i, p in enumerate(spans.parent) if p >= 0]
        if layer:
            first = min(spans.start[i] for i in layer)
            last = max(spans.end[i] for i in layer)
            _, dump_start, dump_end = stderr.strip().splitlines()[-1].split()
            dump = float(dump_end) - float(dump_start)
            tracer.extra_s["cli.overhead_s"] += (first - spawned) + (exited - last - dump)


# -- membership_warm -------------------------------------------------------------


def _mono(w) -> str:
    return "*".join(f"x{l}" for l in w)


def _composition(rng: Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _product_expr(*pieces: str) -> str:
    return "*".join(p for p in pieces if p)


class MembershipWarm(Workload):
    name = "membership_warm"
    N = 3
    DEGREES = (6, 7)
    KS = range(2, 7)
    ROUND = 1000
    # PBW witness shapes whose target M_{sum-k+2} is among the built spans
    WITNESS_TUPLES = (
        (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)
    )

    def prepare(self) -> None:
        series.clear_caches()
        for d in self.DEGREES:
            for k in self.KS:
                series.m_span(self.N, k, d)
                series.l_span(self.N, k, d)

    def round(self, i: int) -> list[Question]:
        rng = self.rng(i)
        makers = (
            self._padded_commutator,
            self._pure_commutator,
            self._abelian_perturbed,
            self._witness_outside,
            self._witness_inside,
        )
        out = []
        for make in rng.choices(makers, weights=(3, 2, 3, 1, 1), k=self.ROUND):
            label, kind, k, d, text, expected = make(rng)
            out.append(
                Question(label, lambda kind=kind, k=k, d=d, text=text: self._ask(kind, k, d, text), expected)
            )
        return out

    def _ask(self, kind: str, k: int, d: int, text: str) -> bool:
        p = exprs.parse_expr(text, self.N)
        span = series.m_span(self.N, k, d) if kind == "M" else series.l_span(self.N, k, d)
        return span.contains(p)

    def _commutator(self, rng: Random, k: int, letters: int) -> str:
        slots = _composition(rng, letters, k)
        return "[" + ",".join(_mono(self._word(rng, e)) for e in slots) + "]"

    def _word(self, rng: Random, length: int) -> tuple[int, ...]:
        return tuple(rng.randint(1, self.N) for _ in range(length))

    def _padded(self, rng: Random, k: int, d: int) -> str:
        letters = rng.randint(k, d)
        left = rng.randint(0, d - letters)
        return _product_expr(
            _mono(self._word(rng, left)),
            self._commutator(rng, k, letters),
            _mono(self._word(rng, d - letters - left)),
        )

    def _more(self, rng: Random, kind: str, k: int, d: int) -> str:
        """One or two more summands inside M_k (padded commutators of length
        j >= k) or inside L_k (pure ones), so a verdict against that ideal
        does not change."""
        out = ""
        for _ in range(rng.randint(1, 2)):
            j = rng.randint(k, max(self.KS))
            term = self._padded(rng, j, d) if kind == "M" else self._commutator(rng, j, d)
            out += f" {rng.choice('+-')} {rng.randint(1, 5)}*{term}"
        return out

    def _padded_commutator(self, rng: Random):
        """u [m1,...,mk] v lies in M_k by definition."""
        d, k = rng.choice(self.DEGREES), rng.choice(self.KS)
        text = self._padded(rng, k, d) + self._more(rng, "M", k, d)
        return "padded_commutator", "M", k, d, text, True

    def _pure_commutator(self, rng: Random):
        """[m1,...,mk] lies in L_k by definition."""
        d, k = rng.choice(self.DEGREES), rng.choice(self.KS)
        text = self._commutator(rng, k, d) + self._more(rng, "L", k, d)
        return "pure_commutator", "L", k, d, text, True

    def _abelian_perturbed(self, rng: Random):
        """An M_2 element plus monomials whose commutative image is nonzero
        lies outside M_2, hence outside every M_k and L_k with k >= 2."""
        d, k = rng.choice(self.DEGREES), rng.choice(self.KS)
        while True:
            extra = {}
            for _ in range(rng.randint(1, 2)):
                extra[self._word(rng, d)] = _coefficient(rng)
            if reference.abelian_image(extra):
                break
        text = self._padded(rng, rng.choice(self.KS), d) + self._more(rng, "M", 2, d)
        for w, c in extra.items():
            text += f" {'-' if c < 0 else '+'} {abs(c)}*{_mono(w)}"
        return "abelian_perturbed", rng.choice("ML"), k, d, text, False

    def _witness(self, rng: Random):
        shape = rng.choice(self.WITNESS_TUPLES)
        d = rng.choice([e for e in self.DEGREES if e >= sum(shape)])
        words = sorted(rng.choice(reference.lyndon_words(self.N, m)) for m in shape)
        pad = d - sum(shape)
        left = rng.randint(0, pad)
        text = _product_expr(
            _mono(self._word(rng, left)),
            *(reference.bracketing_expr(w) for w in words),
            _mono(self._word(rng, pad - left)),
        )
        return shape, d, text

    def _witness_outside(self, rng: Random):
        """A product of m Lie elements has PBW degree m, while M_s in degree
        D has PBW degree at most D - s + 1; with pad letters, m = k + pad and
        D = sum + pad, so the element lies outside M_{sum-k+2}, and so does
        its sum with members of M_{sum-k+2}."""
        shape, d, text = self._witness(rng)
        s = sum(shape) - len(shape) + 2
        return "pbw_witness_outside", "M", s, d, text + self._more(rng, "M", s, d), False

    def _witness_inside(self, rng: Random):
        """A factor b_w with |w| = i lies in L_i, so the product lies in M_i."""
        shape, d, text = self._witness(rng)
        s = max(shape)
        return "pbw_witness_inside", "M", s, d, text + self._more(rng, "M", s, d), True


# -- pbw_straighten ----------------------------------------------------------------


class PbwStraighten(Workload):
    name = "pbw_straighten"
    # The elements straightened in every round: a fixed sample of `count`
    # words per (n, degree), grouped into homogeneous elements of TERMS words,
    # the same for every seed, so that every round does the same work: the
    # cost of a word is heavy-tailed, and words of one element share work, so
    # a seeded sample or grouping would make the work differ from seed to
    # seed.  The seed draws the coefficients and the order.
    WORDS = ((2, range(6, 10), 15), (3, range(5, 9), 15))
    TERMS = 3
    # (n, degree range, count) of nondecreasing products of standard
    # bracketings; also a fixed sample, scaled by a seeded coefficient.  Each
    # expands to up to 2^(degree - factors) words, so the degrees stay lower.
    PRODUCTS = ((2, (4, 7), 8), (3, (4, 6), 8))

    def __init__(self, seed: int):
        super().__init__(seed)
        fixed = Random("pbw_straighten words")
        self.elements = []  # (n, words)
        for n, degrees, count in self.WORDS:
            for d in degrees:
                words = fixed.sample(list(product(range(1, n + 1), repeat=d)), count)
                for j in range(0, count, self.TERMS):
                    self.elements.append((n, words[j : j + self.TERMS]))
        self.products = []
        for n, (lo, hi), count in self.PRODUCTS:
            for _ in range(count):
                lengths = _composition(fixed, fixed.randint(lo, hi), fixed.randint(2, 4))
                words = tuple(sorted(fixed.choice(reference.lyndon_words(n, m)) for m in lengths))
                self.products.append((n, reference.pbw_product(words), len(words)))

    def reset(self) -> None:
        lyndon.clear_caches()
        gc.collect()

    def round(self, i: int) -> list[Question]:
        rng = self.rng(i)
        out = []
        for n, words in self.elements:
            terms = {w: _coefficient(rng) for w in words}
            p = Poly(n, terms)
            out.append(Question(f"straighten A_{n}", lambda p=p: lyndon.straighten(p), terms, _re_expands))
        for n, elem, factors in self.products:
            c = _coefficient(rng)
            p = Poly(n, {w: c * v for w, v in elem.items()})
            out.append(Question(f"pbw_degree A_{n}", lambda p=p: lyndon.pbw_degree(p), factors))
        rng.shuffle(out)
        return out


def _coefficient(rng: Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 4)) * rng.choice((1, -1))


def _re_expands(answer, terms) -> bool:
    """The expansion is made of PBW monomials and sums back to the input."""
    return reference.expand_pbw(answer.terms) == terms


# -- quotient_dims -------------------------------------------------------------------


class QuotientDims(Workload):
    name = "quotient_dims"

    def __init__(self, seed: int, refs: dict):
        super().__init__(seed)
        self.cells = refs["quotient_dims"]

    def reset(self) -> None:
        series.clear_caches()
        gc.collect()

    def round(self, i: int) -> list[Question]:
        tables: dict[tuple, list[dict]] = {}
        for q in self.cells:
            tables.setdefault((q["n"], *q["mod"]), []).append(q)
        order = sorted(tables)
        self.rng(i).shuffle(order)
        out = []
        for key in order:
            spec = quotients.QuotientSpec(*key)
            for q in sorted(tables[key], key=lambda q: (q["d"], q["r"])):
                out.append(
                    Question(
                        f"N{q['r']} in {spec.label()} degree {q['d']}",
                        lambda spec=spec, r=q["r"], d=q["d"]: quotients.quotient_dim(spec, "N", r, d),
                        q["dim"],
                    )
                )
        return out


def make(name: str, seed: int) -> Workload:
    refs = reference.load_references()
    if name == "containment_cold":
        return ContainmentCold(seed, refs)
    if name == "membership_warm":
        return MembershipWarm(seed)
    if name == "pbw_straighten":
        return PbwStraighten(seed)
    if name == "quotient_dims":
        return QuotientDims(seed, refs)
    raise ValueError(f"unknown workload {name!r}")
