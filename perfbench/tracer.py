"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` replaces each traced function by a wrapper in every
``lcsideals`` module that binds it.  The modules import functions by name
(``from .series import m_span``), so patching ``series.m_span`` alone would
miss the calls made from ``containment``, ``quotients`` and ``cli``.

Spans stay in memory as parallel arrays (name, start, end, parent, trace
id); each question opens a root span with its own trace id.  Self time is a
span's duration minus the durations of its direct children.  Counts that the
spans cannot give (builds, rows offered and kept, PBW terms) are kept as
counters at the same boundaries; they repeat exactly for equal work.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import Counter
from functools import wraps

MODULES = (
    "lcsideals",
    "lcsideals.cli",
    "lcsideals.containment",
    "lcsideals.exprs",
    "lcsideals.freealg",
    "lcsideals.linalg",
    "lcsideals.lyndon",
    "lcsideals.quotients",
    "lcsideals.series",
)

# span name -> (defining module, attribute); "Class.method" names a method
TRACED = {
    "series.l_span": ("lcsideals.series", "l_span"),
    "series.m_span": ("lcsideals.series", "m_span"),
    "series.product_generators": ("lcsideals.series", "product_generators"),
    "series.product_span": ("lcsideals.series", "product_span"),
    "linalg.from_rows": ("lcsideals.linalg", "GradedSubspace.from_rows"),
    "linalg.insert_row": ("lcsideals.linalg", "GradedSubspace.insert_row"),
    "linalg.freeze": ("lcsideals.linalg", "GradedSubspace.freeze"),
    "linalg.contains_row": ("lcsideals.linalg", "GradedSubspace.contains_row"),
    "linalg.extension_dim": ("lcsideals.linalg", "extension_dim"),
    "lyndon.straighten": ("lcsideals.lyndon", "straighten"),
    "lyndon.standard_bracketing": ("lcsideals.lyndon", "standard_bracketing"),
    "freealg.mul": ("lcsideals.freealg", "Poly.__mul__"),
    "freealg.bracket": ("lcsideals.freealg", "bracket"),
    "exprs.parse_expr": ("lcsideals.exprs", "parse_expr"),
    "exprs.poly_to_expr": ("lcsideals.exprs", "poly_to_expr"),
    "containment.containment_index": ("lcsideals.containment", "containment_index"),
    "quotients.quotient_dim": ("lcsideals.quotients", "quotient_dim"),
}

# cached span builders: the first call for a key is a build, later ones hits
CACHED = ("series.l_span", "series.m_span", "series.product_generators", "series.product_span")

ROOT = "question"


def _key(args: tuple) -> tuple:
    return tuple(tuple(a) if isinstance(a, list) else a for a in args)


class Spans:
    """Append-only span store."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.trace = array("i")

    def name_id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def __len__(self) -> int:
        return len(self.start)

    def extend(self, other: "Spans", trace_id: int, parent: int) -> None:
        """Append other's spans under the given parent span and trace id."""
        base = len(self)
        remap = [self.name_id(n) for n in other.names]
        self.name.extend(remap[i] for i in other.name)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(parent if p < 0 else base + p for p in other.parent)
        self.trace.extend(trace_id for _ in other.trace)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """(span count, summed self time) per span name."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        out: dict[str, list] = {}
        for i, nid in enumerate(self.name):
            acc = out.setdefault(self.names[nid], [0, 0.0])
            acc[0] += 1
            acc[1] += own[i]
        return {k: (c, s) for k, (c, s) in out.items()}

    def dump(self, path, header: dict) -> None:
        """One JSON header line, then the five arrays as raw machine words."""
        head = dict(header, names=self.names, count=len(self))
        with open(path, "wb") as fh:
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name, self.start, self.end, self.parent, self.trace):
                arr.tofile(fh)

    @classmethod
    def load(cls, path) -> tuple["Spans", dict]:
        out = cls()
        with open(path, "rb") as fh:
            head = json.loads(fh.readline())
            for arr in (out.name, out.start, out.end, out.parent, out.trace):
                arr.fromfile(fh, head["count"])
        for n in head["names"]:
            out.name_id(n)
        return out, head


class Tracer:
    def __init__(self):
        self.spans = Spans()
        self.stack = [-1]
        self.trace_id = 0
        self.counters: Counter = Counter()
        self.extra_s: Counter = Counter()  # times not read off spans
        self.seen: set = set()
        self.built: list = []  # subspaces returned by from_rows
        self._restore: list = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, (mod_name, attr) in TRACED.items():
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, raw in reversed(self._restore):
            setattr(owner, key, raw)
        self._restore.clear()

    def _wrap(self, fn, name: str):
        spans = self.spans
        nid = spans.name_id(name)
        names, starts, ends, parents, traces = (
            spans.name, spans.start, spans.end, spans.parent, spans.trace
        )
        stack = self.stack
        clock = time.perf_counter
        before, after = self._hooks(name)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            traces.append(self.trace_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hooks(self, name: str):
        counters = self.counters
        if name in CACHED:
            def after(args, result):
                key = (name, _key(args))
                if key in self.seen:
                    counters[name + ".hits"] += 1
                    return
                self.seen.add(key)
                counters[name + ".builds"] += 1
                if name == "series.product_generators":
                    counters[name + ".rows"] += len(result)
            return None, after
        if name == "linalg.from_rows":
            def counted(rows):
                for r in rows:
                    counters["linalg.from_rows.rows_offered"] += 1
                    yield r

            def before(args, kwargs):
                if "rows" in kwargs:
                    kwargs = dict(kwargs, rows=counted(kwargs["rows"]))
                else:
                    args = args[:3] + (counted(args[3]),) + args[4:]
                return args, kwargs

            def after(args, result):
                self.built.append(result)
            return before, after
        if name == "lyndon.straighten":
            def after(args, result):
                counters["lyndon.pbw_terms"] += len(result.terms)
            return None, after
        return None, None

    # -- root spans -----------------------------------------------------

    def open(self, name: str = ROOT) -> int:
        """Open a root span with a fresh trace id; returns its index."""
        self.trace_id += 1
        sp = self.spans
        idx = len(sp)
        sp.name.append(sp.name_id(name))
        sp.parent.append(self.stack[-1])
        sp.trace.append(self.trace_id)
        sp.end.append(0.0)
        sp.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans.end[idx] = time.perf_counter()
        self.stack.pop()

    def settle(self) -> None:
        """Fold the subspaces built so far into the kept-row counters."""
        for S in self.built:
            self.counters["linalg.from_rows.rows_kept"] += S.dim
            self.counters["linalg.nnz_kept"] += sum(len(r) for r in S.int_rows())
        self.built.clear()
