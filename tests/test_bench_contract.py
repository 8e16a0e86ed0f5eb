"""The bench tracer names package functions by string: keep those names live.

perfbench/tracer.py wraps each TRACED entry by module and attribute name;
a rename in the package would make traced bench runs fail at install time.
Its from_rows hook also finds the offered rows by position, and the bench
workloads call the series and quotient entry points by position.  A
relabelled block is echelonized through the same from_rows, so the hook
counts its rows when they are first read in order.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from lcsideals import quotients, series
from lcsideals.linalg import GradedSubspace

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_resolves():
    tracer = _load_tracer()
    assert tracer.TRACED
    for name, (mod_name, attr) in tracer.TRACED.items():
        owner = importlib.import_module(mod_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # the tracer patches the class attribute itself
            assert meth in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name
    for module in tracer.MODULES:
        importlib.import_module(module)
    assert set(tracer.CACHED) <= set(tracer.TRACED)


def test_from_rows_takes_the_rows_fourth():
    # the tracer wraps the function under the classmethod and replaces
    # args[3] (after cls, n and degree) by a counting iterator
    params = inspect.signature(vars(GradedSubspace)["from_rows"].__func__).parameters
    assert list(params)[:4] == ["cls", "n", "degree", "rows"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())


def test_reading_an_unordered_block_in_order_calls_from_rows_once():
    # a relabelled block (here of M_4) is echelonized by from_rows once; a
    # written-down block (here of L_2) is found in order and offers no row
    series.clear_caches()
    written = series.l_span(3, 2, 6, (1, 2, 3))
    S = series.m_span(3, 4, 6, (1, 2, 3))
    assert not S._ordered and not written._ordered
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert list(written.int_rows()) and written._ordered
        assert (len(tracer.built), tracer.counters["linalg.from_rows.rows_offered"]) == (0, 0)
        first = list(S.int_rows())
        after_first = (len(tracer.built), tracer.counters["linalg.from_rows.rows_offered"])
        assert list(S.int_rows()) == first
        assert S.pivot_words() and S.row_polys()
        after_second = (len(tracer.built), tracer.counters["linalg.from_rows.rows_offered"])
    finally:
        tracer.uninstall()
    assert after_first == after_second == (1, S.dim)


def test_bench_calls_keep_their_positional_parameters():
    # the quotient_dims and membership_warm workloads call these by position
    calls = {
        quotients.QuotientSpec: ["n", "i", "j"],
        quotients.quotient_dim: ["spec", "kind", "r", "d"],
        series.m_span: ["n", "k", "d"],
        series.l_span: ["n", "k", "d"],
    }
    for fn, names in calls.items():
        params = list(inspect.signature(fn).parameters.values())
        assert [p.name for p in params[: len(names)]] == names, fn
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params[: len(names)]), fn
        assert all(p.default is not p.empty for p in params[len(names) :]), fn


def test_package_exports_follow_the_tracer_patch():
    # the package resolves an export on each lookup and stores nothing, so
    # the tracer's patch of containment.containment_index shows through it
    # while installed and is gone after uninstall
    import lcsideals
    from lcsideals import containment

    original = containment.containment_index
    assert lcsideals.containment_index is original
    assert "containment_index" not in vars(lcsideals)
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        wrapper = lcsideals.containment_index
        assert wrapper is not original and wrapper.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert lcsideals.containment_index is original
