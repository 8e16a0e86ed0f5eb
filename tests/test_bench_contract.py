"""The bench tracer names package functions by string: keep those names live.

perfbench/tracer.py wraps each TRACED entry by module and attribute name;
a rename in the package would make traced bench runs fail at install time.
Its from_rows hook also finds the offered rows by position.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

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
