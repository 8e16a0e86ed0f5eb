"""The bench tracer names package functions by string: keep those names live.

perfbench/tracer.py wraps each TRACED entry by module and attribute name;
a rename in the package would make traced bench runs fail at install time.
"""

import importlib
import importlib.util
from pathlib import Path

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
