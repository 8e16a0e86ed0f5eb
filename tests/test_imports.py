"""Which modules a fresh interpreter loads: a cold CLI question compiles
only what it needs.  Each check runs in its own interpreter without site
(-S), so packages that the environment preloads do not count."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(statement: str, report: str = "sorted(sys.modules)"):
    code = "\n".join(
        ["import sys", f"sys.path.insert(0, {str(SRC)!r})", statement,
         f"import json; print(json.dumps({report}))"]
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])  # after any report the statement prints


def test_cli_loads_no_dataclasses_inspect_or_quotients():
    modules = set(loaded_after("import lcsideals.cli"))
    assert not modules & {"dataclasses", "inspect", "lcsideals.quotients"}


# the package modules each verb loads: those that importing cli loads, and
# those of its question; pbw-degree straightens in lyndon and builds no span
CLI = {"lcsideals", "lcsideals.cli", "lcsideals.exprs", "lcsideals.freealg", "lcsideals.lyndon"}
SPANS = {"lcsideals.containment", "lcsideals.linalg", "lcsideals.series"}
VERBS = [
    (["pbw-degree", "--n", "2", "--expr", "[x1,x2]*x1"], CLI),
    (["verify-identities", "--n", "3"], CLI),
    (["containment", "--n", "2", "--tuple", "2,2", "--cutoff", "5"], CLI | SPANS),
]


@pytest.mark.parametrize("argv,loaded", VERBS)
def test_a_verb_loads_only_the_modules_it_asks(argv, loaded):
    modules = set(loaded_after(f"from lcsideals import cli\nassert cli.main({argv!r}) == 0"))
    assert {m for m in modules if m.split(".")[0] == "lcsideals"} == loaded
    assert not modules & {"dataclasses", "inspect"}


def test_package_import_loads_no_submodule():
    modules = loaded_after("import lcsideals")
    assert [m for m in modules if m.startswith("lcsideals.")] == []


def test_star_import_binds_every_export():
    missing, unknown = loaded_after(
        "import lcsideals\nfrom lcsideals import *\n"
        "unknown = hasattr(lcsideals, 'no_such_name')",
        "[[n for n in lcsideals.__all__ if n not in globals()], unknown]",
    )
    assert missing == [] and unknown is False
