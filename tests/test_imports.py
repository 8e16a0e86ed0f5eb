"""Which modules a fresh interpreter loads: a cold CLI question compiles
only what it needs.  Each check runs in its own interpreter without site
(-S), so packages that the environment preloads do not count."""

import json
import subprocess
import sys
from pathlib import Path

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
    return json.loads(done.stdout)


def test_cli_loads_no_dataclasses_inspect_or_quotients():
    modules = set(loaded_after("import lcsideals.cli"))
    assert "lcsideals.containment" in modules
    assert not modules & {"dataclasses", "inspect", "lcsideals.quotients"}


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
