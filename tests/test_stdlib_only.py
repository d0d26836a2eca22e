"""The runtime package imports nothing but the standard library and itself."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qcong"
#: Start-up weight that no qcong module needs: class generation by
#: dataclasses (which pulls in inspect) and datetime for one UTC stamp.
HEAVY_MODULES = ("dataclasses", "inspect", "datetime")


def test_src_imports_only_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "qcong", f"{path.name}: {name}"


def test_importing_the_cli_loads_no_heavy_modules():
    # -S: no site, so no .pth import of the environment can hide or fake a load
    probe = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import qcong.cli; "
        f"print(' '.join(m for m in {HEAVY_MODULES!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == []
