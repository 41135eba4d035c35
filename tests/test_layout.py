"""The production core imports no oracle.

`model.py` and `pricer.py` value every option; the kernels, the quadrature
and the Monte Carlo estimators only check them.  So the core may import
from itself, but from no other module of the package.  The kernels import
nothing from the package, so their check of the pricer shares no code
with it.
"""

import ast
import inspect
from pathlib import Path

import pytest

from vasicek_barrier import pricer

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vasicek_barrier"
CORE = {"model", "pricer"}


def _sibling_imports(path: Path) -> set:
    """Names of the package modules that ``path`` imports."""
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against the package
                base = "vasicek_barrier" + ("." + base if base else "")
            dotted = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "vasicek_barrier" and len(parts) > 1 and parts[1] in siblings:
                found.add(parts[1])
    return found


@pytest.mark.parametrize("module", sorted(CORE))
def test_core_imports_no_oracle(module):
    imported = _sibling_imports(PACKAGE / f"{module}.py")
    assert imported <= CORE, f"{module}.py imports {sorted(imported - CORE)}"


def test_kernels_import_nothing_from_the_package():
    assert _sibling_imports(PACKAGE / "kernels.py") == set()


def test_import_scan_sees_oracle_imports():
    # the checks above must be able to fail: the oracles import the core
    assert _sibling_imports(PACKAGE / "mc_oracle.py") == {"model", "pricer"}
    assert {"kernels", "model", "pricer", "quadrature"} <= _sibling_imports(
        PACKAGE / "quad_oracle.py")


def test_model_imports_no_numpy():
    # the closed forms are written once, on floats with math
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "math" in imported and "numpy" not in imported


@pytest.mark.parametrize("name", ["price", "price_single_barrier", "price_double_barrier",
                                  "price_curve", "log_forward"])
def test_public_pricers_take_no_cached_terms(name):
    # every price evaluates its bond and variance afresh
    assert "terms" not in inspect.signature(getattr(pricer, name)).parameters
