"""The production core imports no oracle, and loads no numpy.

`model.py` and `pricer.py` value every option; the kernels, the quadrature
and the Monte Carlo estimators only check them.  So the core may import
from itself, but from no other module of the package.  The kernels import
nothing from the package, so their check of the pricer shares no code
with it.  The oracles share with the core only the names listed in
`SHARED`.  Importing the package and pricing, from the library or through
`cli price`, loads the standard library only: the oracles and numpy load
on first use.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import vasicek_barrier
from vasicek_barrier import pricer

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vasicek_barrier"
CORE = {"model", "pricer"}
ORACLES = ("kernels", "mc_oracle", "quad_oracle", "quadrature")

# The core names each oracle imports, by core module.  A check cannot catch
# an error in what it shares with the pricer, so a new entry is reviewed.
SHARED = {
    "mc_oracle": {"model": {"VasicekParams", "b_factor", "integrated_variance",
                            "log_bond_price"},
                  "pricer": {"MarketState", "OptionSpec", "log_forward"}},
    "quad_oracle": {"model": {"VasicekParams", "bond_price", "integrated_variance",
                              "b_factor", "_finite", "_check_order", "_LOG_FLOAT_MAX",
                              "_BOND_INPUTS"},
                    "pricer": {"MarketState", "OptionSpec", "PriceResult", "log_forward"}},
}


def _imports(path: Path):
    """(module, name) for each package name ``path`` imports, at any depth.

    ``module`` is the package module; ``name`` is None for the whole module.
    The walk sees the imports inside functions too.
    """
    siblings = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative: resolve against the package
                base = "vasicek_barrier" + ("." + base if base else "")
            parts = base.split(".")
            if parts[0] != "vasicek_barrier":
                continue
            for alias in node.names:
                if len(parts) > 1 and parts[1] in siblings:
                    yield parts[1], alias.name
                elif len(parts) == 1 and alias.name in siblings:
                    yield alias.name, None
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "vasicek_barrier" and len(parts) > 1 and parts[1] in siblings:
                    yield parts[1], None


def _sibling_imports(path: Path) -> set:
    """Names of the package modules that ``path`` imports."""
    return {module for module, _ in _imports(path)}


@pytest.mark.parametrize("module", sorted(CORE))
def test_core_imports_no_oracle(module):
    imported = _sibling_imports(PACKAGE / f"{module}.py")
    assert imported <= CORE, f"{module}.py imports {sorted(imported - CORE)}"


def test_kernels_import_nothing_from_the_package():
    assert _sibling_imports(PACKAGE / "kernels.py") == set()


def test_import_scan_sees_oracle_imports():
    # the checks above must be able to fail: the oracles import the core,
    # and the CLI imports every oracle, inside the functions that use it
    assert _sibling_imports(PACKAGE / "mc_oracle.py") == {"model", "pricer"}
    assert {"kernels", "model", "pricer", "quadrature"} <= _sibling_imports(
        PACKAGE / "quad_oracle.py")
    assert set(ORACLES) <= _sibling_imports(PACKAGE / "cli.py")


def test_quadrature_oracle_takes_one_kernel():
    # both barrier kinds integrate the one corridor kernel, lower = -inf for
    # the up-and-out, so there is no kernel to pick by kind
    assert [(module, name) for module, name in _imports(PACKAGE / "quad_oracle.py")
            if module == "kernels"] == [("kernels", "double_barrier_kernel")]


@pytest.mark.parametrize("oracle", sorted(SHARED))
def test_oracle_shares_only_the_listed_core_names(oracle):
    shared = {}
    for module, name in _imports(PACKAGE / f"{oracle}.py"):
        if module in CORE:
            shared.setdefault(module, set()).add(name)
    assert shared == SHARED[oracle]


def test_model_imports_no_numpy():
    # the closed forms are written once, on floats with math
    tree = ast.parse((PACKAGE / "model.py").read_text(encoding="utf-8"))
    imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "math" in imported and "numpy" not in imported


@pytest.mark.parametrize("module", sorted(CORE))
def test_core_imports_no_scipy(module):
    # the scipy-backed references (the ODE bond) live in `quad_oracle`; the
    # walk sees the imports inside function bodies too
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)}
    assert "math" in imported
    assert not {name for name in imported if name.partition(".")[0] == "scipy"}


@pytest.mark.parametrize("name", ["price", "price_single_barrier", "price_double_barrier",
                                  "price_curve", "log_forward"])
def test_public_pricers_take_no_cached_terms(name):
    # every price evaluates its bond and variance afresh
    assert "terms" not in inspect.signature(getattr(pricer, name)).parameters


def test_pricing_loads_neither_numpy_nor_scipy():
    # a fresh interpreter prices both kinds from the library and by `price`
    script = textwrap.dedent("""
        import math, sys
        import vasicek_barrier as vb
        from vasicek_barrier import cli

        p = vb.VasicekParams(a=1.0, theta=0.04, sigma1=0.3, sigma2=0.3, rho=0.5, r0=0.05)
        state = vb.MarketState(spot=110.0, rate=0.05)
        single = vb.OptionSpec.single_up(100.0, 1.0, math.log(130.0))
        double = vb.OptionSpec.double(100.0, 1.0, math.log(100.0), math.log(130.0))
        assert vb.price_single_barrier(state, single, p).price > 0.0
        assert vb.price_double_barrier(state, double, p).price > 0.0
        assert cli.main(["price", "--spot", "110"]) == 0
        assert cli.main(["price", "--barrier-low", "4.6", "--barrier-high", "4.9"]) == 0
        print(sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")))
    """)
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout.splitlines() == ["110.0,0.5328242508711803",
                                        "110.0,0.009474746184254325", "[]"]


@pytest.mark.parametrize("name", vasicek_barrier.__all__)
def test_every_public_name_resolves_to_its_defining_module(name):
    value = getattr(vasicek_barrier, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("vasicek_barrier.")
    assert getattr(home, name) is value
    assert name in dir(vasicek_barrier)


@pytest.mark.parametrize("module", ORACLES)
def test_oracle_modules_resolve_as_attributes(module):
    assert getattr(vasicek_barrier, module) is importlib.import_module(
        f"vasicek_barrier.{module}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        vasicek_barrier.no_such_name


def test_every_helper_the_benchmark_traces_exists():
    # the benchmark's tracer wraps these by name, and reads a renamed one as
    # missing; its TARGETS tuple is read as text, so nothing of it is imported
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    targets = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    assert len(targets) == 1 and targets[0]
    missing = [f"{module}.{name}" for module, name in targets[0]
               if not callable(getattr(importlib.import_module(f"vasicek_barrier.{module}"),
                                       name, None))]
    assert missing == []
