"""The reference layer stays out of the runtime modules.

`backstep.oracles` holds the brute-force checks; only the CLI (for
`cauchy-verify`) may import it, so `import backstep` does not load it, and
neither the package root nor a runtime module keeps a copy or an alias of
what lives there, the closed-loop checks included.  The TB = B certification
lives in `transform` alone, the allocator policy in `cli` alone, the node
differences in `cauchy`'s node table alone, a law's levels in `spectrum`'s
one law function alone, and no runtime module draws from numpy's random
module.  Names, fields, parameters and settings that no command reads stay
deleted.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from backstep import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "backstep"
MAY_IMPORT_ORACLES = {"cli.py"}
MOVED = ("oracle_inverse", "LogSignedProduct", "eval_J", "all_J",
         "bound_check_products", "bound_check_sums", "lower_bound_check_F",
         "ProductBoundReport", "SumBoundReport", "LowerBoundReport",
         "factorization_residual", "gain_cross_check",
         "chi", "verify_closed_loop_eigen", "ClosedLoopCheck",
         "operator_identity_residual", "condition_number",
         "measure_decay", "DecayReport", "inverse_product_residual")


def _imports_oracles(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "backstep.oracles" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            package = "backstep" if node.level else ""
            module = ".".join(p for p in (package, node.module) if p)
            if module == "backstep.oracles":
                return True
            if module == "backstep" and any(a.name == "oracles" for a in node.names):
                return True
    return False


def test_only_cli_and_root_import_oracles():
    for code in ("from .oracles import eval_J", "from . import oracles",
                 "import backstep.oracles", "from backstep import oracles"):
        assert _imports_oracles(ast.parse(code)), code
    assert not _imports_oracles(ast.parse("from .cauchy import csum"))
    importers = {p.name for p in SRC.glob("*.py")
                 if _imports_oracles(ast.parse(p.read_text(encoding="utf-8")))}
    assert importers == MAY_IMPORT_ORACLES


def test_moved_names_live_only_in_oracles():
    oracles = importlib.import_module("backstep.oracles")
    assert all(hasattr(oracles, name) for name in MOVED)
    for mod in ("cauchy", "spectrum", "transform", "quantitative", "simulate"):
        module = importlib.import_module(f"backstep.{mod}")
        assert [name for name in MOVED if hasattr(module, name)] == [], mod


DELETED = ("StateVector", "state", "norm_h", "norm_weighted", "ChiFunction",
           "tail_log_bound", "truncation_entry_bar", "CauchySystem", "DivergenceError",
           "_residual_rows")
# the oracles the package root used to re-export; they live in `oracles` alone
ROOT_DELETED = ("LogSignedProduct", "all_J", "bound_check_products", "bound_check_sums",
                "chi", "condition_number", "eval_J", "factorization_residual",
                "gain_cross_check", "lower_bound_check_F", "measure_decay",
                "operator_identity_residual", "oracle_inverse", "verify_closed_loop_eigen")


def test_deleted_names_stay_deleted():
    """The state is a plain coefficient array and `chi` returns one: no module
    keeps a wrapper type or a norm helper for it.  The one-sided truncation
    tail majorants are gone everywhere, and so is `CauchySystem`: the Cauchy
    kernels take a node table and lambda.  `DivergenceError` went with the
    null-control run's user growth constants, and the row-half T . T^-1
    product with the guard's N^3 evaluation.  The root re-exports no oracle."""
    for name in ["backstep"] + [f"backstep.{p.stem}" for p in SRC.glob("*.py")
                                if p.stem != "__init__"]:
        module = importlib.import_module(name)
        assert [n for n in DELETED if hasattr(module, n)] == [], name
    spectrum = importlib.import_module("backstep.spectrum")
    assert not hasattr(spectrum.SpectrumModel, "eigenvalue")
    oracles = importlib.import_module("backstep.oracles")
    assert all(hasattr(oracles, n) for n in ROOT_DELETED)
    root = importlib.import_module("backstep")
    assert [n for n in ROOT_DELETED if hasattr(root, n)] == []


# fields that copied another field or that nothing read
DELETED_FIELDS = (("spectrum", "SpectrumModel", ("gap_C",)),
                  ("quantitative", "CostReport", ("fitted_exponent",)),
                  ("transform", "BacksteppingSynthesis", ("kb",)),
                  ("simulate", "Stage", ("base",)),
                  ("simulate", "StageRecord", ("index", "lam", "delta")),
                  ("simulate", "NullControlReport", ("final_ratio_weighted",)))
# parameters that every caller gave one value, or that only a deleted check read
DELETED_PARAMS = (("simulate", "run_null_control", "samples_per_stage"),
                  ("simulate", "run_null_control", "growth_c_hat"),
                  ("simulate", "run_null_control", "growth_C_hat"),
                  ("oracles", "oracle_inverse", "pivot_rtol"),
                  ("oracles", "lower_bound_check_F", "n_probe"))


def test_deleted_fields_and_parameters_stay_deleted():
    for mod, cls, gone in DELETED_FIELDS:
        fields = {f.name for f in dataclasses.fields(
            getattr(importlib.import_module(f"backstep.{mod}"), cls))}
        assert fields and fields.isdisjoint(gone), cls
    for mod, func, gone in DELETED_PARAMS:
        params = inspect.signature(getattr(importlib.import_module(f"backstep.{mod}"), func))
        assert gone not in params.parameters, func


def test_synthesis_forms_no_matrix_product():
    """`assemble`, its TB = B pass and its T . T^-1 guard form no matrix
    product: the N^3 product T . T^-1 lives in `oracles` alone."""
    tree = ast.parse((SRC / "transform.py").read_text(encoding="utf-8"))
    kernels = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
               and n.name in ("assemble", "_tb_residuals", "inverse_residual")]
    assert len(kernels) == 3
    products = [ast.unparse(n) for fn in kernels for n in ast.walk(fn)
                if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)
                or isinstance(n, ast.Attribute)
                and n.attr in ("dot", "matmul", "einsum", "inner", "tensordot", "vdot")]
    assert products == []


def _python(code: str, *args: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _import_loads_oracles(module: str) -> bool:
    code = f"import sys, {module}; print('backstep.oracles' in sys.modules)"
    return _python(code).strip() == "True"


def test_package_import_leaves_oracles_unloaded():
    assert not _import_loads_oracles("backstep")


def test_cli_import_leaves_oracles_unloaded():
    # the CLI loads the reference layer inside `cauchy-verify` only, so no
    # other command's start-up pays for it
    assert not _import_loads_oracles("backstep.cli")


MAY_CALL_SVD = {"oracles.py"}


def _calls_svd(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "svd":
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") \
                and any(a.name == "svd" for a in node.names):
            return True
    return False


def test_one_norm_route_outside_the_oracles():
    """Operator norms take the Lanczos route in `transform.spectral_norm`; a
    dense SVD may appear only in the reference layer."""
    for code in ("np.linalg.svd(a)", "numpy.linalg.svd(a, compute_uv=False)",
                 "from numpy.linalg import svd", "sla.svd(a)"):
        assert _calls_svd(ast.parse(code)), code
    assert not _calls_svd(ast.parse("np.linalg.eigh(a)"))
    callers = {p.name for p in SRC.glob("*.py")
               if _calls_svd(ast.parse(p.read_text(encoding="utf-8")))}
    assert callers <= MAY_CALL_SVD


MAY_NAME_NUMPY_RANDOM = {"oracles.py"}


def _names_numpy_random(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random" \
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
            return True
        if isinstance(node, ast.Import) \
                and any(a.name.split(".")[:2] == ["numpy", "random"] for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and not node.level:
            module = (node.module or "").split(".")
            if module[:2] == ["numpy", "random"] or \
                    (module == ["numpy"] and any(a.name == "random" for a in node.names)):
                return True
    return False


def test_one_gaussian_source_outside_the_oracles():
    """Seeded Gaussian draws come from `transform.unit_gaussian` (Python's
    `random`); no runtime module names numpy.random, which costs ~6 MB of
    resident memory to load."""
    for code in ("np.random.default_rng(0)", "numpy.random.standard_normal(3)",
                 "import numpy.random", "import numpy.random as npr",
                 "from numpy import random", "from numpy.random import default_rng"):
        assert _names_numpy_random(ast.parse(code)), code
    for code in ("random.Random(0)", "import random", "from . import random",
                 "np.linalg.norm(y)", "rng.random()"):
        assert not _names_numpy_random(ast.parse(code)), code
    users = {p.name for p in SRC.glob("*.py")
             if _names_numpy_random(ast.parse(p.read_text(encoding="utf-8")))}
    assert users <= MAY_NAME_NUMPY_RANDOM


RANDOM_STATE_RUNS = """
import os, sys
from backstep import cli
os.chdir(sys.argv[1])
for argv in (["null-control", "--scale", "32", "--stages", "2", "--trunc", "16", "--y0-random"],
             ["simulate", "--lambda", "0.5", "--trunc", "8", "--y0-random", "--seed", "5"]):
    assert cli.main(argv) == 0, argv
print("numpy.random" in sys.modules)
"""


def test_random_state_runs_leave_numpy_random_unloaded(tmp_path):
    out = _python(RANDOM_STATE_RUNS, str(tmp_path)).splitlines()
    assert out[-1] == "False", out


CERTIFIES = "transform.py"
TB_FIELDS = ("tb_residual_max", "tb_residuals")


def _tb_certification(tree: ast.AST) -> list[str]:
    """Reads of a synthesis's TB = B residuals, and names of TB tolerances."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in TB_FIELDS:
            found.append(node.attr)
        elif isinstance(node, ast.Name) and re.search(r"TB.*TOL", node.id, re.I):
            found.append(node.id)
    return found


def test_one_certification_point():
    """`transform.assemble` certifies every synthesis against the TB = B bound;
    no other module keeps a tolerance for the residual or reads it."""
    for code in ("if synth.tb_residual_max > _TB_TOL: pass", "_TB_TOL = 1e-9",
                 "worst = max(s.tb_residuals)", "tb_tol = 1e-9"):
        assert _tb_certification(ast.parse(code)), code
    assert not _tb_certification(ast.parse("synth = assemble(model, lam, N, cert)"))
    offenders = {p.name: _tb_certification(ast.parse(p.read_text(encoding="utf-8")))
                 for p in SRC.glob("*.py") if p.name != CERTIFIES}
    assert {name: found for name, found in offenders.items() if found} == {}
    assert _tb_certification(ast.parse((SRC / CERTIFIES).read_text(encoding="utf-8")))


# resident pages that a freed synthesis-sized working set (eight 720 KB blocks,
# formed and freed twice) gives back to the OS, before and after the CLI's policy
HEAP_PROBE = """
import numpy as np
import backstep, backstep.cli

def released():
    def resident():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1])
    for _ in range(2):
        blocks = [np.ones(90_000) for _ in range(8)]
        full = resident()
        del blocks
    return full - resident()

untouched = released()
backstep.cli._retain_heap()
print(untouched, released())
"""


def test_only_the_cli_sets_the_allocator_policy():
    users = {p.name for p in SRC.glob("*.py") if "mallopt" in p.read_text(encoding="utf-8")}
    assert users == {"cli.py"}


@pytest.mark.skipif(not cli._glibc(), reason="the allocator policy is set through glibc's mallopt")
def test_package_import_leaves_the_allocator_alone():
    """After `import backstep` (and of `backstep.cli`) glibc still returns a
    freed working set to the OS; once `cli.main`'s policy is set it keeps it."""
    untouched, retained = map(int, _python(HEAP_PROBE).split())
    assert untouched > 8 * 100, (untouched, retained)     # ~176 pages a block
    assert retained < 50, (untouched, retained)


# (module, function) that may form an outer difference a[:, None] - a[None, :]:
# the node table, the gap report's level differences (levels, not nodes), and
# the T . T^-1 guard's differences d_p - d_m of TB = B defects (not nodes; its
# node separations are the table's inv_dx)
MAY_FORM_PAIRWISE_DIFFERENCES = {("cauchy.py", "of"), ("spectrum.py", "verify_gaps"),
                                 ("transform.py", "inverse_residual")}


def _is_column(node: ast.AST, first) -> bool:
    """`a[:, None]` (first=slice) or `a[None, :]` (first=None)."""
    if not (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 2):
        return False
    kinds = [isinstance(e, ast.Slice) for e in node.slice.elts]
    return kinds == ([True, False] if first is slice else [False, True])


def _is_outer_difference(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
        return (_is_column(node.left, slice) and _is_column(node.right, None) or
                _is_column(node.left, None) and _is_column(node.right, slice))
    return isinstance(node, ast.Attribute) and node.attr == "outer" and \
        isinstance(node.value, ast.Attribute) and node.value.attr == "subtract"


def _innermost_functions(tree: ast.AST, holds, where: str = "<module>") -> set[str]:
    """Names of the innermost functions that hold a node for which `holds` is true."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found |= _innermost_functions(node, holds, node.name)
        else:
            if holds(node):
                found.add(where)
            found |= _innermost_functions(node, holds, where)
    return found


def _pairwise_differences(tree: ast.AST) -> set[str]:
    """Names of the innermost functions that form outer differences, by
    broadcasting or by `subtract.outer`."""
    return _innermost_functions(tree, _is_outer_difference)


def test_node_differences_come_from_the_node_table():
    """The differences x_i - x_j are formed once per (model, N), in
    `cauchy.NodeTable.of`; no other runtime function forms pairwise
    differences of nodes, and `lagrange_products` forms no reciprocal of
    them: it calls no divide, and its one division is the complex path's
    1 / |f| for the unit signs.  The T . T^-1 guard reads its separations
    from the table's `inv_dx` and no other node data."""
    for code in ("def f(x): return x[:, None] - x[None, :]",
                 "def f(x): return np.abs(x[None, :] - x[:, None] - lam)",
                 "def f(x): return np.subtract.outer(x, x)"):
        assert _pairwise_differences(ast.parse(code)) == {"f"}, code
    for code in ("def f(w, m): return w[:, None] * m * (1.0 / w)[None, :]",
                 "def f(x): return x[:, None] - 1.0"):
        assert _pairwise_differences(ast.parse(code)) == set(), code
    assert _pairwise_differences(ast.parse("d = x[:, None] - x[None, :]")) == {"<module>"}
    runtime = [p for p in SRC.glob("*.py") if p.name != "oracles.py"]
    formers = {(p.name, name) for p in runtime
               for name in _pairwise_differences(ast.parse(p.read_text(encoding="utf-8")))}
    assert formers == MAY_FORM_PAIRWISE_DIFFERENCES

    tree = ast.parse((SRC / "cauchy.py").read_text(encoding="utf-8"))
    (kernel,) = [n for n in ast.walk(tree)
                 if isinstance(n, ast.FunctionDef) and n.name == "lagrange_products"]
    divides = [n.func.attr for n in ast.walk(kernel) if isinstance(n, ast.Call)
               and isinstance(n.func, ast.Attribute)
               and n.func.attr in ("divide", "true_divide", "reciprocal")]
    divisors = [ast.unparse(n.right if isinstance(n, ast.BinOp) else n.value)
                for n in ast.walk(kernel)
                if isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.Div)]
    assert divides == [] and divisors == ["logs"]

    tree = ast.parse((SRC / "transform.py").read_text(encoding="utf-8"))
    (guard,) = [n for n in ast.walk(tree)
                if isinstance(n, ast.FunctionDef) and n.name == "inverse_residual"]
    reads = {n.attr for n in ast.walk(guard) if isinstance(n, ast.Attribute)
             and isinstance(n.value, ast.Name) and n.value.id == "table"}
    assert reads == {"inv_dx"}


def test_n_max_is_no_setting():
    """A law model stores the modes its command needs, and its levels do not
    depend on how many that is: no command takes an n_max."""
    assert "n_max" not in cli._SETTINGS
    assert all("n_max" not in defaults for _, _, defaults in cli._COMMANDS.values())


# (module, function) that may raise to a model's exponent alpha: the law
# function, and the gap report's separation |k - n|^alpha (index differences,
# not levels)
MAY_RAISE_TO_ALPHA = {("spectrum.py", "_law_levels"), ("spectrum.py", "verify_gaps")}


def _is_alpha(node: ast.AST) -> bool:
    """`alpha`, `<x>.alpha` or `<x>["alpha"]`."""
    return (isinstance(node, ast.Name) and node.id == "alpha"
            or isinstance(node, ast.Attribute) and node.attr == "alpha"
            or isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value == "alpha")


def _raises_to_alpha(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return _is_alpha(node.right)
    if isinstance(node, ast.Call) and len(node.args) == 2:
        name = node.func.attr if isinstance(node.func, ast.Attribute) else \
            getattr(node.func, "id", None)
        return name in ("pow", "power", "float_power") and _is_alpha(node.args[1])
    return False


def _alpha_powers(tree: ast.AST) -> set[str]:
    """Names of the innermost functions that raise a value to alpha."""
    return _innermost_functions(tree, _raises_to_alpha)


def test_law_levels_come_from_one_function():
    """Every level of a power law is `spectrum._law_levels`'s array power, so
    a level's bits do not depend on the range it is evaluated over; no other
    runtime function raises to a model's alpha (powers of 1/alpha, the
    inverse law, and of alpha - 1 are other quantities)."""
    for code in ("def f(m, n): return m.scale * float(n) ** m.alpha",
                 "def f(n, alpha): return np.power(n, alpha)",
                 "def f(n, cfg): return math.pow(n, cfg['alpha'])",
                 "def f(n, alpha): return pow(n, alpha)"):
        assert _alpha_powers(ast.parse(code)) == {"f"}, code
    for code in ("def f(lam, m): return lam ** (1.0 / m.alpha)",
                 "def f(n, alpha): return n ** (alpha - 1.0)",
                 "def f(k, gamma): return k ** gamma"):
        assert _alpha_powers(ast.parse(code)) == set(), code
    runtime = [p for p in SRC.glob("*.py") if p.name != "oracles.py"]
    users = {(p.name, name) for p in runtime
             for name in _alpha_powers(ast.parse(p.read_text(encoding="utf-8")))}
    assert users == MAY_RAISE_TO_ALPHA
