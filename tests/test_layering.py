"""The reference layer stays out of the runtime modules.

`backstep.oracles` holds the brute-force checks; only the CLI (for
`cauchy-verify`) and the package root may import it, and no runtime module
keeps a copy or an alias of what moved there.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "backstep"
MAY_IMPORT_ORACLES = {"cli.py", "__init__.py"}
MOVED = ("oracle_inverse", "LogSignedProduct", "eval_J", "all_J",
         "bound_check_products", "bound_check_sums", "lower_bound_check_F",
         "ProductBoundReport", "SumBoundReport", "LowerBoundReport",
         "factorization_residual")


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
