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
