import ast
import importlib
import pkgutil
import re
from pathlib import Path

import eig_mlmc

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["eig_mlmc"] + [f"eig_mlmc.{m.name}" for m in pkgutil.iter_modules(eig_mlmc.__path__)]


def test_all_names_resolve():
    # Every exported name, in the package and in each module, must exist.
    missing = []
    for name in MODULES:
        module = importlib.import_module(name)
        missing += [f"{name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing


def _names_used(source: str) -> set[str]:
    """Names that Python code reads: imports, definitions and the strings of
    ``__all__`` are other node types and do not count."""
    tree = ast.parse(source)
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)
    }


def test_exported_names_have_a_caller():
    # Every exported name is used outside the tests: by code in src/, demos/
    # or perfbench/, or in README.md (its prose, or the code of its examples).
    used = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        used |= _names_used(path.read_text())
    readme = (ROOT / "README.md").read_text()
    for block in re.findall(r"```python\n(.*?)```", readme, flags=re.S):
        used |= _names_used(block)
    prose = re.sub(r"```python\n.*?```", "", readme, flags=re.S)
    unused = []
    for name in MODULES:
        module = importlib.import_module(name)
        unused += [f"{name}.{a}" for a in getattr(module, "__all__", ())
                   if a not in used and not re.search(rf"\b{re.escape(a)}\b", prose)]
    assert not unused
