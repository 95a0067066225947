import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
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


def _run_python(code, cwd):
    src = str(Path(eig_mlmc.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-c", code], cwd=cwd, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True).stdout


def test_scipy_loads_only_for_the_beta_schedule(tmp_path):
    # Linear runs need no scipy at all: with scipy unimportable, a linear
    # estimate and a linear rate study exit 0.
    config = '{"model": "linear", "eps": [0.05], "seed": 0, "diagnostics_levels": 2, "diagnostics_samples": 200}'
    (tmp_path / "linear.json").write_text(config)
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from eig_mlmc.cli import main\n"
        "print(main(['--config', 'linear.json', '--output-dir', 'est']),"
        " main(['--config', 'linear.json', '--mode', 'rate-study', '--output-dir', 'rates']))"
    )
    assert _run_python(code, tmp_path).endswith("0 0\n")
    # The PK model's default beta schedule is one inverse-CDF call: it loads
    # scipy.special, no root finder and no scipy.linalg.
    code = (
        "import sys; from eig_mlmc import make_pk_model; from eig_mlmc.models import PkSpec\n"
        "make_pk_model(PkSpec())\n"
        "print([m in sys.modules for m in ('scipy.special', 'scipy.linalg', 'scipy.optimize')])"
    )
    assert _run_python(code, tmp_path) == "[True, False, False]\n"
