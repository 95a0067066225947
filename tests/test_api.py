import importlib
import pkgutil

import eig_mlmc


def test_all_names_resolve():
    # Every exported name, in the package and in each module, must exist.
    names = ["eig_mlmc"] + [f"eig_mlmc.{m.name}" for m in pkgutil.iter_modules(eig_mlmc.__path__)]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert not missing
