import importlib
import pkgutil

import chronolab


def test_every_name_in_every_module_all_resolves():
    # __main__ runs the CLI on import, and exports nothing
    names = [f"chronolab.{info.name}" for info in pkgutil.iter_modules(chronolab.__path__)
             if info.name != "__main__"]
    assert "chronolab.classical" in names
    stale = []
    for name in names:
        module = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                  if not hasattr(module, attr)]
    assert stale == []
