"""The package export lists exactly the library modules' public names."""
import importlib
import pkgutil

import ptgames as pg


def test_package_exports_exactly_the_library_modules_names():
    # cli is the command line, not the library; its names stay in ptgames.cli
    modules = [
        importlib.import_module(f"ptgames.{info.name}")
        for info in pkgutil.iter_modules(pg.__path__)
        if info.name != "cli"
    ]
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert len(set(pg.__all__)) == len(pg.__all__)
    assert set(pg.__all__) == set(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(pg, name) is getattr(module, name), name
