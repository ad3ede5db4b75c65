"""The public surface: each public name has one home, the module that
defines it, and the package re-exports it from that home alone."""

import ast
import importlib
import inspect
import pkgutil
import types

import pytest

import symdec

PUBLIC = sorted(m.name for m in pkgutil.iter_modules(symdec.__path__)
                if hasattr(importlib.import_module(f"symdec.{m.name}"),
                           "__all__"))


def _defined_names(module) -> set[str]:
    """Names bound at the top level of the module's source by a def, a
    class or an assignment, not by an import."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("name", PUBLIC)
def test_all_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"symdec.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert sorted(set(module.__all__) - _defined_names(module)) == []


def test_package_reexports_each_name_from_one_home():
    homes = {}
    for name in PUBLIC:
        module = importlib.import_module(f"symdec.{name}")
        for public in module.__all__:
            homes.setdefault(public, []).append(module)
    exported = [k for k, v in vars(symdec).items()
                if not k.startswith("_") and not isinstance(v, types.ModuleType)]
    assert exported
    for public in exported:
        assert len(homes.get(public, [])) == 1, (public, homes.get(public))
        assert getattr(symdec, public) is getattr(homes[public][0], public)
