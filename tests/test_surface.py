"""The package's public names are its layer modules' ``__all__`` lists,
each name declared in exactly one of them."""

import ast
import importlib
import types
from pathlib import Path

import demandgap
from demandgap import errors

LAYERS = ("errors", "exchange", "structure", "solvers", "leontief", "recession", "niot", "demo")


def test_package_all_joins_the_layer_lists():
    lists = [importlib.import_module(f"demandgap.{name}").__all__ for name in LAYERS]
    assert demandgap.__all__ == ["__version__", *(name for names in lists for name in names)]
    assert len(set(demandgap.__all__)) == len(demandgap.__all__)


def test_package_namespace_is_all_and_the_modules():
    public = {
        name for name, obj in vars(demandgap).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert public == set(demandgap.__all__) - {"__version__"}
    assert not {"parse_pi", "parse_blocks"} & set(dir(demandgap))  # CLI helpers


def test_errors_lists_every_error_class():
    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.DemandGapError)
    ]
    assert [cls.__name__ for cls in classes] == errors.__all__


def test_policy_is_imported_from_the_policy_module():
    # the input checks, float-range guard, band rule and warning site sit
    # below the exchange model: taken from _policy, which needs only errors
    policy = importlib.import_module("demandgap._policy")
    moved = {name for name, obj in vars(policy).items() if getattr(obj, "__module__", None) == policy.__name__}
    offenders, below = [], set()
    for path in sorted(Path(demandgap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            if path.name == "_policy.py":
                below.add(node.module)
            elif node.module == "exchange":
                offenders += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name in moved]
    assert offenders == []
    assert below == {"errors"}
