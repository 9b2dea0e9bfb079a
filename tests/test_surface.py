"""The package's public names are its layer modules' ``__all__`` lists,
each name declared in exactly one of them."""

import importlib
import types

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
