"""The public names of dimlift: each is listed once, in the __all__ of the
module that defines it, and the two package __init__ files only gather
those lists."""

import dimlift
import dimlift.functionals
from dimlift import errors, fields, integrate, lift, weights
from dimlift.functionals import carleman, frequency, geometry, harmonic_map, sweeps, two_phase

PACKAGE_MODULES = (errors, lift, weights, integrate)
FUNCTIONAL_MODULES = (carleman, frequency, geometry, harmonic_map, sweeps, two_phase)


def _names(modules) -> list:
    return [name for module in modules for name in module.__all__]


def test_package_all_is_its_modules_lists_plus_the_subpackages_and_version():
    assert dimlift.__all__ == _names(PACKAGE_MODULES) + ["fields", "functionals", "__version__"]
    assert dimlift.fields is fields
    assert isinstance(dimlift.__version__, str)


def test_functionals_all_is_the_union_of_its_modules_lists():
    assert dimlift.functionals.__all__ == _names(FUNCTIONAL_MODULES)


def test_no_name_is_listed_in_two_module_lists():
    names = _names(PACKAGE_MODULES + (fields,) + FUNCTIONAL_MODULES)
    assert len(names) == len(set(names))
    assert "fields" not in names and "functionals" not in names and "__version__" not in names


def test_every_public_name_is_the_object_of_the_module_that_defines_it():
    gathered = [(dimlift, m) for m in PACKAGE_MODULES] + [(dimlift.functionals, m) for m in FUNCTIONAL_MODULES]
    for package, module in gathered + [(fields, fields)]:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(package, name) is obj, (package.__name__, name)
            # defined there, not imported into it from another module
            assert obj.__module__ == module.__name__, (module.__name__, name)


def test_star_imports_give_exactly_the_listed_names():
    for package in (dimlift, dimlift.functionals):
        space: dict = {}
        exec(f"from {package.__name__} import *", space)
        assert sorted(k for k in space if k != "__builtins__") == sorted(package.__all__)


def test_the_right_hand_side_has_no_class():
    # h (or H) of the elliptic lower bounds is a plain callable of y
    assert not hasattr(fields, "NonhomTerm")
    assert "NonhomTerm" not in fields.__all__


def test_no_field_is_fitted_to_data():
    # a user's own data enters as a SpaceTimeField the user writes
    for name in ("caloric_from_data", "caloric_from_csv"):
        assert not hasattr(fields, name)
        assert name not in fields.__all__
