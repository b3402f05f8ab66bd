"""The package namespace re-exports exactly the public names of its modules."""

from __future__ import annotations

import algdiff
from algdiff import analysis, estimator, kernel, specfun, stochastic

MODULES = (specfun, kernel, estimator, analysis, stochastic)


def test_package_exports_the_union_of_the_module_exports():
    union = {name for module in MODULES for name in module.__all__}
    assert len(algdiff.__all__) == len(set(algdiff.__all__))
    assert set(algdiff.__all__) == union | {"__version__"}


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(algdiff, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert isinstance(algdiff.__version__, str)
