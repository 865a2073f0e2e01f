"""The package namespaces resolve their public names on first use.

Every package ``__init__`` passes a ``{defining module: names}`` table
to :func:`repro._lazy_namespace` instead of importing its submodules
eagerly.  These tests hold each package to the contract the eager
re-exports used to give: every ``__all__`` name is reachable, is the
defining module's own object, shows in ``dir()`` and binds under
``import *``, while unknown names still raise :class:`AttributeError`.
"""

import ast
import importlib
import inspect
import types

import pytest

PACKAGES = [
    "repro",
    "repro.chaos",
    "repro.core",
    "repro.cost",
    "repro.disk",
    "repro.experiments",
    "repro.faults",
    "repro.metrics",
    "repro.obs",
    "repro.power",
    "repro.raid",
    "repro.serve",
    "repro.sim",
    "repro.tools",
    "repro.workloads",
]


def _exports(package):
    """The ``{module: names}`` table the package's ``__init__`` passes
    to ``_lazy_namespace``, read from its source."""
    for node in ast.walk(ast.parse(inspect.getsource(package))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_lazy_namespace"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package.__name__} has no lazy export table")


@pytest.mark.parametrize("name", PACKAGES)
def test_namespace_contract(name):
    package = importlib.import_module(name)
    table = _exports(package)
    defined_in = {
        export: module for module, names in table.items() for export in names
    }
    assert len(defined_in) == sum(len(names) for names in table.values())
    public = set(package.__all__)
    # Every table name is public; every public name is in the table
    # unless the package defines it itself (``repro.__version__``).
    assert set(defined_in) <= public
    for export in public - set(defined_in):
        assert export in vars(package), export

    for export in package.__all__:
        value = getattr(package, export)
        module = defined_in.get(export)
        if module is not None:
            assert module.startswith(name + "."), (export, module)
            assert value is getattr(importlib.import_module(module), export)
            if isinstance(value, (type, types.FunctionType)):
                assert value.__module__ == module, (export, value.__module__)

    assert public <= set(dir(package))

    bound = {}
    exec(f"from {name} import *", bound)
    assert public <= set(bound)
    for export in public:
        assert bound[export] is getattr(package, export)

    missing = "no_such_public_name"
    with pytest.raises(AttributeError, match=missing):
        getattr(package, missing)
    assert not hasattr(package, missing)
    assert getattr(package, missing, None) is None


def test_submodule_import_through_the_package():
    from repro.disk import seek

    assert isinstance(seek, types.ModuleType)
    assert seek.__name__ == "repro.disk.seek"
    assert seek.TwoPhaseSeekModel is importlib.import_module(
        "repro.disk"
    ).TwoPhaseSeekModel
