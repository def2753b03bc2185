"""Each module's ``__all__`` names exactly its public functions and classes."""

import importlib
import inspect

import pytest

MODULES = ("comparison_functions", "signals", "simulator", "lyapunov_tools",
           "stability_certificates", "converse_construction", "cli_harness")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_the_public_definitions(name):
    mod = importlib.import_module(f"ipss_lab.{name}")
    defined = {attr for attr, val in vars(mod).items()
               if not attr.startswith("_") and (inspect.isfunction(val) or inspect.isclass(val))
               and val.__module__ == mod.__name__}
    assert all(hasattr(mod, attr) for attr in mod.__all__)  # no stale entry
    listed = {attr for attr in mod.__all__
              if inspect.isfunction(getattr(mod, attr)) or inspect.isclass(getattr(mod, attr))}
    assert listed == defined
