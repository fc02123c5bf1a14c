"""Every call the benchmark's tracer wraps still exists in the program.

``perfbench/tracing.py`` names functions and methods by module and
attribute (``WRAP_POINTS``); a rename or deletion here would silently drop
a span from the per-layer numbers, or make the traced run fail.  A dotted
attribute must be a method defined in the class's own ``__dict__``, since
that is where the tracer rebinds it.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "modname, attr", [(m, a) for _, m, a, _ in tracing.WRAP_POINTS], ids=lambda x: x
)
def test_wrap_point_resolves(modname, attr):
    mod = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), f"{modname}.{attr} is not defined on its class"
    else:
        assert callable(getattr(mod, attr, None)), f"{modname}.{attr} is gone"
