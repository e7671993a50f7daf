"""The benchmark's span probes name functions that exist in the package.

`perfbench/child.py` wraps each `PROBES` entry where its caller looks it
up; a probe whose name a refactor removed would only fail when the
benchmark runs. This test loads the file as it is and resolves every
entry the way its tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).parents[1] / "perfbench" / "child.py"


def _probes():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.PROBES


@pytest.mark.parametrize("module_name, attr, span", _probes(), ids=str)
def test_probe_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # The tracer patches the class's own attribute, not an inherited one.
        assert attr in owner.__dict__, f"{module_name}.{cls_name} has no {attr}"
    assert callable(getattr(owner, attr, None)), f"{module_name} has no {attr}"
