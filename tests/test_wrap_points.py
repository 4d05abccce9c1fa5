"""Every call the benchmark's traced runs wrap must exist in the package.

perfbench/tracing.py wraps functions by attribute name; a rename or deletion
here would only show as a crash inside a traced benchmark run.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracing.py"
)


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.wrap_points()


WRAP_POINTS = _wrap_points()


@pytest.mark.parametrize(
    "owner, attr",
    [point[:2] for point in WRAP_POINTS],
    ids=[f"{point[0].__name__}.{point[1]}" for point in WRAP_POINTS],
)
def test_wrap_point_resolves(owner, attr):
    assert callable(getattr(owner, attr))
