"""The traced benchmark run wraps bmlab functions by name: every target
in perfbench/spans.py must still resolve, or `perfbench/run.py --trace 1`
breaks without a test noticing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attribute",
                         [(m, a) for m, a, _, _ in _targets()])
def test_span_target_resolves(module_name, attribute):
    module = importlib.import_module(module_name)
    if "." in attribute:
        # install() wraps cls.__dict__[method]: the class must define it itself
        cls_name, method = attribute.split(".")
        cls = getattr(module, cls_name)
        assert method in cls.__dict__, f"{cls_name} has no own {method!r}"
        assert callable(cls.__dict__[method])
    else:
        assert callable(getattr(module, attribute))
