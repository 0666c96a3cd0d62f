"""Every function the perfbench tracer wraps must exist in emdsteg.

The tracer looks its targets up by name only when a traced run starts, so a
renamed or deleted function would otherwise go unnoticed until then.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module_name,function_name", tracer.SPANNED + tracer.COUNTED)
def test_traced_name_resolves(module_name, function_name):
    module = importlib.import_module(f"emdsteg.{module_name}")
    assert callable(getattr(module, function_name, None))
