"""Every emdsteg name the perfbench worker reads must exist.

The worker reads module attributes such as ``schemes.embed_message`` only
when a benchmark sample runs, so a renamed or deleted name would otherwise
go unnoticed until then. Its source is read, not run.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
MODULES = ("bench", "bound", "cli", "image", "metrics", "schemes")


def _worker_reads():
    tree = ast.parse(WORKER_PATH.read_text(), filename=str(WORKER_PATH))
    return sorted(
        {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in MODULES
        }
    )


WORKER_READS = _worker_reads()


def test_worker_reads_found():
    assert ("schemes", "embed_message") in WORKER_READS


@pytest.mark.parametrize("module_name,name", WORKER_READS)
def test_worker_name_resolves(module_name, name):
    module = importlib.import_module(f"emdsteg.{module_name}")
    assert hasattr(module, name)
