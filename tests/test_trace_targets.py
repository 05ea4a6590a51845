"""Every function the benchmark's layer tracer wraps still exists under its name.

``perfbench/layer_trace.py`` patches junta_lab functions by module and
attribute name, so a rename in ``src/`` would make a traced run fail.  The
target lists are read from the tracer's source, which stays untouched.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def trace_targets():
    tree = ast.parse((ROOT / "perfbench" / "layer_trace.py").read_text(encoding="utf-8"))
    targets = {}
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for name in node.targets:
                if isinstance(name, ast.Name) and name.id in ("SPANS", "COUNTS"):
                    targets[name.id] = ast.literal_eval(node.value)
    assert set(targets) == {"SPANS", "COUNTS"}
    return [target for kind in ("SPANS", "COUNTS") for target in targets[kind]]


@pytest.mark.parametrize("module, attr, key", trace_targets(), ids=lambda v: str(v))
def test_trace_target_resolves(module, attr, key):
    owner = importlib.import_module(module)
    if "." in attr:
        # the tracer patches a method on the class that defines it
        class_name, method = attr.split(".")
        target = vars(getattr(owner, class_name))[method]
        target = getattr(target, "__func__", target)
    else:
        target = getattr(owner, attr)
    assert callable(target), f"{module}.{attr} ({key}) is not callable"
