"""Every callable that the benchmark's tracer wraps exists in the package.

``perfbench/tracer.py`` lists its targets as ``(module, attribute path)``
pairs, and a traced run fails on the first one that no longer resolves.  The
list is read from the tracer's source, so the tracer is never imported.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets():
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER.name}")


def test_every_traced_target_resolves():
    targets = traced_targets()
    assert targets
    missing = []
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert missing == []
