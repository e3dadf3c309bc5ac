"""The benchmark's trace points still exist.

``perfbench/tracing.py`` wraps a fixed list of program entry points
(``TARGETS``) to attribute time per layer; an entry point a refactor
renames or deletes silently reads zero in the traced run.  This test
loads that file (without installing anything) and checks that every
target resolves to an attribute the tracer can patch.
"""

import importlib
import importlib.util
import pathlib

TRACING = (pathlib.Path(__file__).resolve().parents[2]
           / "perfbench" / "tracing.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = load_targets()
    assert targets
    missing = []
    for _kind, module_name, owner, attr in targets:
        module = importlib.import_module(module_name)
        holder = getattr(module, owner, None) if owner else module
        if holder is None or attr not in vars(holder):
            missing.append(f"{module_name}:{owner or ''}.{attr}")
    assert missing == []
