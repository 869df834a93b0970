"""The traced benchmark wraps refdiff layer functions by name: every target
it lists must still exist, or a traced run fails before it measures."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for modname, attr, name, _ in targets:
        mod = importlib.import_module(modname)
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert meth in getattr(mod, cls_name).__dict__, name
        else:
            assert callable(getattr(mod, attr, None)), name
