"""The benchmark's outside-in tracer (perfbench/tracer.py) rebinds names inside
causetrace. Renaming or deleting one of them breaks `perfbench/run.py --trace 1`;
this test catches that, and checks that `uninstall` restores every name."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_then_uninstall_restores_every_patch():
    tracer = _load_tracer_module().Tracer()
    try:
        tracer.install()
        patches = list(tracer._patches)
        originals = {}
        for owner, attr, original in patches:
            originals.setdefault((owner, attr), original)
        assert patches
        assert all(owner.__dict__[attr] is not original
                   for (owner, attr), original in originals.items())
    finally:
        tracer.uninstall()
    assert not tracer._patches
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr} not restored"
