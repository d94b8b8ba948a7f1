"""The hooks ``perfbench/`` patches into the program still exist and restore.

The repository benchmark (``perfbench/run.py``) imports program modules by
name and wraps methods through ``Tracer.patch``, which reads
``vars(owner)[attr]`` — so a traced method must stay defined on the class
perfbench names, not on a base class.  Tier-1 never runs the benchmark; this
test builds each workload, instruments it and restores it, so a refactor that
renames or moves a hooked attribute fails here rather than only in perfbench.
It reads ``perfbench/`` and changes nothing there.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for path in (os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")):
    if path not in sys.path:
        sys.path.insert(0, path)

import workloads  # noqa: E402  (needs perfbench/ on sys.path)

from harness import Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_instrument_then_restore_puts_every_original_back(name):
    workload = workloads.WORKLOADS[name](1)
    tracer = Tracer()
    try:
        workload.instrument(tracer)
        patched = list(tracer._patches)
        originals: "dict[tuple[int, str], tuple[object, str, object]]" = {}
        for owner, attr, raw in patched:
            originals.setdefault((id(owner), attr), (owner, attr, raw))
        for owner, attr, _raw in originals.values():
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner, attr)
    finally:
        tracer.restore()
    for owner, attr, raw in originals.values():
        assert vars(owner)[attr] is raw, (owner, attr)
        assert not hasattr(raw, "__wrapped__"), (owner, attr)

