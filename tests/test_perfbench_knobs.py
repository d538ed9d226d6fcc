"""The engine fields the benchmark harness reports.

``perfbench/workloads.py`` records, for every run, the engine
configuration the library chose on its own (``effective_knobs``).  This
pins the engine attributes it reads, so a change to the engine cannot
break the harness unnoticed.
"""

import importlib.util
import os
import sys
from pathlib import Path

from repro.core.engine import VerificationEngine

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class StubWorkload:
    def engines(self):
        return [VerificationEngine()]


def test_effective_knobs_reads_the_serial_engine(monkeypatch):
    for name in [k for k in os.environ if k.startswith("RVAAS_")]:
        monkeypatch.delenv(name)
    knobs = load_workloads().effective_knobs(StubWorkload())
    assert knobs == {
        "backend": "wildcard",
        "pool_mode": "serial",
        "pool_workers": 1,
        "rvaas_env": [],
    }
