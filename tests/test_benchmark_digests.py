"""The benchmark's loop outputs, pinned: the trace digests of the first
items of `loop_mock_dense` (in-process mocks) and `loop_http` (the loopback
stub) must not change under a refactor that keeps the loop's behaviour.
perfbench/workloads.py is loaded by path and run as the benchmark runs it."""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"

# sha256 of the concatenated Outcome.digest strings of the items below
MOCK_DENSE_DIGEST = "fad4cb0b8dcde4b1f9a08e16f910a5bdfe3907ef451b15df291c3e8f28b13e07"
HTTP_DIGEST = "93f8bd91e36eee8a550e201048a4b345cc38a27451a57c184c3a15dd6b2399c1"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # for its `import scenes`
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH_DIR / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up there
    spec.loader.exec_module(module)
    return module


def digest_of(workload, items: int) -> str:
    h = hashlib.sha256()
    for k in range(items):
        h.update(workload.run_item(k, "check").digest.encode())
    return h.hexdigest()


def test_loop_mock_dense_digests_are_pinned(workloads):
    assert digest_of(workloads.LoopMockDense(seed=7), 60) == MOCK_DENSE_DIGEST


def test_loop_http_digests_are_pinned(workloads):
    workload = workloads.LoopHttp(seed=4)
    try:
        assert digest_of(workload, 12) == HTTP_DIGEST
    finally:
        workload.close()
