"""perfbench/tracing.py wraps module attributes of retouchkit by name, so a
renamed one fails here, not only in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

from retouchkit import dataset, loop, media_io, metrics, providers, textmetrics

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (dataset, loop, media_io, metrics, providers, textmetrics)


def attributes():
    return {(mod.__name__, name): value for mod in MODULES for name, value in vars(mod).items()}


def test_instrument_wraps_attributes_of_src_and_restores_each_on_exit(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    before = attributes()
    with tracing.instrument(tracing.Tracer()):
        inside = attributes()
    after = attributes()
    wrapped = {key for key, value in before.items() if inside[key] is not value}
    assert {("retouchkit.loop", "propose_masks"), ("retouchkit.providers", "write_float_grid")} <= wrapped
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
