"""Memory gates: the tracemalloc peak of `propose_masks`, a mock `run_loop`,
`ground_truth_map`, `evaluate_all` and `trace_to_json` stays under
a·pixels + b·n + c, so it grows with pixels and with n, and not with their
product. n counts set pixels for the first two, regions for
`ground_truth_map`, fixations for `evaluate_all` and the regions a trace
records for `trace_to_json`.

Each loop field holds radius-3 discs of heights 0.55-1.0 (set pixels are
those >= 0.5); each annotation record holds `discs` regions at seeded
centres. The bounds were fitted as the smallest upper envelope (a linear
program) of the peaks on the grid 128², 256², 512² × 10, 100, 400 discs
(numpy 2.4, CPython 3.11) and rounded up; MARGIN then leaves 25% for other
numpy and CPython versions. 384² with 250 discs is a point the fit did not
use. A region that holds a full-frame mask costs pixels × regions, which
these bounds do not allow.

Next to them, a count gate: the mock loop makes one inpaint call per (tool,
instruction) group of each iteration."""

import json
import tracemalloc

import numpy as np
import pytest

from retouchkit.dataset import AnnotationRecord, DistortionCategory, RegionAnnotation, ground_truth_map
from retouchkit.loop import LoopConfig, LoopProviders, run_loop, trace_to_json
from retouchkit.media_io import ImageBuffer
from retouchkit.metrics import evaluate_all
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SyntheticScene,
    ToolDescriptor,
)
from retouchkit.saliency import SaliencyMap, propose_masks
from test_loop import FaultAt, inpaint_calls

MARGIN = 1.25
# (a bytes per pixel, b bytes per n, c bytes); the fit gave (2.88, 131,
# 20,982), (10.84, 106, 22,676), (9.99, 47, 3,243), (47.99, 0, 2,182) and
# (0, 1,760, 699)
PROPOSE_BOUND = (3.0, 136, 24_000)
LOOP_BOUND = (11.0, 112, 24_000)
GROUND_TRUTH_BOUND = (10.0, 48, 4_000)
EVALUATE_BOUND = (48.0, 40, 3_000)
TRACE_BOUND = (0.0, 1_800, 1_000)

GRID = [(side, discs) for side in (128, 256, 512) for discs in (10, 100, 400)]
HELD_OUT = [(384, 250)]


def disc_field(side, discs):
    """A float32 field with `discs` radius-3 discs at seeded centres."""
    rng = np.random.default_rng([side, discs])
    field = np.zeros((side, side), np.float32)
    yy, xx = np.mgrid[-3:4, -3:4]
    disc = yy**2 + xx**2 <= 9
    centres = rng.integers(3, side - 3, (discs, 2))
    heights = rng.uniform(0.55, 1.0, discs).astype(np.float32)
    for (cy, cx), h in zip(centres, heights):
        window = field[cy - 3 : cy + 4, cx - 3 : cx + 4]
        np.maximum(window, np.where(disc, h, np.float32(0)), out=window)
    return field


def annotation(side, regions):
    """A side × side record with `regions` regions at seeded centres."""
    rng = np.random.default_rng([side, regions, 1])
    cats = list(DistortionCategory)
    return AnnotationRecord(
        "img",
        "img.pnm",
        "p",
        side,
        side,
        tuple(
            RegionAnnotation((int(x), int(y)), cats[i % len(cats)], "d", "a0")
            for i, (x, y) in enumerate(rng.integers(0, side, (regions, 2)))
        ),
    )


def mock_loop(field):
    """The image and mock providers of a scene over `field`, with one tool
    of each kind."""
    image = ImageBuffer.from_array(np.full(field.shape, 100, np.uint8))
    scene = SyntheticScene(image, field)
    instruct = ToolDescriptor("mock-instruct", INSTRUCTION_DRIVEN)
    tools = [MockInpaintTool(scene), MockInpaintTool(scene, instruct)]
    return image, LoopProviders(MockPerceptionProvider(scene), MockReasoningProvider(), tools)


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bound(coefficients, pixels, n):
    a, b, c = coefficients
    return MARGIN * (a * pixels + b * n + c)


def set_pixels(field):
    return np.count_nonzero(field >= 0.5)


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_propose_masks_peak_is_linear_in_pixels_and_set_pixels(side, discs):
    field = disc_field(side, discs)
    smap = SaliencyMap.from_array(field)
    limit = bound(PROPOSE_BOUND, field.size, set_pixels(field))
    assert peak_bytes(lambda: propose_masks(smap, 0.5, 1, 4)) <= limit


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_run_loop_peak_is_linear_in_pixels_and_set_pixels(side, discs):
    # the default LoopConfig and one tool of each kind
    field = disc_field(side, discs)
    image, provs = mock_loop(field)
    limit = bound(LOOP_BOUND, field.size, set_pixels(field))  # before the loop decays the field
    assert peak_bytes(lambda: run_loop(image, "p", provs, LoopConfig())) <= limit


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_ground_truth_map_peak_is_linear_in_pixels_and_regions(side, discs):
    record = annotation(side, discs)
    limit = bound(GROUND_TRUTH_BOUND, side * side, discs)
    assert peak_bytes(lambda: ground_truth_map(record)) <= limit


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_evaluate_all_peak_is_linear_in_pixels_and_fixations(side, discs):
    # a continuous prediction, so every pixel value is distinct; both maps
    # are widened to float64 inside the measurement, as in evaluate-saliency
    truth, fix = ground_truth_map(annotation(side, discs))
    pred = SaliencyMap.from_array(np.random.default_rng([side, discs, 2]).random((side, side), np.float32))
    limit = bound(EVALUATE_BOUND, side * side, len(fix))
    assert peak_bytes(lambda: evaluate_all(pred, truth, fix)) <= limit


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_trace_to_json_peak_is_linear_in_regions(side, discs):
    # a trace holds no pixels: its images are written as file references
    image, provs = mock_loop(disc_field(side, discs))
    trace = run_loop(image, "p", provs, LoopConfig())
    regions = sum(len(rec.regions) for rec in trace.records)
    assert peak_bytes(lambda: trace_to_json(trace)) <= bound(TRACE_BOUND, image.width * image.height, regions)


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_run_loop_makes_one_inpaint_call_per_group(side, discs):
    image, provs = mock_loop(disc_field(side, discs))
    counted = FaultAt(provs)  # with no fault, it only counts
    trace = run_loop(image, "p", counted.providers, LoopConfig())
    records = json.loads(trace_to_json(trace))["records"]
    assert len(counted.images) == sum(len(inpaint_calls(rec)) for rec in records)
