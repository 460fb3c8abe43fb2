"""Memory gates: the tracemalloc peak of `propose_masks` and of a mock
`run_loop` stays under a·pixels + b·set_pixels + c, so it grows with pixels
and with set pixels, and not with their product.

Each field holds radius-3 discs of heights 0.55-1.0 (set pixels are those
>= 0.5). The bounds were fitted as the smallest upper envelope (a linear
program) of the peaks on the grid 128², 256², 512² × 10, 100, 400 discs
(numpy 2.4, CPython 3.11) and rounded up; MARGIN then leaves 25% for other
numpy and CPython versions. 384² with 250 discs is a point the fit did not
use. A region that holds a full-frame mask costs pixels × regions, which
these bounds do not allow."""

import tracemalloc

import numpy as np
import pytest

from retouchkit.loop import LoopConfig, LoopProviders, run_loop
from retouchkit.media_io import ImageBuffer
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SyntheticScene,
    ToolDescriptor,
)
from retouchkit.saliency import SaliencyMap, propose_masks

MARGIN = 1.25
# (a bytes per pixel, b bytes per set pixel, c bytes); the fit gave
# (2.88, 131, 20,982) and (10.84, 106, 22,676)
PROPOSE_BOUND = (3.0, 136, 24_000)
LOOP_BOUND = (11.0, 112, 24_000)

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


def peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def bound(coefficients, field):
    a, b, c = coefficients
    return MARGIN * (a * field.size + b * np.count_nonzero(field >= 0.5) + c)


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_propose_masks_peak_is_linear_in_pixels_and_set_pixels(side, discs):
    field = disc_field(side, discs)
    smap = SaliencyMap.from_array(field)
    assert peak_bytes(lambda: propose_masks(smap, 0.5, 1, 4)) <= bound(PROPOSE_BOUND, field)


@pytest.mark.parametrize("side, discs", GRID + HELD_OUT)
def test_run_loop_peak_is_linear_in_pixels_and_set_pixels(side, discs):
    # the default LoopConfig and one tool of each kind
    field = disc_field(side, discs)
    image = ImageBuffer.from_array(np.full(field.shape, 100, np.uint8))
    scene = SyntheticScene(image, field)
    instruct = ToolDescriptor("mock-instruct", INSTRUCTION_DRIVEN)
    tools = [MockInpaintTool(scene), MockInpaintTool(scene, instruct)]
    provs = LoopProviders(MockPerceptionProvider(scene), MockReasoningProvider(), tools)
    limit = bound(LOOP_BOUND, field)  # before the loop decays the field
    assert peak_bytes(lambda: run_loop(image, "p", provs, LoopConfig())) <= limit
