import itertools
import json
import math
import re
import socket

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from retouchkit import loop as loop_module
from retouchkit.dataset import DistortionCategory
from retouchkit.loop import (
    STOP_CONVERGED,
    STOP_INTERNAL_ERROR,
    STOP_MAX_ITERATIONS,
    STOP_NO_ACTIONABLE_REGIONS,
    STOP_NO_ELIGIBLE_TOOL,
    STOP_NO_PROGRESS,
    STOP_PROVIDER_ERROR,
    Action,
    IterationRecord,
    LoopConfig,
    LoopProviders,
    LoopTrace,
    NoEligibleToolError,
    run_batch,
    run_loop,
    select_tool,
    trace_to_json,
    trace_to_report,
)
from retouchkit.media_io import ImageBuffer
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    ProviderError,
    RETRIES,
    SyntheticScene,
    ToolDescriptor,
    http_provider,
)
from retouchkit.saliency import RegionProposal, SaliencyMap, propose_masks, union_mask
from retouchkit.textmetrics import Diagnosis
from fake_backend import URL, FakeBackend, mount


def bump_scene(height=0.8, decay=0.5, size=8, at=(3, 3)):
    image = ImageBuffer.from_array(np.full((size, size), 100, dtype=np.uint8))
    field = np.zeros((size, size), dtype=np.float32)
    y, x = at
    field[y : y + 2, x : x + 2] = height  # 4-pixel blob, clears min_area
    return SyntheticScene(image=image, distortion_field=field, decay=decay)


def providers_for(scene, seed=0):
    return LoopProviders(
        perception=MockPerceptionProvider(scene),
        reasoning=MockReasoningProvider(seed),
        tools=[MockInpaintTool(scene)],
    )


def run_on(scene, cfg=None):
    cfg = cfg or LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    return run_loop(scene.image, "prompt", providers_for(scene), cfg)


def test_zero_field_converges_immediately():
    image = ImageBuffer.from_array(np.full((8, 8), 100, dtype=np.uint8))
    scene = SyntheticScene(image, np.zeros((8, 8), np.float32))
    trace = run_on(scene)
    assert trace.stop_reason == STOP_CONVERGED
    assert len(trace.records) == 1
    assert trace.records[0].actions == ()


def test_single_bump_hand_simulation():
    # 0.8 -> one action -> 0.4 < 0.5: converged in 2 iterations, 1 action
    scene = bump_scene(0.8, decay=0.5)
    trace = run_on(scene)
    assert trace.stop_reason == STOP_CONVERGED
    assert len(trace.records) == 2
    assert sum(len(r.actions) for r in trace.records) == 1
    assert trace.records[0].max_saliency == pytest.approx(0.8)
    assert trace.records[1].max_saliency == pytest.approx(0.4)


def test_slow_decay_hits_max_iterations():
    # 0.9 -> 0.81 -> 0.729 -> 0.6561, never below 0.5 in 3 iterations
    scene = bump_scene(0.9, decay=0.9)
    trace = run_on(scene)
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert len(trace.records) == 3
    assert all(len(r.actions) == 1 for r in trace.records)


# tau lies between two float32 values: a bump at the lower one is below tau
# and one at the upper one is not, for propose_masks and for the loop's peak
# test alike (binarize used to round tau to the lower one, so the first case
# proposed a region on a map the loop called converged)
@pytest.mark.parametrize("above", [False, True])
def test_propose_masks_and_the_peak_test_agree_on_a_float64_tau(above):
    tau = 0.9121328286946706
    height = np.float32(tau)
    if above:
        height = np.nextafter(height, np.float32(1))
    assert (float(height) >= tau) == above
    scene = bump_scene(height)
    smap = MockPerceptionProvider(scene).perceive(scene.image, "p")
    assert len(propose_masks(smap, tau, 0, 1)) == above
    trace = run_on(scene, LoopConfig(tau_s=tau, max_iterations=1, dilation_radius=0, min_area=1))
    assert trace.stop_reason == (STOP_MAX_ITERATIONS if above else STOP_CONVERGED)
    assert len(trace.records[0].actions) == above


def closed_form_iterations(h, d, tau, max_iter):
    if h < tau:
        return 1
    actions = math.ceil(math.log(tau / h) / math.log(d))
    return min(actions + 1, max_iter)


def test_max_saliency_non_increasing():
    scene = bump_scene(0.95, decay=0.8)
    trace = run_on(scene, LoopConfig(tau_s=0.1, max_iterations=5, dilation_radius=0, min_area=1))
    peaks = [r.max_saliency for r in trace.records]
    assert all(a >= b for a, b in zip(peaks, peaks[1:]))


def test_actions_reference_same_iteration_regions():
    scene = bump_scene(0.9, decay=0.5)
    trace = run_on(scene)
    for rec in trace.records:
        ids = {d.region_id for d in rec.diagnoses}
        for action in rec.actions:
            assert action.region_id in ids


def test_stall_stops_no_actionable_regions():
    # the peak clears tau, but its one-pixel component never reaches min_area
    image = ImageBuffer.from_array(np.full((16, 16), 100, dtype=np.uint8))
    field = np.zeros((16, 16), dtype=np.float32)
    field[8, 8] = 0.9
    scene = SyntheticScene(image, field)
    trace = run_on(scene, LoopConfig(max_iterations=5, dilation_radius=0, min_area=4))
    assert trace.stop_reason == STOP_NO_ACTIONABLE_REGIONS
    assert trace.error is None
    [rec] = trace.records
    assert rec.max_saliency == pytest.approx(0.9)
    assert rec.regions == rec.diagnoses == rec.actions == ()
    assert trace.final_image == image


def test_empty_diagnosis_list_is_a_provider_error():
    # two regions, no diagnoses: the loop stops at once instead of
    # perceiving through its whole budget without acting
    scene = bump_scene(0.9, size=16)
    scene.distortion_field[10:12, 10:12] = 0.8
    silent = FaultAt(providers_for(scene), 1, change=lambda diagnoses: [])  # call 1 diagnoses
    cfg = LoopConfig(tau_s=0.5, max_iterations=5, dilation_radius=0, min_area=1)
    trace = run_loop(scene.image, "p", silent.providers, cfg)
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert trace.error == "reasoning returned 0 diagnoses for 2 regions"
    [rec] = trace.records
    assert len(rec.regions) == 2
    assert rec.diagnoses == rec.actions == ()
    assert trace.final_image == scene.image


class FaultAt:
    """Counts perceive, diagnose and inpaint calls over the providers it
    wraps, in-process or HTTP. Call k (0-based; none if k is None) raises
    `error` (ProviderError by default) or, if `change` is given, answers
    `change(answer)` in place of its answer. Keeps the role of every call
    and the image of every inpaint call whose answer it did not change."""

    def __init__(self, provs, k=None, error=ProviderError, change=None):
        self.k, self.error, self.change = k, error, change
        self.roles, self.images = [], []
        fault = self

        class Perception:
            def perceive(self, image, prompt):
                return fault.call("perceive", provs.perception.perceive, image, prompt)

        class Reasoning:
            def diagnose(self, image, prompt, regions):
                return fault.call("diagnose", provs.reasoning.diagnose, image, prompt, regions)

        class Tool:
            def __init__(self, tool):
                self.tool, self.descriptor = tool, tool.descriptor

            def inpaint(self, image, mask, instruction=None):
                return fault.call("inpaint", self.tool.inpaint, image, mask, instruction)

        self.providers = LoopProviders(Perception(), Reasoning(), [Tool(t) for t in provs.tools])

    def call(self, role, method, *args):
        hit = len(self.roles) == self.k
        self.roles.append(role)
        if hit and self.change is None:
            raise self.error("fault at call %d" % self.k)
        answer = method(*args)
        if hit:
            return self.change(answer)
        if role == "inpaint":
            self.images.append(answer)
        return answer

    def calls_of(self, *roles):
        """The numbers of the calls of these roles."""
        return [k for k, role in enumerate(self.roles) if role in roles]


def short(diagnoses):
    """One diagnosis too few."""
    return diagnoses[:-1]


def wider(answer):
    """A map or an image one column wider."""
    arr = answer.to_array()
    return type(answer).from_array(np.pad(arr, [(0, 0), (0, 1)] + [(0, 0)] * (arr.ndim - 2)))


def rgb(image):
    """A gray image as three equal channels."""
    return ImageBuffer.from_array(np.repeat(image.to_array(), 3, axis=2))


def replay(image, field, decay, records):
    """Each recorded action applied alone, in record order, by a mock over a
    fresh scene on the input; returns the image and the field it leaves."""
    scene = SyntheticScene(image, field.copy(), decay=decay)
    tool = MockInpaintTool(scene)
    for rec in records:
        ids = [d.region_id for d in rec.diagnoses]
        for action in rec.actions:
            region = rec.regions[ids.index(action.region_id)]
            image = tool.inpaint(image, mask=union_mask([region], image.height, image.width))
    return image, scene.distortion_field


def sweep_scene():
    # three bumps: 3 regions, then 2, then convergence; reasoner seed 16
    # sends one region of each iteration to the instruction-driven tool
    image = ImageBuffer.from_array(np.arange(256, dtype=np.uint8).reshape(16, 16))
    field = np.zeros((16, 16), dtype=np.float32)
    field[2:4, 2:4] = 0.9
    field[10:12, 10:12] = 0.8
    field[3:5, 11:13] = 0.95
    scene = SyntheticScene(image, field, decay=0.6)
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    return LoopProviders(
        MockPerceptionProvider(scene),
        MockReasoningProvider(seed=16),
        [MockInpaintTool(scene), MockInpaintTool(scene, text_tool)],
    ), image


def sweep_over_http(*outcomes):
    """The sweep scene served over HTTP by one FakeBackend, whose request
    queue is `outcomes`; each tool carries its mock's descriptor."""
    mocks, image = sweep_scene()
    backend = FakeBackend(mocks.perception.scene, seed=16, outcomes=outcomes)
    return LoopProviders(
        mount(http_provider(URL, "perception"), backend),
        mount(http_provider(URL, "reasoning"), backend),
        [mount(http_provider(URL, "inpaint", descriptor=t.descriptor), backend) for t in mocks.tools],
    ), image


def run_sweep(provs, image, k=None, error=ProviderError, change=None):
    """FaultAt(provs, k, error, change) and run_loop's trace over it."""
    faulty = FaultAt(provs, k, error, change)
    cfg = LoopConfig(tau_s=0.5, max_iterations=5, dilation_radius=0, min_area=1)
    return faulty, run_loop(image, "p", faulty.providers, cfg)


def inpaint_calls(record):
    """The action indices of each inpaint call of a JSON trace record: one
    call per (tool, instruction), in the order of each group's first action."""
    calls = {}
    for i, action in enumerate(record["actions"]):
        calls.setdefault((action["tool"], action["instruction"]), []).append(i)
    return list(calls.values())


class CleanSweep:
    """The fault-free run of the sweep scene over `provs`, and the check of
    what a stopped run of the same scene keeps."""

    def __init__(self, provs, image):
        self.run, self.trace = run_sweep(provs, image)
        self.records = json.loads(trace_to_json(self.trace))["records"]
        self.calls = [inpaint_calls(r) for r in self.records]
        self.images = [image] + self.run.images  # images[m]: the image after m inpaint calls

    def check_kept(self, trace, faulty, fault, role):
        """The records of `trace` are a prefix of the clean run's, but the
        last, which keeps exactly the actions of its completed calls, and its
        diagnoses unless `role`, that of the faulted call, is diagnose; its
        final image is the image after the inpaint calls the loop adopted,
        as counted by `faulty`."""
        m = len(faulty.images)
        records = json.loads(trace_to_json(trace))["records"]
        assert records or m == 0, fault
        if records:
            *done, last = records
            assert done == self.records[: len(done)], fault
            want = self.records[len(done)]
            keys = ("t", "max_saliency", "regions")
            assert [last[key] for key in keys] == [want[key] for key in keys], fault
            assert last["diagnoses"] == ([] if role == "diagnose" else want["diagnoses"]), fault
            j = m - sum(len(c) for c in self.calls[: len(done)])
            assert 0 <= j <= len(self.calls[len(done)]), fault
            acted = sorted(i for call in self.calls[len(done)][:j] for i in call)
            assert last["actions"] == [want["actions"][i] for i in acted], fault
        assert trace.final_image == self.images[m], fault


def sweep_fault_at(sweep):
    """Runs the providers of `sweep()` fault-free, then under each FaultAt
    fault, and checks each faulty run's stop and what it kept; returns the
    clean run."""
    clean = CleanSweep(*sweep())
    # a ProviderError or, as an in-process provider's bug, a ValueError at
    # each call; a short diagnosis list at each diagnose call; a map or an
    # image one column wider, and an RGB image for the gray scene
    faults = (
        [(k, ProviderError, None) for k in range(len(clean.run.roles))]
        + [(k, ValueError, None) for k in range(len(clean.run.roles))]
        + [(k, None, short) for k in clean.run.calls_of("diagnose")]
        + [(k, None, wider) for k in clean.run.calls_of("perceive", "inpaint")]
        + [(k, None, rgb) for k in clean.run.calls_of("inpaint")]
    )
    wrong_size = {
        ("perceive", wider): "saliency map is 17x16, image is 16x16",
        ("inpaint", wider): "edited image is 17x16x1, image is 16x16x1",
        ("inpaint", rgb): "edited image is 16x16x3, image is 16x16x1",
    }
    for k, error, change in faults:
        faulty, trace = run_sweep(*sweep(), k, error, change)
        if error is ValueError:
            want = STOP_INTERNAL_ERROR, "ValueError: fault at call %d" % k
        elif change is None:
            want = STOP_PROVIDER_ERROR, "fault at call %d" % k
        elif change is short:
            n = len(clean.records[clean.run.calls_of("diagnose").index(k)]["regions"])
            want = STOP_PROVIDER_ERROR, "reasoning returned %d diagnoses for %d regions" % (n - 1, n)
        else:
            want = STOP_PROVIDER_ERROR, wrong_size[clean.run.roles[k], change]
        assert (trace.stop_reason, trace.error) == want, k
        clean.check_kept(trace, faulty, k, clean.run.roles[k])
    return clean


def test_fault_sweep_keeps_every_applied_edit():
    clean = sweep_fault_at(sweep_scene)
    assert clean.trace.stop_reason == STOP_CONVERGED
    tools = [[a["tool"] for a in r["actions"]] for r in clean.records]
    assert tools == [["mock-inpaint", "instruct", "mock-inpaint"], ["mock-inpaint", "instruct"], []]
    assert clean.calls == [[[0, 2], [1]], [[0], [1]], []]
    assert len(clean.images) == 5


def test_fault_sweep_over_http_keeps_every_applied_edit(sleeps):
    # every FaultAt fault over the HTTP providers, and each backend fault
    # at every request k; the backoff is recorded, not slept. The backend
    # faults are the one check of each retry rule.
    clean = sweep_fault_at(sweep_over_http)
    _, mocks = run_sweep(*sweep_scene())
    assert trace_to_json(clean.trace) == trace_to_json(mocks)
    assert clean.trace.final_image == mocks.final_image
    backoff = [0.1, 0.2, 0.4]  # RETRIES = 3, the delay doubling before each retry
    timeout, refused = socket.timeout("timed out"), ConnectionRefusedError("connection refused")
    backend_faults = [
        # absorbed: a 5xx or a transport fault is retried, up to the last retry
        ([503], None, [0.1]),
        ([500] * RETRIES, None, backoff),
        ([timeout], None, [0.1]),
        ([refused], None, [0.1]),
        # past the retries
        ([503] * (1 + RETRIES), "backend returned HTTP 503", backoff),
        ([timeout] * (1 + RETRIES), "transport failure: timed out", backoff),
        ([refused] * (1 + RETRIES), "transport failure: connection refused", backoff),
        # not retried: a 4xx, and a bad body, also after a retry
        ([404], "backend returned HTTP 404", []),
        ([b"<html>"], "non-JSON response body: .*", []),
        ([503, b"<html>"], "non-JSON response body: .*", [0.1]),
    ]
    for k, role in enumerate(clean.run.roles):
        for outcomes, error, slept in backend_faults:
            sleeps.clear()
            faulty, trace = run_sweep(*sweep_over_http(*[None] * k, *outcomes))
            assert sleeps == slept, (k, outcomes)
            if error is None:
                assert trace_to_json(trace) == trace_to_json(clean.trace), k
                assert trace.final_image == clean.trace.final_image, k
            else:
                assert trace.stop_reason == STOP_PROVIDER_ERROR, (k, error)
                assert re.fullmatch(error, trace.error), (k, trace.error)
                clean.check_kept(trace, faulty, (k, error), role)


# call 0 perceives the one bump and call 2 inpaints it; the answer is
# replaced by one of the same type holding `arr`
@pytest.mark.parametrize(
    "k, arr, error",
    [
        (0, bump_scene(0.9, size=16).distortion_field, "saliency map is 16x16, image is 32x32"),
        (0, bump_scene(0.9, size=64).distortion_field, "saliency map is 64x64, image is 32x32"),
        (2, np.zeros((16, 16), np.uint8), "edited image is 16x16x1, image is 32x32x1"),
        (2, np.zeros((32, 32, 3), np.uint8), "edited image is 32x32x3, image is 32x32x1"),
    ],
    ids=["map-16", "map-64", "image-16", "image-rgb"],
)
def test_an_in_process_answer_of_another_size_stops_provider_error(k, arr, error):
    # a map of another size used to place the regions in its own frame, and
    # an edited image of another size or channel count became the final image
    scene = bump_scene(0.9, size=32, at=(10, 10))
    faulty = FaultAt(providers_for(scene), k, change=lambda answer: type(answer).from_array(arr))
    cfg = LoopConfig(dilation_radius=0, min_area=1, prefer=MASK_GUIDED)
    trace = run_loop(scene.image, "p", faulty.providers, cfg)
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert trace.error == error
    assert sum(len(rec.actions) for rec in trace.records) == 0
    # a map is rejected before it is read, an image before it is adopted
    assert len(trace.records) == (k == 2)
    assert trace.final_image == scene.image


FACE, HAND, TEXT = (
    DistortionCategory.FACE_DISTORTION,
    DistortionCategory.LIMB_HAND_DEFORMITY,
    DistortionCategory.TEXT_ANOMALY,
)


class CategoryReasoner:
    """Diagnoses region i with categories[i % len(categories)] and the
    description "d<i % kinds>", so with kinds < 2 the text regions share
    one instruction; the severity is the region's peak."""

    def __init__(self, categories, kinds=10**6):
        self.categories, self.kinds = categories, kinds

    def diagnose(self, image, prompt, regions):
        return [
            Diagnosis("r%d" % i, category, "d%d" % (i % self.kinds), r.peak_saliency)
            for i, (r, category) in enumerate(zip(regions, itertools.cycle(self.categories)))
        ]


class Recording:
    """An inpaint tool that records (name, instruction, mask) of every call."""

    def __init__(self, tool, calls):
        self.tool, self.descriptor, self.calls = tool, tool.descriptor, calls

    def inpaint(self, image, mask, instruction=None):
        self.calls.append((self.descriptor.name, instruction, mask.copy()))
        return self.tool.inpaint(image, mask=mask, instruction=instruction)


@pytest.mark.parametrize(
    "pattern, want",
    [
        # n mask-guided regions: one call with their union
        ([FACE], [("mock-inpaint", None, [0, 1, 2, 3])]),
        # each instruction-driven region gets its own call, and the calls
        # run in the order of each group's first region
        (
            [TEXT, FACE],
            [
                ("instruct", "fix text_anomaly: d0", [0]),
                ("mock-inpaint", None, [1, 3]),
                ("instruct", "fix text_anomaly: d2", [2]),
            ],
        ),
    ],
)
def test_one_inpaint_call_per_tool_and_instruction(pattern, want):
    image = ImageBuffer.from_array(np.arange(256, dtype=np.uint8).reshape(16, 16))
    field = np.zeros((16, 16), dtype=np.float32)
    for (y, x), height in zip([(1, 1), (1, 9), (9, 1), (9, 9)], [0.95, 0.9, 0.85, 0.8]):
        field[y : y + 3, x : x + 2] = height
    scene = SyntheticScene(image, field)
    calls = []
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    tools = [Recording(MockInpaintTool(scene), calls), Recording(MockInpaintTool(scene, text_tool), calls)]
    provs = LoopProviders(MockPerceptionProvider(scene), CategoryReasoner(pattern), tools)
    cfg = LoopConfig(tau_s=0.5, max_iterations=1, dilation_radius=0, min_area=1)
    trace = run_loop(image, "p", provs, cfg)
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    [rec] = trace.records
    frames = [union_mask([r], 16, 16) for r in rec.regions]
    assert [(name, instruction) for name, instruction, _ in calls] == [(n, i) for n, i, _ in want]
    for (_, _, mask), (_, _, members) in zip(calls, want):
        assert np.array_equal(mask, np.logical_or.reduce([frames[i] for i in members]))
    # one action per region, in region order
    assert [a.region_id for a in rec.actions] == ["r0", "r1", "r2", "r3"]
    assert [a.tool for a in rec.actions] == [
        "instruct" if pattern[i % len(pattern)] is TEXT else "mock-inpaint" for i in range(4)
    ]


@settings(max_examples=60, deadline=None)
@given(
    bumps=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13), st.integers(1, 3), st.floats(0.55, 1.0)),
        min_size=1,
        max_size=7,
    ),
    pattern=st.lists(st.sampled_from([FACE, TEXT]), min_size=2, max_size=4).filter(
        lambda p: len(set(p)) > 1  # both categories, so both tool kinds
    ),
    kinds=st.sampled_from([1, 2, 10**6]),
    channels=st.sampled_from([1, 3]),
    decay=st.sampled_from([0.3, 0.6, 0.9]),
    radius=st.integers(0, 1),
    seed=st.integers(0, 2**16),
)
def test_grouped_calls_equal_each_action_replayed_alone(
    bumps, pattern, kinds, channels, decay, radius, seed
):
    # both tool kinds; with kinds < 2 several text regions share one
    # instruction and so one call
    rng = np.random.default_rng(seed)
    image = ImageBuffer.from_array(rng.integers(0, 256, (16, 16, channels), dtype=np.uint8))
    field = np.zeros((16, 16), dtype=np.float32)
    for y, x, size, height in bumps:
        field[y : y + size, x : x + size] = np.maximum(field[y : y + size, x : x + size], height)
    scene = SyntheticScene(image, field.copy(), decay=decay)
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    provs = LoopProviders(
        MockPerceptionProvider(scene),
        CategoryReasoner(pattern, kinds),
        [MockInpaintTool(scene), MockInpaintTool(scene, text_tool)],
    )
    cfg = LoopConfig(tau_s=0.5, max_iterations=4, dilation_radius=radius, min_area=1)
    trace = run_loop(image, "p", provs, cfg)
    assert trace.error is None
    assert all(len(r.actions) == len(r.regions) for r in trace.records)
    got_image, got_field = replay(image, field, decay, trace.records)
    assert got_image == trace.final_image
    assert np.array_equal(got_field, scene.distortion_field)


# --- no progress ---------------------------------------------------------

class Unchanged:
    """A tool whose edit returns its input."""

    def __init__(self, name="unchanged", kind=MASK_GUIDED):
        self.descriptor = ToolDescriptor(name=name, kind=kind)

    def inpaint(self, image, mask, instruction=None):
        return image


@settings(max_examples=60, deadline=None)
@given(
    bumps=st.lists(
        st.tuples(
            st.integers(0, 13), st.integers(0, 13), st.integers(1, 3), st.floats(0.0, 1.0, width=32)
        ),
        min_size=1,
        max_size=7,
    ),
    tau=st.floats(0.0, 1.0),
    radius=st.integers(0, 1),
    min_area=st.integers(1, 4),
)
# two bumps, 0.9 and 0.8: the loop used to spend all five iterations and
# five inpaint calls on the same image, and stop max_iterations
@example(bumps=[(2, 2, 3, 0.9), (9, 9, 3, 0.8)], tau=0.5, radius=0, min_area=1)
def test_edits_that_achieve_nothing_stop_no_progress(bumps, tau, radius, min_area):
    image = ImageBuffer.from_array(np.full((16, 16), 100, dtype=np.uint8))
    field = np.zeros((16, 16), dtype=np.float32)
    for y, x, size, height in bumps:
        field[y : y + size, x : x + size] = height
    scene = SyntheticScene(image, field)
    assume(propose_masks(SaliencyMap.from_array(field), tau, radius, min_area))
    calls = []
    provs = LoopProviders(
        MockPerceptionProvider(scene), MockReasoningProvider(), [Recording(Unchanged(), calls)]
    )
    cfg = LoopConfig(
        tau_s=tau,
        max_iterations=5,
        dilation_radius=radius,
        min_area=min_area,
        prefer=MASK_GUIDED,
    )
    trace = run_loop(image, "p", provs, cfg)
    assert trace.stop_reason == STOP_NO_PROGRESS
    assert trace.error is None
    acted, last = trace.records
    assert len(acted.actions) == len(acted.regions) > 0
    # the record is kept without regions, as for converged
    assert (last.t, last.max_saliency) == (2, acted.max_saliency)
    assert last.regions == last.diagnoses == last.actions == ()
    assert len(calls) == 1
    assert trace.final_image == image


def test_an_edit_of_one_group_of_two_is_progress():
    # the first region's tool changes nothing, the second's decays its
    # region: every iteration makes progress, so the loop goes on
    image = ImageBuffer.from_array(np.full((16, 16), 100, dtype=np.uint8))
    field = np.zeros((16, 16), dtype=np.float32)
    field[2:5, 2:5] = 0.9
    field[9:12, 9:12] = 0.8
    scene = SyntheticScene(image, field, decay=0.9)
    calls = []
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    tools = [Recording(Unchanged(), calls), Recording(MockInpaintTool(scene, text_tool), calls)]
    provs = LoopProviders(MockPerceptionProvider(scene), CategoryReasoner([FACE, TEXT]), tools)
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    trace = run_loop(image, "p", provs, cfg)
    assert trace.stop_reason == STOP_MAX_ITERATIONS
    assert [len(r.actions) for r in trace.records] == [2, 2, 2]
    assert [name for name, _, _ in calls] == ["unchanged", "instruct"] * 3


# --- batch ---------------------------------------------------------------

def make_items(n, height=0.8):
    items = []
    for _ in range(n):
        scene = bump_scene(height)
        items.append((scene.image, "p", providers_for(scene)))
    return items


def test_batch_of_one_equals_run_loop():
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    scene = bump_scene(0.8)
    single = run_loop(scene.image, "p", providers_for(scene), cfg)
    [batched] = run_batch(make_items(1), cfg, parallelism=1)
    assert trace_to_json(batched) == trace_to_json(single)


def test_batch_zero_fields_all_converge():
    items = []
    for _ in range(5):
        image = ImageBuffer.from_array(np.full((8, 8), 100, dtype=np.uint8))
        scene = SyntheticScene(image, np.zeros((8, 8), np.float32))
        items.append((scene.image, "p", providers_for(scene)))
    traces = run_batch(items, LoopConfig(), parallelism=2)
    assert all(t.stop_reason == STOP_CONVERGED and len(t.records) == 1 for t in traces)


def test_batch_isolates_failures():
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)

    def failing(error):  # at the first perception
        scene = bump_scene(0.8)
        return scene.image, "p", FaultAt(providers_for(scene), 0, error).providers

    traces = run_batch([failing(RuntimeError), failing(ProviderError)] + make_items(1), cfg, parallelism=2)
    assert traces[0].stop_reason == STOP_INTERNAL_ERROR
    assert traces[0].error == "RuntimeError: fault at call 0"
    assert traces[1].stop_reason == STOP_PROVIDER_ERROR
    assert traces[1].error == "fault at call 0"
    assert traces[2].stop_reason == STOP_CONVERGED


def test_batch_keeps_the_records_before_an_internal_error():
    # the second perception is a NaN map, which SaliencyMap rejects with a
    # ValueError: the first iteration's record and edit are kept
    image = ImageBuffer.from_array(np.arange(64, dtype=np.uint8).reshape(8, 8))
    scene = SyntheticScene(image, bump_scene(0.9).distortion_field, decay=0.9)
    # calls 0-3: perceive, diagnose, inpaint, perceive
    faulty = FaultAt(
        providers_for(scene), 3, change=lambda _: SaliencyMap.from_array(np.full((8, 8), np.nan, np.float32))
    )
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    [trace] = run_batch([(scene.image, "p", faulty.providers)], cfg)
    assert trace.stop_reason == STOP_INTERNAL_ERROR
    assert trace.error == "ValueError: float grid contains NaN/Inf"
    [rec] = trace.records
    assert len(rec.actions) == 1
    assert trace.final_image != scene.image


# --- no eligible tool ----------------------------------------------------

def text_anomaly_scene():
    # the seeded mock reasoner diagnoses this bump as a text anomaly, which
    # the "auto" policy sends to an instruction-driven tool
    image = ImageBuffer.from_array(np.full((64, 64), 100, dtype=np.uint8))
    field = np.zeros((64, 64), dtype=np.float32)
    field[10:15, 16:21] = 0.9
    return SyntheticScene(image=image, distortion_field=field, decay=0.5)


def test_no_eligible_tool_stops_with_the_diagnosing_iteration():
    scene = text_anomaly_scene()
    trace = run_loop(scene.image, "p", providers_for(scene), LoopConfig())
    assert trace.stop_reason == STOP_NO_ELIGIBLE_TOOL
    assert "no tool satisfies policy" in trace.error
    [rec] = trace.records
    assert [d.category for d in rec.diagnoses] == [DistortionCategory.TEXT_ANOMALY]
    assert rec.actions == ()
    assert trace.final_image == scene.image
    assert trace_to_report(trace)["iterations"] == 1


def test_no_eligible_tool_edits_nothing_in_that_iteration():
    # the first region has a tool, the second does not: no edit is made,
    # so the final image is still the one the records describe
    scene = bump_scene(0.9, size=16)
    scene.distortion_field[10:12, 10:12] = 0.8
    reasoner = CategoryReasoner([FACE, TEXT])
    provs = LoopProviders(MockPerceptionProvider(scene), reasoner, [MockInpaintTool(scene)])
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    trace = run_loop(scene.image, "p", provs, cfg)
    assert trace.stop_reason == STOP_NO_ELIGIBLE_TOOL
    assert len(trace.records[0].regions) == 2
    assert trace.final_image == scene.image


def test_empty_registry_is_a_typed_stop():
    scene = bump_scene(0.9)
    provs = LoopProviders(MockPerceptionProvider(scene), MockReasoningProvider(), [])
    trace = run_loop(scene.image, "p", provs, LoopConfig(min_area=1))
    assert trace.stop_reason == STOP_NO_ELIGIBLE_TOOL


# --- one tool choice per category -----------------------------------------

def row_of_bumps(n, decay=0.5):
    # n separate 2x2 bumps of falling height, so region i is bump i
    image = ImageBuffer.from_array(np.full((8, 4 * n), 100, dtype=np.uint8))
    field = np.zeros((8, 4 * n), dtype=np.float32)
    for i in range(n):
        field[3:5, 4 * i + 1 : 4 * i + 3] = 0.9 - 0.02 * i
    return SyntheticScene(image=image, distortion_field=field, decay=decay)


@pytest.fixture
def select_tool_calls(monkeypatch):
    """The category of every select_tool call made by run_loop."""
    calls = []

    def counting(registry, category, prefer):
        calls.append(category)
        return select_tool(registry, category, prefer)

    monkeypatch.setattr(loop_module, "select_tool", counting)
    return calls


def test_one_tool_choice_per_category_per_iteration(select_tool_calls):
    cats = [FACE, TEXT, FACE, HAND, TEXT, FACE, HAND, FACE]
    scene = row_of_bumps(len(cats), decay=0.9)  # every bump stays salient
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    tools = [MockInpaintTool(scene), MockInpaintTool(scene, text_tool)]
    provs = LoopProviders(MockPerceptionProvider(scene), CategoryReasoner(cats), tools)
    cfg = LoopConfig(tau_s=0.5, max_iterations=2, dilation_radius=0, min_area=1)
    trace = run_loop(scene.image, "p", provs, cfg)
    assert select_tool_calls == [FACE, TEXT, HAND] * 2  # first appearance order, each iteration
    for rec in trace.records:
        assert [a.tool for a in rec.actions] == [
            "instruct" if c is TEXT else "mock-inpaint" for c in cats
        ]


def test_no_eligible_tool_stops_at_the_first_diagnosis_without_a_tool(select_tool_calls):
    # the registry lacks the instruction-driven kind; the third diagnosis is
    # the first text anomaly
    cats = [FACE, FACE, TEXT, FACE, TEXT]
    scene = row_of_bumps(len(cats))
    tools = [MockInpaintTool(scene)]
    provs = LoopProviders(MockPerceptionProvider(scene), CategoryReasoner(cats), tools)
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    trace = run_loop(scene.image, "p", provs, cfg)
    # the record and error of a choice made region by region
    smap = MockPerceptionProvider(row_of_bumps(len(cats))).perceive(scene.image, "p")
    regions = tuple(propose_masks(smap, 0.5, 0, 1))
    diagnoses = tuple(CategoryReasoner(cats).diagnose(scene.image, "p", regions))
    with pytest.raises(NoEligibleToolError) as exc:
        [select_tool(tools, d.category, cfg.prefer) for d in diagnoses]
    assert trace.error == "no tool satisfies policy (kind=instruction-driven)"
    record = IterationRecord(1, float(np.float32(0.9)), regions, diagnoses, ())
    want = LoopTrace((record,), STOP_NO_ELIGIBLE_TOOL, scene.image, str(exc.value))
    assert trace_to_json(trace) == trace_to_json(want)
    assert trace.final_image == scene.image
    assert select_tool_calls == [FACE, TEXT]


# --- reports -------------------------------------------------------------

def test_trace_report_converged():
    scene = bump_scene(0.8)
    report = trace_to_report(run_on(scene))
    assert report == {
        "iterations": 2,
        "actions_total": 1,
        "initial_max_saliency": pytest.approx(0.8),
        "final_max_saliency": pytest.approx(0.4),
        "converged": True,
        "stop_reason": STOP_CONVERGED,
    }


def test_trace_report_not_converged():
    scene = bump_scene(0.9, decay=0.9)
    report = trace_to_report(run_on(scene))
    assert report["converged"] is False
    assert report["stop_reason"] == STOP_MAX_ITERATIONS


def test_trace_report_names_a_no_progress_stop():
    # without --trace, run-loop's summary is the one place that says why
    # the loop stopped
    scene = bump_scene(0.9)
    provs = LoopProviders(MockPerceptionProvider(scene), MockReasoningProvider(), [Unchanged()])
    cfg = LoopConfig(tau_s=0.5, max_iterations=5, dilation_radius=0, min_area=1, prefer=MASK_GUIDED)
    report = trace_to_report(run_loop(scene.image, "p", provs, cfg))
    assert report["converged"] is False
    assert report["stop_reason"] == STOP_NO_PROGRESS


def test_traces_of_equal_runs_are_equal_and_hash_alike():
    # a region's mask is an array, which a dataclass's generated __eq__ and
    # __hash__ can neither compare nor hash
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=1, min_area=1)
    a, b = (run_on(bump_scene(0.8), cfg) for _ in range(2))
    assert a.records[0].regions[0].area > 1
    assert a == b and hash(a) == hash(b)
    region = RegionProposal(np.array([[1, 0], [1, 1]]), (0, 0, 1, 1), 0.5, 3)
    twin = RegionProposal(region.mask.copy(), (0, 0, 1, 1), 0.5, 3)
    assert region == twin and hash(region) == hash(twin)
    moved = RegionProposal(np.array([[1, 1], [0, 1]]), (0, 0, 1, 1), 0.5, 3)  # one pixel moved
    assert region != moved and moved != region


# --- the trace writer against json.dumps ----------------------------------


def region_dict(region):
    return {
        "bbox": list(region.bbox),
        "area": region.area,
        "peak_saliency": round(region.peak_saliency, 9),
    }


def reference_dict(trace, image_ref):
    """The trace as a dict whose json.dumps(sort_keys=True, indent=2) gives
    the bytes trace_to_json must write."""
    return {
        "stop_reason": trace.stop_reason,
        "error": trace.error,
        "final_image": image_ref,
        "records": [
            {
                "t": rec.t,
                "max_saliency": round(rec.max_saliency, 9),
                "regions": [region_dict(r) for r in rec.regions],
                "diagnoses": [
                    {
                        "region_id": d.region_id,
                        "category": d.category.value,
                        "description": d.description,
                        "severity": round(d.severity, 9),
                    }
                    for d in rec.diagnoses
                ],
                "actions": [
                    {"region_id": a.region_id, "tool": a.tool, "instruction": a.instruction}
                    for a in rec.actions
                ],
            }
            for rec in trace.records
        ],
    }


# quotes, backslashes, control characters, non-ASCII and lone surrogates,
# besides any code point at all
_TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\xe9\u2028\ud800\udfff\U0001f600'),
        st.integers(0, 0x10FFFF).map(chr),
    ),
    max_size=8,
)
# 0.1234567894, 0.9999999996 and 1e-10 are among the values round(x, 9) changes
_UNIT = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, 0.5, 0.1234567894, 0.9999999996, 1e-10, 5e-10]),
    st.floats(0.0, 1.0),
)
_NUMBER = st.one_of(_UNIT, st.integers(-(10**20), 10**20), st.floats())
_IMAGE = ImageBuffer.from_array(np.zeros((1, 1), dtype=np.uint8))


@st.composite
def _regions(draw):
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    x0, y0 = draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6))
    return RegionProposal(
        mask=np.ones((h, w), dtype=bool),
        bbox=(x0, y0, x0 + w - 1, y0 + h - 1),
        peak_saliency=draw(_NUMBER),
        area=h * w,
    )


_DIAGNOSES = st.builds(
    Diagnosis,
    region_id=_TEXT,
    category=st.sampled_from(DistortionCategory),
    description=_TEXT.filter(bool),
    severity=_UNIT,
)
_ACTIONS = st.builds(Action, region_id=_TEXT, tool=_TEXT, instruction=st.none() | _TEXT)
_RECORDS = st.builds(
    IterationRecord,
    t=st.integers(0, 10**6),
    max_saliency=_NUMBER,
    regions=st.lists(_regions(), max_size=3).map(tuple),
    diagnoses=st.lists(_DIAGNOSES, max_size=3).map(tuple),
    actions=st.lists(_ACTIONS, max_size=3).map(tuple),
)
_TRACES = st.builds(
    LoopTrace,
    records=st.lists(_RECORDS, max_size=3).map(tuple),
    stop_reason=_TEXT,
    final_image=st.just(_IMAGE),
    error=st.none() | _TEXT,
)


@settings(max_examples=100, deadline=None)
@given(trace=_TRACES, image_ref=_TEXT)
@example(trace=LoopTrace((), STOP_CONVERGED, _IMAGE), image_ref="final.pnm")
@example(
    trace=LoopTrace(
        tuple(
            IterationRecord(t, x, (), (), ())
            for t, x in enumerate([1, 1.0, float("nan"), float("inf"), -float("inf")])
        ),
        STOP_PROVIDER_ERROR,
        _IMAGE,
        error='bad "answer"\\\n\x01\xe9\ud800',
    ),
    image_ref="",
)
def test_trace_to_json_equals_json_dumps(trace, image_ref):
    assert trace_to_json(trace, image_ref) == json.dumps(
        reference_dict(trace, image_ref), sort_keys=True, indent=2
    )


# --- every rejecting branch ----------------------------------------------

@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: LoopConfig(tau_s=1.5), ValueError, r"tau_s must lie in \[0, 1\]", id="tau"),
        pytest.param(
            lambda: LoopConfig(max_iterations=0),
            ValueError,
            "max_iterations must be >= 1",
            id="max-iterations",
        ),
        # it used to be accepted, and every run stopped internal_error after
        # its first perception
        pytest.param(
            lambda: LoopConfig(dilation_radius=-1),
            ValueError,
            "dilation_radius must be >= 0",
            id="dilation-radius",
        ),
        # it used to be accepted, and acted as 1
        pytest.param(lambda: LoopConfig(min_area=0), ValueError, "min_area must be >= 1", id="min-area-0"),
        pytest.param(lambda: LoopConfig(min_area=-5), ValueError, "min_area must be >= 1", id="min-area--5"),
        pytest.param(lambda: LoopConfig(prefer="cheap"), ValueError, "bad prefer value", id="prefer"),
        # a fractional count would reach run_loop, where range() raises out
        # of a loop that must never raise, or dilate stops the first iteration
        *(
            pytest.param(lambda f=f: LoopConfig(**{f: 2.5}), TypeError, "float", id="fractional-%s" % f)
            for f in ("max_iterations", "dilation_radius", "min_area")
        ),
        pytest.param(
            lambda: run_batch([], LoopConfig(), parallelism=0),
            ValueError,
            "parallelism must be >= 1",
            id="parallelism",
        ),
        # a thread pool sized 1.5 runs on 2 threads
        pytest.param(
            lambda: run_batch([], LoopConfig(), parallelism=1.5),
            TypeError,
            "float",
            id="fractional-parallelism",
        ),
    ],
)
def test_rejecting_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()
