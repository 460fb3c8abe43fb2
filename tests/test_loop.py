import json
import math

import numpy as np
import pytest

from retouchkit.dataset import DistortionCategory
from retouchkit.loop import (
    STOP_CONVERGED,
    STOP_INTERNAL_ERROR,
    STOP_MAX_ITERATIONS,
    STOP_NO_ACTIONABLE_REGIONS,
    STOP_NO_ELIGIBLE_TOOL,
    STOP_PROVIDER_ERROR,
    LoopConfig,
    LoopInput,
    LoopProviders,
    run_batch,
    run_loop,
    trace_to_json,
    trace_to_report,
)
from retouchkit.media_io import ImageBuffer
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    ProviderError,
    SyntheticScene,
    ToolDescriptor,
)
from retouchkit.textmetrics import Diagnosis


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


def closed_form_iterations(h, d, tau, max_iter):
    if h < tau:
        return 1
    actions = math.ceil(math.log(tau / h) / math.log(d))
    return min(actions + 1, max_iter)


def test_convergence_matches_closed_form_grid():
    heights = [0.55, 0.65, 0.75, 0.85, 0.95]
    decays = [0.3, 0.45, 0.6, 0.75, 0.9]
    taus = [0.3, 0.5, 0.7]
    for h in heights:
        for d in decays:
            for tau in taus:
                scene = bump_scene(h, d)
                cfg = LoopConfig(tau_s=tau, max_iterations=3, dilation_radius=0, min_area=1)
                trace = run_on(scene, cfg)
                assert len(trace.records) == closed_form_iterations(h, d, tau, 3), (h, d, tau)


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


def test_provider_error_trace():
    class Exploding:
        def perceive(self, image, prompt):
            raise ProviderError("backend down")

    scene = bump_scene(0.9)
    provs = LoopProviders(
        perception=Exploding(),
        reasoning=MockReasoningProvider(),
        tools=[MockInpaintTool(scene)],
    )
    trace = run_loop(scene.image, "p", provs, LoopConfig())
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert trace.error == "backend down"
    assert trace.final_image == scene.image


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
    class Silent:
        def diagnose(self, image, prompt, regions):
            return []

    scene = bump_scene(0.9, size=16)
    scene.distortion_field[10:12, 10:12] = 0.8
    provs = LoopProviders(MockPerceptionProvider(scene), Silent(), [MockInpaintTool(scene)])
    cfg = LoopConfig(tau_s=0.5, max_iterations=5, dilation_radius=0, min_area=1)
    trace = run_loop(scene.image, "p", provs, cfg)
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert trace.error == "reasoning returned 0 diagnoses for 2 regions"
    [rec] = trace.records
    assert len(rec.regions) == 2
    assert rec.diagnoses == rec.actions == ()
    assert trace.final_image == scene.image


class FaultAt:
    """Counts perceive, diagnose and inpaint calls over the providers it
    wraps and raises ProviderError on call k (0-based; never if k is None);
    with short=True, diagnose call k instead returns one diagnosis too few.
    Keeps the image after every inpaint call and the numbers of the
    diagnose calls."""

    def __init__(self, provs, k=None, short=False):
        self.k, self.short, self.calls, self.images, self.diagnose_calls = k, short, 0, [], []
        fault = self

        class Perception:
            def perceive(self, image, prompt):
                fault.tick()
                return provs.perception.perceive(image, prompt)

        class Reasoning:
            def diagnose(self, image, prompt, regions):
                fault.diagnose_calls.append(fault.calls)
                shorten = fault.tick(shortable=True)
                diagnoses = provs.reasoning.diagnose(image, prompt, regions)
                return diagnoses[:-1] if shorten else diagnoses

        class Tool:
            def __init__(self, tool):
                self.tool, self.descriptor = tool, tool.descriptor

            def inpaint(self, image, mask, instruction=None):
                fault.tick()
                out = self.tool.inpaint(image, mask=mask, instruction=instruction)
                fault.images.append(out)
                return out

        self.providers = LoopProviders(Perception(), Reasoning(), [Tool(t) for t in provs.tools])

    def tick(self, shortable=False):
        """True when this call is to return a short diagnosis list."""
        hit = self.calls == self.k
        self.calls += 1
        if hit and not (self.short and shortable):
            raise ProviderError("fault at call %d" % self.k)
        return hit


def test_inpaint_failure_keeps_the_applied_edit():
    image = ImageBuffer.from_array(np.arange(256, dtype=np.uint8).reshape(16, 16))
    field = np.zeros((16, 16), dtype=np.float32)
    field[3:5, 3:5] = 0.9
    field[10:12, 10:12] = 0.8
    scene = SyntheticScene(image, field)
    # call 0 perceives, 1 diagnoses, 2 and 3 inpaint: the second inpaint fails
    faulty = FaultAt(providers_for(scene), k=3)
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    trace = run_loop(image, "p", faulty.providers, cfg)
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert trace.error == "fault at call 3"
    [rec] = trace.records
    assert len(rec.regions) == len(rec.diagnoses) == 2
    [action] = rec.actions
    assert trace.final_image != image
    # replaying the recorded action on the input gives the final image
    region = rec.regions[[d.region_id for d in rec.diagnoses].index(action.region_id)]
    replay = SyntheticScene(image, np.zeros((16, 16), np.float32))
    assert MockInpaintTool(replay).inpaint(image, mask=region.mask) == trace.final_image


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


def test_fault_sweep_keeps_every_applied_edit():
    cfg = LoopConfig(tau_s=0.5, max_iterations=5, dilation_radius=0, min_area=1)
    provs, image = sweep_scene()
    clean = FaultAt(provs)
    clean_trace = run_loop(image, "p", clean.providers, cfg)
    assert clean_trace.stop_reason == STOP_CONVERGED
    clean_records = json.loads(trace_to_json(clean_trace))["records"]
    tools = [[a["tool"] for a in r["actions"]] for r in clean_records]
    assert tools == [["mock-inpaint", "instruct", "mock-inpaint"], ["mock-inpaint", "instruct"], []]
    images = [image] + clean.images  # images[m]: the image after m inpaint calls
    faults = [(k, False) for k in range(clean.calls)] + [(k, True) for k in clean.diagnose_calls]
    for k, short in faults:
        provs, image = sweep_scene()
        faulty = FaultAt(provs, k, short)
        trace = run_loop(image, "p", faulty.providers, cfg)
        assert trace.stop_reason == STOP_PROVIDER_ERROR, k
        if short:
            n = len(clean_records[clean.diagnose_calls.index(k)]["regions"])
            assert trace.error == "reasoning returned %d diagnoses for %d regions" % (n - 1, n)
        else:
            assert trace.error == "fault at call %d" % k
        records = json.loads(trace_to_json(trace))["records"]
        if records:
            *done, last = records
            assert done == clean_records[: len(done)], k
            want = clean_records[len(done)]
            assert {key: last[key] for key in ("t", "max_saliency", "regions")} == {
                key: want[key] for key in ("t", "max_saliency", "regions")
            }, k
            assert last["diagnoses"] in ([], want["diagnoses"]), k
            assert last["actions"] == want["actions"][: len(last["actions"])], k
            if short:
                assert last["diagnoses"] == last["actions"] == [], k
        assert trace.final_image == images[len(faulty.images)], k
        assert sum(len(r["actions"]) for r in records) == len(faulty.images), k


# --- batch ---------------------------------------------------------------

def make_items(n, height=0.8):
    items = []
    for _ in range(n):
        scene = bump_scene(height)
        items.append(LoopInput(image=scene.image, prompt="p", providers=providers_for(scene)))
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
        items.append(LoopInput(scene.image, "p", providers_for(scene)))
    traces = run_batch(items, LoopConfig(), parallelism=2)
    assert all(t.stop_reason == STOP_CONVERGED and len(t.records) == 1 for t in traces)


def test_batch_parallelism_determinism():
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    a = [trace_to_json(t) for t in run_batch(make_items(8), cfg, parallelism=1)]
    b = [trace_to_json(t) for t in run_batch(make_items(8), cfg, parallelism=8)]
    assert a == b


def test_batch_isolates_failures():
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)

    class Broken:
        def perceive(self, image, prompt):
            raise RuntimeError("boom")

    class Down:
        def perceive(self, image, prompt):
            raise ProviderError("backend down")

    def failing(perception):
        scene = bump_scene(0.8)
        provs = LoopProviders(perception, MockReasoningProvider(), [MockInpaintTool(scene)])
        return LoopInput(scene.image, "p", provs)

    traces = run_batch([failing(Broken()), failing(Down())] + make_items(1), cfg, parallelism=2)
    assert traces[0].stop_reason == STOP_INTERNAL_ERROR
    assert traces[0].error == "RuntimeError: boom"
    assert traces[1].stop_reason == STOP_PROVIDER_ERROR
    assert traces[1].error == "backend down"
    assert traces[2].stop_reason == STOP_CONVERGED


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
    class Reasoner:
        def diagnose(self, image, prompt, regions):
            cats = [DistortionCategory.FACE_DISTORTION, DistortionCategory.TEXT_ANOMALY]
            return [
                Diagnosis(region_id="r%d" % i, category=c, description="d", severity=0.5)
                for i, c in enumerate(cats)
            ]

    scene = bump_scene(0.9, size=16)
    scene.distortion_field[10:12, 10:12] = 0.8
    provs = LoopProviders(MockPerceptionProvider(scene), Reasoner(), [MockInpaintTool(scene)])
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
    }


def test_trace_report_not_converged():
    scene = bump_scene(0.9, decay=0.9)
    assert trace_to_report(run_on(scene))["converged"] is False


def test_trace_json_is_deterministic():
    scene1 = bump_scene(0.8)
    scene2 = bump_scene(0.8)
    assert trace_to_json(run_on(scene1)) == trace_to_json(run_on(scene2))
