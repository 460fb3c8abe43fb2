import base64
import json
import re
import socket
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from retouchkit.dataset import DistortionCategory
from retouchkit.loop import (
    STOP_CONVERGED,
    STOP_PROVIDER_ERROR,
    LoopConfig,
    LoopProviders,
    NoEligibleToolError,
    run_loop,
    select_tool,
    trace_to_json,
)
from retouchkit.media_io import FloatGrid, ImageBuffer, read_float_grid, write_float_grid, write_pnm
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    HttpStatusError,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SchemaError,
    SyntheticScene,
    ToolDescriptor,
    TransportError,
    http_provider,
    mask_from_bytes,
    mask_to_bytes,
)
from retouchkit.saliency import RegionProposal
from fake_backend import URL, FakeBackend, LoopbackServer, SceneBackend, mount
from test_loop import Unchanged
from test_saliency import flood_fill_components

# every HTTP client of this module records its backoff and does not sleep
pytestmark = pytest.mark.usefixtures("sleeps")


def gray_image(w=4, h=4, value=128):
    return ImageBuffer.from_array(np.full((h, w), value, dtype=np.uint8))


def scene_with_bump(value=0.8, decay=0.5):
    field = np.zeros((4, 4), dtype=np.float32)
    field[1, 1] = value
    return SyntheticScene(image=gray_image(), distortion_field=field, decay=decay)


def proposal(bbox=(1, 1, 2, 2), peak=0.8):
    mask = np.zeros((4, 4), bool)
    mask[bbox[1] : bbox[3] + 1, bbox[0] : bbox[2] + 1] = True
    return RegionProposal(mask=mask, bbox=bbox, peak_saliency=peak, area=int(mask.sum()))


# --- mocks ---------------------------------------------------------------

def test_mock_perceive_returns_field():
    scene = scene_with_bump(0.8)
    p = MockPerceptionProvider(scene)
    m = p.perceive(scene.image, "prompt")
    assert m.to_array().max() == pytest.approx(0.8)
    assert np.array_equal(m.to_array(), p.perceive(scene.image, "prompt").to_array())


def test_mock_perceived_map_keeps_its_values_after_an_inpaint():
    scene = scene_with_bump(0.8, decay=0.5)
    m = MockPerceptionProvider(scene).perceive(scene.image, "prompt")
    mask = np.zeros((4, 4), bool)
    mask[1, 1] = True
    MockInpaintTool(scene).inpaint(scene.image, mask=mask)
    assert scene.distortion_field[1, 1] == pytest.approx(0.4)
    assert m.to_array()[1, 1] == np.float32(0.8)


def test_mock_perceive_zero_field():
    scene = SyntheticScene(gray_image(), np.zeros((4, 4), np.float32))
    assert not MockPerceptionProvider(scene).perceive(scene.image, "").to_array().any()


def test_mock_diagnose_deterministic():
    r = MockReasoningProvider(seed=1)
    img = gray_image()
    a = r.diagnose(img, "p", [proposal()])
    b = r.diagnose(img, "p", [proposal()])
    assert a == b
    assert a[0].severity == pytest.approx(0.8)
    assert a[0].category.value in a[0].description


def test_mock_diagnose_empty():
    assert MockReasoningProvider().diagnose(gray_image(), "p", []) == []


def test_mock_inpaint_decays_field_inside_mask():
    scene = scene_with_bump(0.8, decay=0.5)
    tool = MockInpaintTool(scene)
    mask = np.zeros((4, 4), bool)
    mask[1, 1] = True
    tool.inpaint(scene.image, mask=mask)
    assert scene.distortion_field[1, 1] == pytest.approx(0.4)
    tool.inpaint(scene.image, mask=mask)
    assert scene.distortion_field[1, 1] == pytest.approx(0.2)


def test_mock_inpaint_outside_mask_unchanged():
    scene = scene_with_bump(0.8)
    before = scene.distortion_field.copy()
    mask = np.zeros((4, 4), bool)
    mask[3, 3] = True
    MockInpaintTool(scene).inpaint(scene.image, mask=mask)
    assert np.array_equal(scene.distortion_field[:3, :], before[:3, :])


def test_the_scene_decays_its_own_copy_of_a_read_only_field():
    # the array of a decoded map is read-only; the scene copies it, so the
    # mock tool can decay the field and the loop acts
    field = np.zeros((4, 4), np.float32)
    field[1, 1] = 0.8
    read_only = read_float_grid(write_float_grid(FloatGrid.from_array(field))).to_array()
    scene = SyntheticScene(gray_image(), read_only)
    provs = LoopProviders(MockPerceptionProvider(scene), MockReasoningProvider(), [MockInpaintTool(scene)])
    trace = run_loop(scene.image, "p", provs, LoopConfig(dilation_radius=0, min_area=1))
    assert (trace.stop_reason, trace.error) == (STOP_CONVERGED, None)
    assert sum(len(r.actions) for r in trace.records) == 1
    assert scene.distortion_field[1, 1] == pytest.approx(0.4)
    assert np.array_equal(read_only, field)


def painted(arr, holes):
    """`arr` as nested lists, each hole's pixels set to the hole's mean color;
    Python's round, like np.round, breaks ties to even."""
    out = arr.tolist()
    for hole in holes:
        for c in range(arr.shape[2]):
            mean = round(sum(int(arr[y, x, c]) for y, x in hole) / len(hole))
            for y, x in hole:
                out[y][x][c] = mean
    return out


@pytest.mark.parametrize("channels", [1, 3])
def test_mock_inpaint_paints_masked_pixels_with_their_mean(channels):
    # each 8-connected hole of the mask gets its own mean; a mask of one
    # hole gets the mean of all its pixels
    rng = np.random.default_rng(channels)
    for trial in range(40):
        h, w = (int(v) for v in rng.integers(1, 9, 2))
        arr = rng.integers(0, 256, (h, w, channels), dtype=np.uint8)
        if trial % 2:
            mask = rng.random((h, w)) < 0.4
            holes = flood_fill_components(mask)
        else:
            y0, x0 = int(rng.integers(0, h)), int(rng.integers(0, w))
            mask = np.zeros((h, w), bool)
            mask[y0 : int(rng.integers(y0, h)) + 1, x0 : int(rng.integers(x0, w)) + 1] = True
            holes = [list(zip(*np.nonzero(mask)))]
        scene = SyntheticScene(ImageBuffer.from_array(arr), np.zeros((h, w), np.float32))
        out = MockInpaintTool(scene).inpaint(scene.image, mask=mask).to_array()
        assert out.tolist() == painted(arr, holes), trial


def test_mock_inpaint_with_an_empty_mask_changes_nothing():
    scene = scene_with_bump(0.8)
    before = scene.distortion_field.copy()
    assert MockInpaintTool(scene).inpaint(scene.image, mask=np.zeros((4, 4), bool)) == scene.image
    assert np.array_equal(scene.distortion_field, before)


@pytest.mark.parametrize("mask", [None, np.ones((3, 4), bool)])
def test_mock_inpaint_rejects_a_mask_of_other_dims(mask):
    scene = scene_with_bump()
    with pytest.raises(ValueError, match="^mask is (0-d|4x3), image is 4x4$"):
        MockInpaintTool(scene).inpaint(scene.image, mask=mask)


# --- select_tool ---------------------------------------------------------

FACE = DistortionCategory.FACE_DISTORTION


def test_select_takes_the_first_registered_tool_of_kind():
    tools = [Unchanged("i1", INSTRUCTION_DRIVEN), Unchanged("m1", MASK_GUIDED), Unchanged("m2", MASK_GUIDED)]
    got = select_tool(tools, FACE, MASK_GUIDED)
    assert got.descriptor.name == "m1"


def test_select_auto_text_anomaly_instruction():
    tools = [Unchanged("m", MASK_GUIDED), Unchanged("i", INSTRUCTION_DRIVEN)]
    got = select_tool(tools, DistortionCategory.TEXT_ANOMALY, "auto")
    assert got.descriptor.kind == INSTRUCTION_DRIVEN
    got = select_tool(tools, FACE, "auto")
    assert got.descriptor.kind == MASK_GUIDED


def test_select_without_a_tool_of_the_wanted_kind():
    tools = [Unchanged("i", INSTRUCTION_DRIVEN)]
    with pytest.raises(NoEligibleToolError, match=r"^no tool satisfies policy \(kind=mask-guided\)$"):
        select_tool(tools, FACE, MASK_GUIDED)


# --- HTTP providers ------------------------------------------------------

def _b64(data):
    return base64.b64encode(data).decode()


def _http(role, backend):
    """An HTTP provider of `role` served in-process by `backend`."""
    return mount(http_provider(URL, role), backend)


@pytest.mark.parametrize(
    "keyword, value, message",
    [
        ("timeout_s", 0.0, "timeout_s must be > 0"),
        ("timeout_s", -1.0, "timeout_s must be > 0"),
        ("timeout_s", float("nan"), "timeout_s must be > 0"),
    ],
)
def test_http_config_rejects(keyword, value, message):
    # timeout_s=0 would put every attempt's socket in non-blocking mode
    with pytest.raises(ValueError, match=message):
        http_provider(URL, "perception", **{keyword: value})


def _run_loop_over_http(role, backend, image):
    """run_loop on `image` with `role` served by `backend` and the other
    roles by the mocks."""
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    scene = scene_with_bump(0.8)
    perception, tool = MockPerceptionProvider(scene), MockInpaintTool(scene)
    if role == "perception":
        perception = _http(role, backend)
    else:
        tool = _http(role, backend)
    return run_loop(image, "p", LoopProviders(perception, MockReasoningProvider(), [tool]), cfg)


@st.composite
def scenes(draw):
    """(image, field, decay): a gray or RGB image of 1-24 px a side and a
    field of sparse, dense or no salient pixels."""
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image = ImageBuffer(rng.integers(0, 256, (h, w, draw(st.sampled_from([1, 3]))), dtype=np.uint8))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    field = np.where(rng.random((h, w)) < density, rng.random((h, w)), 0.0)
    return image, field, draw(st.sampled_from([0.3, 0.5, 0.9]))


@settings(max_examples=300, deadline=None)
@given(
    case=scenes(),
    cfg=st.builds(
        LoopConfig,
        tau_s=st.floats(0.0, 1.0),
        max_iterations=st.integers(1, 4),
        dilation_radius=st.integers(0, 2),
        min_area=st.integers(1, 6),
        prefer=st.sampled_from(["auto", MASK_GUIDED, INSTRUCTION_DRIVEN]),
    ),
    seed=st.integers(0, 2**16),
)
def test_run_loop_over_http_equals_the_in_process_mocks(case, cfg, seed):
    image, field, decay = case
    text_tool = ToolDescriptor(name="instruct", kind=INSTRUCTION_DRIVEN)
    scene = SyntheticScene(image, field, decay)
    mocks = LoopProviders(
        MockPerceptionProvider(scene),
        MockReasoningProvider(seed),
        [MockInpaintTool(scene), MockInpaintTool(scene, text_tool)],
    )
    backend = SceneBackend(SyntheticScene(image, field, decay), seed)
    wire = LoopProviders(
        _http("perception", backend),
        _http("reasoning", backend),
        [
            mount(http_provider(URL, "inpaint", descriptor=tool.descriptor), backend)
            for tool in mocks.tools
        ],
    )
    want, got = run_loop(image, "p", mocks, cfg), run_loop(image, "p", wire, cfg)
    assert trace_to_json(got) == trace_to_json(want)
    assert got.final_image == want.final_image


def test_http_dim_mismatch_is_schema_error():
    # a gray answer of the right size to an RGB request, which would carry
    # the loop on in gray, is not adopted
    rgb = ImageBuffer.from_array(np.full((4, 4, 3), 128, dtype=np.uint8))
    backend = FakeBackend(answers={"/v1/inpaint": {"image_b64": _b64(write_pnm(gray_image()))}})
    trace = _run_loop_over_http("inpaint", backend, rgb)
    assert (trace.stop_reason, trace.error) == (
        STOP_PROVIDER_ERROR,
        "edited image is 4x4x1, image is 4x4x3",
    )
    [rec] = trace.records
    assert len(rec.regions) == len(rec.diagnoses) == 1
    assert rec.actions == ()
    assert trace.final_image == rgb
    assert backend.calls == 1  # a bad answer is not retried


def test_http_provider_factory():
    methods = {"perception": "perceive", "reasoning": "diagnose", "inpaint": "inpaint"}
    for role, method in methods.items():
        p = http_provider("http://example.invalid", role)
        assert [m for m in methods.values() if hasattr(p, m)] == [method]
    assert p.descriptor == ToolDescriptor(name="http-inpaint", kind=MASK_GUIDED)
    with pytest.raises(ValueError):
        http_provider("http://example.invalid", "oracle")


def test_http_provider_rejects_an_unknown_keyword():
    # a misspelt `descriptor` used to give a mask-guided tool silently
    text_tool = ToolDescriptor(name="text", kind=INSTRUCTION_DRIVEN)
    with pytest.raises(TypeError):
        http_provider("http://example.invalid", "inpaint", desciptor=text_tool)
    tool = http_provider("http://example.invalid", "inpaint", descriptor=text_tool)
    assert tool.descriptor is text_tool


def test_http_diagnose_sends_full_frame_masks():
    # regions hold bbox crops; the wire still carries each mask as a frame
    # of the image's size
    regions = [
        RegionProposal(mask=np.eye(2, dtype=bool), bbox=(3, 2, 4, 3), peak_saliency=0.8, area=2),
        RegionProposal(mask=np.ones((1, 2), bool), bbox=(0, 4, 1, 4), peak_saliency=0.6, area=2),
    ]
    frames = [np.zeros((5, 6), bool) for _ in regions]
    frames[0][2, 3] = frames[0][3, 4] = True
    frames[1][4, 0:2] = True
    backend = FakeBackend(answers={"/v1/diagnose": _answer(_entry(0), _entry(1))})
    _http("reasoning", backend).diagnose(gray_image(6, 5), "p", regions)
    [(path, req)] = backend.requests
    assert path == "/v1/diagnose"
    assert [r["bbox"] for r in req["regions"]] == [[3, 2, 4, 3], [0, 4, 1, 4]]
    sent = [mask_from_bytes(base64.b64decode(r["mask_b64"])) for r in req["regions"]]
    assert all(np.array_equal(m, f) for m, f in zip(sent, frames))


@settings(max_examples=100, deadline=None)
@given(mask=arrays(bool, st.tuples(st.integers(1, 9), st.integers(1, 9))))
def test_mask_to_bytes_equals_the_int64_formula(mask):
    for m in (mask, mask.T):  # a transposed view is not C-contiguous
        # the formula it replaced, as the oracle of its bytes
        want = write_pnm(ImageBuffer.from_array(np.where(m, 255, 0).astype(np.uint8)))
        assert mask_to_bytes(m) == want
    assert np.array_equal(mask_from_bytes(mask_to_bytes(mask)), mask)


def test_mask_to_bytes_makes_no_frame_wider_than_a_byte_per_pixel():
    # the bytes of the graymap and of the PNM it is written into are two per
    # pixel; an int64 frame on the way adds eight
    mask = np.zeros((512, 512), bool)
    mask[100:300, 50:400] = True
    tracemalloc.start()
    try:
        mask_to_bytes(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * mask.size


# --- HTTP fault injection: every malformed answer is a SchemaError ----------


def _entry(i, **fields):
    """A well-formed diagnosis for region r<i>, changed by `fields`; a field
    given as `...` is left out."""
    entry = {"id": "r%d" % i, "category": "face_distortion", "description": "d", "severity": 0.5}
    entry.update(fields)
    return {k: v for k, v in entry.items() if v is not ...}


def _answer(*entries):
    return {"diagnoses": list(entries)}


_PATHS = {"perception": "/v1/perceive", "reasoning": "/v1/diagnose", "inpaint": "/v1/inpaint"}
_GRID_2X2 = _b64(write_float_grid(FloatGrid.from_array(np.zeros((2, 2), np.float32))))
_PNM_3X3 = _b64(write_pnm(gray_image(3, 3)))


def _call(role, backend):
    """One call of `role` on a 4x4 gray image; diagnose sends two regions."""
    provider = _http(role, backend)
    image = gray_image()
    if role == "perception":
        return provider.perceive(image, "p")
    if role == "reasoning":
        return provider.diagnose(image, "p", [proposal((0, 0, 1, 1)), proposal((2, 2, 3, 3))])
    return provider.inpaint(image, np.ones((4, 4), bool))


@pytest.mark.parametrize(
    "role, answer",
    [
        pytest.param("perception", b"<html>busy</html>", id="body-not-json"),
        # json.loads raises a RecursionError, which is no ValueError
        pytest.param("perception", b"[" * 100_000, id="body-nested-too-deep"),
        # a list has no .get, which only the reasoning provider calls
        pytest.param("reasoning", [_entry(0), _entry(1)], id="body-a-list"),
        pytest.param("perception", {}, id="perceive-missing"),
        pytest.param("perception", {"saliency_b64": "no base64!"}, id="perceive-not-base64"),
        pytest.param("perception", {"saliency_b64": 7}, id="perceive-not-a-string"),
        pytest.param("perception", {"saliency_b64": _b64(b"FSAL9")}, id="perceive-not-fsal"),
        pytest.param("inpaint", {}, id="inpaint-missing"),
        pytest.param("inpaint", {"image_b64": "no base64!"}, id="inpaint-not-base64"),
        pytest.param("inpaint", {"image_b64": _GRID_2X2}, id="inpaint-not-pnm"),
        pytest.param("reasoning", {}, id="diagnoses-missing"),
        pytest.param("reasoning", _answer(_entry(0)), id="diagnoses-short"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1), _entry(2)), id="diagnoses-long"),
        pytest.param("reasoning", _answer(_entry(0), 5), id="entry-not-an-object"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, id=...)), id="id-missing"),
        pytest.param("reasoning", _answer(_entry(0), _entry(0)), id="id-duplicate"),
        pytest.param("reasoning", _answer(_entry(0, id=["r0"]), _entry(1)), id="id-list"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, severity=None)), id="severity-null"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, severity=[1])), id="severity-list"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, severity="0.5")), id="severity-string"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, severity=True)), id="severity-bool"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, severity=10**400)), id="severity-huge-int"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, description=None)), id="description-null"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, category="blur")), id="unknown-category"),
        pytest.param("reasoning", _answer(_entry(0), _entry(1, description=...)), id="no-description"),
    ],
)
def test_http_malformed_answer_is_schema_error(role, answer):
    backend = FakeBackend(answers={_PATHS[role]: answer})
    with pytest.raises(SchemaError):
        _call(role, backend)
    assert backend.calls == 1  # a bad answer is not retried


@pytest.mark.parametrize(
    "role, answer, error",
    [
        pytest.param(
            "perception",
            {"saliency_b64": _GRID_2X2},
            "saliency map is 2x2, image is 4x4",
            id="perceive-wrong-dims",
        ),
        pytest.param(
            "inpaint",
            {"image_b64": _PNM_3X3},
            "edited image is 3x3x1, image is 4x4x1",
            id="inpaint-wrong-dims",
        ),
    ],
)
def test_http_wrong_size_answer_stops_the_loop(role, answer, error):
    # the provider decodes an answer of any size; run_loop holds it to the
    # image's size, as it holds an in-process provider's answer
    backend = FakeBackend(answers={_PATHS[role]: answer})
    trace = _run_loop_over_http(role, backend, gray_image())
    assert (trace.stop_reason, trace.error) == (STOP_PROVIDER_ERROR, error)
    if role == "perception":
        assert trace.records == ()  # the map is never read
    else:
        [rec] = trace.records
        assert len(rec.regions) == len(rec.diagnoses) == 1
        assert rec.actions == ()
    assert trace.final_image == gray_image()
    assert backend.calls == 1  # a bad answer is not retried


@pytest.mark.parametrize("status", [204, 301])
def test_http_2xx_and_3xx_status_is_not_retried(status):
    # only a 5xx is retried: a repeat changes neither a 2xx other than 200
    # nor a 3xx, since no redirect is followed
    backend = FakeBackend(outcomes=[status])
    with pytest.raises(HttpStatusError) as err:
        _call("perception", backend)
    assert err.value.status == status
    assert backend.calls == 1


# --- the socket round trip, which `mount` replaces: over loopback ----------


def test_http_request_over_a_socket():
    # the endpoint's path prefix is kept, percent-encoded, and the body is the
    # payload's JSON with NaN refused
    backend, sent = FakeBackend(), []

    def handle(path, body):
        sent.append((path, body))
        return backend.handle(path.removeprefix("/p%20%C3%A9"), body)

    with LoopbackServer(SimpleNamespace(handle=handle)) as server:
        out = http_provider(server.url + "/p é/", "perception").perceive(gray_image(), "p")
    assert (out.width, out.height) == (4, 4)
    assert [h["Content-Type"] for h in server.headers] == ["application/json"]
    payload = {"image_b64": _b64(write_pnm(gray_image())), "format": "pnm", "prompt": "p"}
    assert sent == [("/p%20%C3%A9/v1/perceive", json.dumps(payload, allow_nan=False).encode())]


def _refused_endpoint():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return "http://127.0.0.1:%d" % port  # nothing listens there now


@pytest.mark.parametrize("tls", [False, True], ids=["refused", "https-to-plain-http"])
def test_http_socket_fault_exhausts_the_retries(tls, sleeps):
    backend = FakeBackend()
    with LoopbackServer(backend) as server:
        endpoint = server.url.replace("http://", "https://") if tls else _refused_endpoint()
        with pytest.raises(TransportError, match="^transport failure: "):
            http_provider(endpoint, "perception").perceive(gray_image(), "p")
    assert sleeps == [0.1, 0.2, 0.4]  # 1 + RETRIES attempts
    assert backend.calls == 0


# --- every rejecting branch ----------------------------------------------

_ABOVE_ONE = {"saliency_b64": _b64(write_float_grid(FloatGrid.from_array(np.full((4, 4), 2.0))))}
_INSTRUCTED = ToolDescriptor(name="i", kind=INSTRUCTION_DRIVEN)


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: ToolDescriptor("t", "paint"), ValueError, "kind must be", id="kind"),
        pytest.param(
            lambda: LoopConfig(prefer="cheap"),
            ValueError,
            "bad prefer value",
            id="prefer",
        ),
        pytest.param(
            lambda: SyntheticScene(gray_image(), np.zeros((3, 4), np.float32)),
            ValueError,
            "^field is 4x3, image is 4x4$",
            id="scene-dims",
        ),
        *(
            pytest.param(
                lambda v=v: scene_with_bump(value=v),
                ValueError,
                r"field values must lie in \[0, 1\]",
                id="scene-field-%s" % v,
            )
            # a field out of range would stop the loop at its first
            # perception with an internal error
            for v in (1.5, -0.25, float("nan"), float("inf"))
        ),
        pytest.param(
            lambda: scene_with_bump(decay=1.0),
            ValueError,
            r"decay must lie in \(0, 1\)",
            id="decay",
        ),
        pytest.param(
            lambda: MockInpaintTool(scene_with_bump(), _INSTRUCTED).inpaint(
                gray_image(), np.ones((4, 4), bool)
            ),
            ValueError,
            "instruction-driven tool requires an instruction",
            id="mock-instruction",
        ),
        pytest.param(
            lambda: http_provider(URL, "inpaint", descriptor=_INSTRUCTED).inpaint(
                gray_image(), np.ones((4, 4), bool)
            ),
            ValueError,
            "instruction-driven tool requires an instruction",
            id="http-instruction",
        ),
        pytest.param(
            lambda: mask_from_bytes(write_pnm(ImageBuffer.from_array(np.zeros((2, 2, 3), "u1")))),
            SchemaError,
            "mask must be a graymap",
            id="mask-rgb",
        ),
        pytest.param(
            lambda: _call("perception", FakeBackend(answers={"/v1/perceive": _ABOVE_ONE})),
            SchemaError,
            r"saliency values must lie in \[0, 1\]",
            id="perceive-above-one",
        ),
        *(
            pytest.param(
                lambda endpoint=endpoint: http_provider(endpoint, "perception"),
                ValueError,
                "^endpoint %s is not an http:// or https:// URL with a host and no credentials, query or fragment$"
                % re.escape(repr(endpoint)),
                id="endpoint-%s" % endpoint,
            )
            # no scheme, another scheme, no host, a host urlsplit refuses, a
            # port out of range or not a number, and the parts never sent: a
            # query, a fragment and credentials
            for endpoint in (
                "foo",
                "ftp://x",
                "http://",
                "http://:80",
                "http://[::1",
                "http://127.0.0.1:99999",
                "http://127.0.0.1:x",
                "http://127.0.0.1:9/x?q=1",
                "http://127.0.0.1:9/x#f",
                "http://user:pw@127.0.0.1:9/x",
            )
        ),
    ],
)
def test_rejecting_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()


# an infinite or huge timeout overflows the socket's deadline
@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(
            lambda: http_provider(URL, "perception", timeout_s=float("inf")),
            ValueError,
            "timeout_s must be <=",
            id="timeout-inf",
        ),
        pytest.param(
            lambda: http_provider(URL, "perception", timeout_s=1e12),
            ValueError,
            "timeout_s must be <=",
            id="timeout-huge",
        ),
    ],
)
def test_configs_reject_nan_overflowing_and_fractional_values(build, error, message):
    with pytest.raises(error, match=message):
        build()
