import base64
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from retouchkit.dataset import DistortionCategory
from retouchkit.loop import STOP_PROVIDER_ERROR, LoopConfig, LoopProviders, run_loop
from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid, write_pnm
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    HttpConfig,
    HttpPerceptionProvider,
    HttpStatusError,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    NoEligibleToolError,
    SchemaError,
    SyntheticScene,
    ToolDescriptor,
    ToolPolicy,
    http_provider,
    mask_from_bytes,
    select_tool,
)
from retouchkit.saliency import RegionProposal
from retouchkit.textmetrics import Diagnosis
from test_saliency import flood_fill_components


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
    with pytest.raises(ValueError, match="mask dims"):
        MockInpaintTool(scene).inpaint(scene.image, mask=mask)


# --- select_tool ---------------------------------------------------------

class _FakeTool:
    def __init__(self, name, kind, cost):
        self.descriptor = ToolDescriptor(name=name, kind=kind, cost_hint=cost)

    def inpaint(self, image, mask, instruction=None):
        return image


def _diag(cat=DistortionCategory.FACE_DISTORTION):
    return Diagnosis(region_id="r0", category=cat, description="d", severity=0.5)


def test_select_prefers_cheapest_of_kind():
    tools = [
        _FakeTool("m2", MASK_GUIDED, 2.0),
        _FakeTool("m1", MASK_GUIDED, 1.0),
        _FakeTool("i1", INSTRUCTION_DRIVEN, 0.5),
    ]
    got = select_tool(tools, _diag(), ToolPolicy(prefer=MASK_GUIDED))
    assert got.descriptor.name == "m1"


def test_select_auto_text_anomaly_instruction():
    tools = [_FakeTool("m", MASK_GUIDED, 1.0), _FakeTool("i", INSTRUCTION_DRIVEN, 5.0)]
    got = select_tool(tools, _diag(DistortionCategory.TEXT_ANOMALY), ToolPolicy(prefer="auto"))
    assert got.descriptor.kind == INSTRUCTION_DRIVEN
    got = select_tool(tools, _diag(), ToolPolicy(prefer="auto"))
    assert got.descriptor.kind == MASK_GUIDED


def test_select_max_cost_unsatisfiable():
    tools = [_FakeTool("m", MASK_GUIDED, 3.0)]
    with pytest.raises(NoEligibleToolError):
        select_tool(tools, _diag(), ToolPolicy(prefer=MASK_GUIDED, max_cost=1.0))


def test_select_tie_keeps_registry_order():
    tools = [_FakeTool("first", MASK_GUIDED, 1.0), _FakeTool("second", MASK_GUIDED, 1.0)]
    assert select_tool(tools, _diag(), ToolPolicy(prefer=MASK_GUIDED)).descriptor.name == "first"


# --- HTTP providers ------------------------------------------------------

def _b64(data):
    return base64.b64encode(data).decode()


class _Backend:
    """Counting test server with scriptable behavior."""

    def __init__(self, fail_first=0, saliency_shape=None, delay=0.0, answers=None):
        self.fail_first = fail_first
        self.saliency_shape = saliency_shape  # override returned dims
        self.delay = delay
        self.answers = answers or {}  # path -> scripted JSON answer
        self.requests = []  # (path, JSON request) of every answered call
        self.calls = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.lock = threading.Lock()
        backend = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                with backend.lock:
                    backend.calls += 1
                    backend.in_flight += 1
                    backend.max_in_flight = max(backend.max_in_flight, backend.in_flight)
                    fail = backend.calls <= backend.fail_first
                try:
                    if backend.delay:
                        time.sleep(backend.delay)
                    if fail:
                        self.send_response(500)
                        self.end_headers()
                        return
                    length = int(self.headers["Content-Length"])
                    req = json.loads(self.rfile.read(length))
                    with backend.lock:
                        backend.requests.append((self.path, req))
                    h, w = backend.saliency_shape or (4, 4)
                    grid = FloatGrid.from_array(np.zeros((h, w), np.float32))
                    answer = backend.answers.get(
                        self.path,
                        {"saliency_b64": _b64(write_float_grid(grid)), "width": w, "height": h},
                    )
                    body = json.dumps(answer).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                finally:
                    with backend.lock:
                        backend.in_flight -= 1

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        # a short poll keeps close() from waiting up to 0.5 s per backend
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    @property
    def url(self):
        return "http://127.0.0.1:%d" % self.server.server_address[1]

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("timeout_s", 0.0, "timeout_s must be > 0"),
        ("timeout_s", -1.0, "timeout_s must be > 0"),
        ("timeout_s", float("nan"), "timeout_s must be > 0"),
        ("retries", -1, "retries must be >= 0"),
        ("backoff_base_s", -0.1, "backoff_base_s must be >= 0"),
        ("max_in_flight", 0, "max_in_flight must be >= 1"),
    ],
)
def test_http_config_rejects(field, value, message):
    # max_in_flight=0 would block the first call forever, retries=-1 would
    # raise a bare AssertionError and timeout_s=0 a ValueError from requests
    with pytest.raises(ValueError, match=message):
        HttpConfig(**{field: value})


def test_http_retry_then_success():
    backend = _Backend(fail_first=2)
    try:
        provider = HttpPerceptionProvider(
            backend.url, HttpConfig(retries=3, backoff_base_s=0.01)
        )
        out = provider.perceive(gray_image(), "p")
        assert out.width == 4
        assert backend.calls == 3
    finally:
        backend.close()


def test_http_retry_budget_exhausted():
    backend = _Backend(fail_first=100)
    try:
        provider = HttpPerceptionProvider(
            backend.url, HttpConfig(retries=2, backoff_base_s=0.01)
        )
        with pytest.raises(HttpStatusError):
            provider.perceive(gray_image(), "p")
        assert backend.calls == 3  # initial try + 2 retries
    finally:
        backend.close()


def test_http_dim_mismatch_is_schema_error():
    backend = _Backend(saliency_shape=(2, 2))
    try:
        provider = HttpPerceptionProvider(backend.url, HttpConfig(retries=0))
        with pytest.raises(SchemaError):
            provider.perceive(gray_image(), "p")
    finally:
        backend.close()


def test_http_in_flight_bound():
    backend = _Backend(delay=0.15)
    try:
        provider = HttpPerceptionProvider(
            backend.url, HttpConfig(retries=0, max_in_flight=2)
        )
        threads = [
            threading.Thread(target=provider.perceive, args=(gray_image(), "p"))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert backend.calls == 4
        assert backend.max_in_flight <= 2
    finally:
        backend.close()


def test_http_provider_factory():
    p = http_provider("http://example.invalid", "perception")
    assert isinstance(p, HttpPerceptionProvider)
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
    backend = _Backend(answers={"/v1/diagnose": _answer(_entry(0), _entry(1))})
    try:
        http_provider(backend.url, "reasoning").diagnose(gray_image(6, 5), "p", regions)
    finally:
        backend.close()
    [(path, req)] = backend.requests
    assert path == "/v1/diagnose"
    assert [r["bbox"] for r in req["regions"]] == [[3, 2, 4, 3], [0, 4, 1, 4]]
    sent = [mask_from_bytes(base64.b64decode(r["mask_b64"])) for r in req["regions"]]
    assert all(np.array_equal(m, f) for m, f in zip(sent, frames))


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


def _call(role, url):
    """One call of `role` on a 4x4 gray image; diagnose sends two regions."""
    provider = http_provider(url, role, HttpConfig(retries=2, backoff_base_s=0.01))
    image = gray_image()
    if role == "perception":
        return provider.perceive(image, "p")
    if role == "reasoning":
        return provider.diagnose(image, "p", [proposal((0, 0, 1, 1)), proposal((2, 2, 3, 3))])
    return provider.inpaint(image, np.ones((4, 4), bool))


@pytest.mark.parametrize(
    "role, answer",
    [
        pytest.param("perception", {}, id="perceive-missing"),
        pytest.param("perception", {"saliency_b64": "no base64!"}, id="perceive-not-base64"),
        pytest.param("perception", {"saliency_b64": 7}, id="perceive-not-a-string"),
        pytest.param("perception", {"saliency_b64": _b64(b"FSAL9")}, id="perceive-not-fsal"),
        pytest.param("perception", {"saliency_b64": _GRID_2X2}, id="perceive-wrong-dims"),
        pytest.param("inpaint", {}, id="inpaint-missing"),
        pytest.param("inpaint", {"image_b64": "no base64!"}, id="inpaint-not-base64"),
        pytest.param("inpaint", {"image_b64": _GRID_2X2}, id="inpaint-not-pnm"),
        pytest.param("inpaint", {"image_b64": _PNM_3X3}, id="inpaint-wrong-dims"),
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
    backend = _Backend(answers={_PATHS[role]: answer})
    try:
        with pytest.raises(SchemaError):
            _call(role, backend.url)
        assert backend.calls == 1  # a bad answer is not retried
    finally:
        backend.close()


def test_run_loop_stops_provider_error_on_a_null_severity():
    # the bare TypeError of float(None) used to escape run_loop
    scene = scene_with_bump(0.8)
    backend = _Backend(answers={"/v1/diagnose": _answer(_entry(0, severity=None))})
    try:
        provs = LoopProviders(
            perception=MockPerceptionProvider(scene),
            reasoning=http_provider(backend.url, "reasoning", HttpConfig(retries=0)),
            tools=[MockInpaintTool(scene)],
        )
        cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
        trace = run_loop(scene.image, "p", provs, cfg)
    finally:
        backend.close()
    assert trace.stop_reason == STOP_PROVIDER_ERROR
    assert "r0" in trace.error
    [rec] = trace.records
    assert len(rec.regions) == 1
    assert rec.diagnoses == rec.actions == ()
    assert trace.final_image == scene.image
