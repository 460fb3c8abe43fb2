import base64
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from retouchkit.dataset import DistortionCategory
from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid
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
    select_tool,
)
from retouchkit.saliency import RegionProposal
from retouchkit.textmetrics import Diagnosis


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


# --- select_tool ---------------------------------------------------------

class _FakeTool:
    def __init__(self, name, kind, cost):
        self.descriptor = ToolDescriptor(name=name, kind=kind, cost_hint=cost)

    def inpaint(self, image, mask=None, instruction=None):
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

class _Backend:
    """Counting test server with scriptable behavior."""

    def __init__(self, fail_first=0, saliency_shape=None, delay=0.0):
        self.fail_first = fail_first
        self.saliency_shape = saliency_shape  # override returned dims
        self.delay = delay
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
                    h, w = backend.saliency_shape or (4, 4)
                    grid = FloatGrid.from_array(np.zeros((h, w), np.float32))
                    body = json.dumps(
                        {
                            "saliency_b64": base64.b64encode(
                                write_float_grid(grid)
                            ).decode(),
                            "width": w,
                            "height": h,
                        }
                    ).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                finally:
                    with backend.lock:
                        backend.in_flight -= 1

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        return "http://127.0.0.1:%d" % self.server.server_address[1]

    def close(self):
        self.server.shutdown()
        self.server.server_close()


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
