"""One scriptable fake of the three HTTP backend roles, for tests.

`FakeBackend.handle(path, body) -> (status, answer)` answers one POST. An
answer is a JSON value, or bytes sent as they are. Unless a test scripts
it, the answer is that of the in-process mocks over one scene, so a loop
over HTTP can be compared with one over the mocks. `mount` serves a backend
in-process: `handle` takes the place of the socket round trip
(`_exchange`) of a provider that `http_provider` built, so the providers'
JSON, base64, retry and in-flight code runs as it does over a socket.
`LoopbackServer` serves the same `handle` on 127.0.0.1 for code that builds
its own providers, such as the `run-loop` command, and for the socket round
trip itself.

A change to the wire protocol is made here, once, for every test. The
runtime-only CI step loads this file through `tests/test_cli.py` with numpy
and pytest alone, so it imports only the standard library, numpy and
retouchkit.
"""

from __future__ import annotations

import base64
import collections
import json
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from retouchkit.media_io import read_pnm, write_float_grid, write_pnm
from retouchkit.providers import (
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SyntheticScene,
    mask_from_bytes,
)
from retouchkit.saliency import RegionProposal

# the endpoint of a mounted provider; `mount` replaces its socket round
# trip, so this host is never looked up
URL = "http://fake-backend"


@dataclass(frozen=True)
class Delay:
    """A scripted outcome: wait this long, then answer as usual."""

    seconds: float


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _encode(answer) -> bytes:
    return answer if isinstance(answer, bytes) else json.dumps(answer).encode()


class FakeBackend:
    """Answers each path with `answers[path]`, else as the in-process mocks
    answer over `scene`: `MockPerceptionProvider`, `MockReasoningProvider(seed)`
    and `MockInpaintTool`, which decays the scene's field. Without a scene,
    such a request gets a 404.

    `outcomes` is a queue taken one per request, in arrival order; once it
    is empty every request is answered as usual. An outcome is a status
    code (answered with an error object), bytes (a 200 answer sent as they
    are), a `Delay`, or an exception to raise, such as `socket.timeout()`
    or `ConnectionRefusedError()`; a raised exception reaches the client
    only through `mount`.
    """

    def __init__(
        self, scene: SyntheticScene | None = None, seed: int = 0, answers: dict | None = None, outcomes=()
    ):
        self.scene, self.reasoning = scene, MockReasoningProvider(seed)
        self.answers = dict(answers or {})
        self.outcomes = collections.deque(outcomes)
        self.requests: list[tuple[str, dict]] = []  # (path, JSON request), in arrival order
        self.in_flight = 0
        self.max_in_flight = 0
        self.lock = threading.Lock()

    @property
    def calls(self) -> int:
        return len(self.requests)

    def handle(self, path: str, body: bytes) -> tuple[int, object]:
        req = json.loads(body)
        with self.lock:
            self.requests.append((path, req))
            self.in_flight += 1
            self.max_in_flight = max(self.max_in_flight, self.in_flight)
            outcome = self.outcomes.popleft() if self.outcomes else None
        try:
            if isinstance(outcome, Delay):
                time.sleep(outcome.seconds)
            elif isinstance(outcome, (BaseException, type)):
                raise outcome
            if isinstance(outcome, int):
                return outcome, {"error": "scripted status %d" % outcome}
            if isinstance(outcome, bytes):
                return 200, outcome
            if path in self.answers:
                return 200, self.answers[path]
            return self._mock_answer(path, req)
        finally:
            with self.lock:
                self.in_flight -= 1

    def _mock_answer(self, path: str, req: dict) -> tuple[int, dict]:
        """The mocks' answer over the scene. A region's peak is the field's
        maximum under its decoded mask: the peak that `propose_masks` found
        in the map this backend sent."""
        if self.scene is None or path not in ("/v1/perceive", "/v1/diagnose", "/v1/inpaint"):
            return 404, {"error": "no answer for %s" % path}
        image = read_pnm(base64.b64decode(req["image_b64"]))
        if path == "/v1/perceive":
            smap = MockPerceptionProvider(self.scene).perceive(image, req["prompt"])
            return 200, {"saliency_b64": _b64(write_float_grid(smap.grid))}
        if path == "/v1/inpaint":
            mask = mask_from_bytes(base64.b64decode(req["mask_b64"]))
            return 200, {"image_b64": _b64(write_pnm(MockInpaintTool(self.scene).inpaint(image, mask)))}
        regions = []
        for r in req["regions"]:
            mask = mask_from_bytes(base64.b64decode(r["mask_b64"]))
            peak = float(self.scene.distortion_field[mask].max())
            regions.append(RegionProposal(mask, tuple(r["bbox"]), peak, int(mask.sum())))
        diagnoses = self.reasoning.diagnose(image, req["prompt"], regions)
        return 200, {
            "diagnoses": [
                {
                    "id": d.region_id,
                    "category": d.category.value,
                    "description": d.description,
                    "severity": d.severity,
                }
                for d in diagnoses
            ]
        }


def mount(provider, backend):
    """Serve every request of a provider built by `http_provider` from
    `backend`, whose `handle` replaces the provider's `_exchange`; returns
    the provider."""

    def exchange(path, body):
        status, answer = backend.handle(path, body)
        return status, _encode(answer)

    provider._exchange = exchange
    return provider


class LoopbackServer:
    """Serves `backend.handle` on 127.0.0.1 until `close()`, keeping the
    headers of each request in `headers`; also a context manager."""

    def __init__(self, backend):
        headers = self.headers = []

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def do_POST(self):
                headers.append(self.headers)
                body = self.rfile.read(int(self.headers["Content-Length"]))
                status, answer = backend.handle(self.path, body)
                data = _encode(answer)
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = "http://127.0.0.1:%d" % self.server.server_address[1]
        # a short poll keeps close() from waiting up to 0.5 s
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
