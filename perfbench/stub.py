"""Loopback HTTP backend for the loop_http workload.

It serves /s/<tag>/<k>/v1/{perceive,diagnose,inpaint} with the semantics of
retouchkit's mock providers, holding one SyntheticScene per path prefix
(scene k of the seeded RGB pool, see scenes.rgb_pool). The n-th request of
scene k (0-based) is answered with 503 iff n % 50 == scenes.fault_phase(seed,
k), so retries repeat exactly from run to run. It counts requests, non-200
answers, body bytes in and out and its own service time; GET /stats returns
the counters as JSON.

Run as a child process: `python3 stub.py --seed N` prints the port on its
first stdout line and serves until stdin is closed or it is terminated.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from retouchkit.media_io import ImageBuffer, read_pnm, write_float_grid, write_pnm
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SyntheticScene,
    ToolDescriptor,
    mask_from_bytes,
)
from retouchkit.saliency import RegionProposal

import scenes

# Scenes older than the newest one by more than this are dropped; a request
# for a dropped scene gets 410, so a loss of state cannot pass unnoticed.
SCENE_WINDOW = 64


class _SceneState:
    def __init__(self, scene: SyntheticScene, phase: int):
        self.scene = scene
        self.phase = phase
        self.requests = 0
        self.lock = threading.Lock()


class StubBackend:
    def __init__(self, seed: int):
        self.seed = seed
        self.pool = scenes.rgb_pool(seed)
        self.reasoning = MockReasoningProvider(seed)
        self.lock = threading.Lock()
        self.tag: str | None = None
        self.floor = 0
        self.scenes: dict[int, _SceneState] = {}
        self.stats = {"requests": 0, "failed": 0, "bytes_in": 0, "bytes_out": 0, "service_s": 0.0}

    def _scene(self, tag: str, k: int) -> _SceneState | None:
        with self.lock:
            if tag != self.tag:
                self.tag, self.floor = tag, 0
                self.scenes.clear()
            if k < self.floor:
                return None
            state = self.scenes.get(k)
            if state is None:
                image, field = self.pool.item(k)
                scene = SyntheticScene(ImageBuffer.from_array(image), field, decay=scenes.DECAY)
                state = self.scenes[k] = _SceneState(scene, scenes.fault_phase(self.seed, k))
                if k - SCENE_WINDOW > self.floor:
                    self.floor = k - SCENE_WINDOW
                    for old in [j for j in self.scenes if j < self.floor]:
                        del self.scenes[old]
            return state

    def handle(self, path: str, body: bytes) -> tuple[int, dict]:
        parts = path.strip("/").split("/")
        if len(parts) != 5 or parts[0] != "s" or parts[3] != "v1" or not parts[2].isdigit():
            return 404, {"error": "unknown path"}
        state = self._scene(parts[1], int(parts[2]))
        if state is None:
            return 410, {"error": "scene state was dropped"}
        with state.lock:
            n = state.requests
            state.requests += 1
            if n % 50 == state.phase:
                return 503, {"error": "injected fault"}
            req = json.loads(body)
            image = read_pnm(base64.b64decode(req["image_b64"]))
            op = parts[4]
            if op == "perceive":
                smap = MockPerceptionProvider(state.scene).perceive(image, req["prompt"])
                return 200, {"saliency_b64": _b64(write_float_grid(smap.grid))}
            if op == "diagnose":
                field = state.scene.distortion_field
                regions = []
                for reg in req["regions"]:
                    mask = mask_from_bytes(base64.b64decode(reg["mask_b64"]))
                    regions.append(
                        RegionProposal(
                            mask=mask,
                            bbox=tuple(reg["bbox"]),
                            peak_saliency=float(field[mask].max()),
                            area=int(mask.sum()),
                        )
                    )
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
            if op == "inpaint":
                mask = mask_from_bytes(base64.b64decode(req["mask_b64"])) if "mask_b64" in req else None
                instruction = req.get("instruction")
                kind = INSTRUCTION_DRIVEN if instruction is not None else MASK_GUIDED
                tool = MockInpaintTool(state.scene, ToolDescriptor(name="stub", kind=kind))
                out = tool.inpaint(image, mask=mask, instruction=instruction)
                return 200, {"image_b64": _b64(write_pnm(out))}
            return 404, {"error": "unknown operation"}


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def make_server(backend: StubBackend, port: int = 0) -> ThreadingHTTPServer:
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def _send(self, status: int, obj: dict) -> int:
            data = json.dumps(obj).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
            return len(data)

        def do_GET(self):
            if self.path != "/stats":
                self._send(404, {"error": "unknown path"})
                return
            with backend.lock:
                stats = dict(backend.stats)
            self._send(200, stats)

        def do_POST(self):
            start = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            try:
                status, obj = backend.handle(self.path, body)
            except Exception as exc:  # a stub bug must reach the client as a failure
                status, obj = 500, {"error": repr(exc)}
            sent = self._send(status, obj)
            elapsed = time.perf_counter() - start
            with backend.lock:
                s = backend.stats
                s["requests"] += 1
                s["failed"] += status != 200
                s["bytes_in"] += len(body)
                s["bytes_out"] += sent
                s["service_s"] += elapsed

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    server = make_server(StubBackend(args.seed))

    def stop_when_stdin_closes():
        sys.stdin.buffer.read()
        server.shutdown()

    threading.Thread(target=stop_when_stdin_closes, daemon=True).start()
    print(server.server_address[1], flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
