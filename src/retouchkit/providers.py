"""Provider interfaces for the three neural roles (perception, diagnosis,
inpainting), deterministic mock providers for model-free testing, and an
HTTP/JSON backend client with retries and a bounded in-flight count.
"""

from __future__ import annotations

import base64
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence

import numpy as np
import requests

from .dataset import DistortionCategory
from .media_io import ImageBuffer, FloatGrid, read_float_grid, read_pnm, write_float_grid, write_pnm
from .saliency import RegionProposal, SaliencyMap
from .textmetrics import Diagnosis

MASK_GUIDED = "mask-guided"
INSTRUCTION_DRIVEN = "instruction-driven"


class ProviderError(RuntimeError):
    pass


class TransportError(ProviderError):
    pass


class HttpStatusError(ProviderError):
    def __init__(self, status: int, body: str = ""):
        self.status = status
        super().__init__("backend returned HTTP %d" % status)


class SchemaError(ProviderError):
    pass


class PerceptionProvider(Protocol):
    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap: ...


class ReasoningProvider(Protocol):
    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]: ...


@dataclass(frozen=True)
class ToolDescriptor:
    name: str
    kind: str  # MASK_GUIDED or INSTRUCTION_DRIVEN
    cost_hint: float = 0.0

    def __post_init__(self):
        if self.kind not in (MASK_GUIDED, INSTRUCTION_DRIVEN):
            raise ValueError("kind must be %r or %r" % (MASK_GUIDED, INSTRUCTION_DRIVEN))
        if self.cost_hint < 0.0:
            raise ValueError("cost_hint must be >= 0")


class InpaintTool(Protocol):
    descriptor: ToolDescriptor

    def inpaint(
        self,
        image: ImageBuffer,
        mask: Optional[np.ndarray] = None,
        instruction: Optional[str] = None,
    ) -> ImageBuffer: ...


@dataclass(frozen=True)
class ToolPolicy:
    prefer: str = "auto"  # "auto", MASK_GUIDED or INSTRUCTION_DRIVEN
    max_cost: float = float("inf")

    def __post_init__(self):
        if self.prefer not in ("auto", MASK_GUIDED, INSTRUCTION_DRIVEN):
            raise ValueError("bad prefer value %r" % self.prefer)


# ---------------------------------------------------------------------------
# Deterministic mocks backed by a synthetic scene


@dataclass
class SyntheticScene:
    """Test double: an image with a hidden distortion field the mock
    perceiver reads verbatim and the mock inpainter decays inside edited
    masks."""

    image: ImageBuffer
    distortion_field: np.ndarray  # float in [0,1], dims = image dims
    decay: float = 0.5

    def __post_init__(self):
        self.distortion_field = np.asarray(self.distortion_field, dtype=np.float32)
        if self.distortion_field.shape != (self.image.height, self.image.width):
            raise ValueError("field dims must equal image dims")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


class MockPerceptionProvider:
    """Perfect perceiver: returns the scene's hidden field."""

    def __init__(self, scene: SyntheticScene):
        self.scene = scene

    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap:
        return SaliencyMap.from_array(self.scene.distortion_field.copy())


class MockReasoningProvider:
    """Seeded deterministic diagnoses: category from a bbox hash,
    templated description, severity = peak saliency."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]:
        cats = list(DistortionCategory)
        out = []
        for idx, region in enumerate(regions):
            key = ("%d:%d,%d,%d,%d" % ((self.seed,) + region.bbox)).encode()
            cat = cats[zlib.crc32(key) % len(cats)]
            x0, y0, x1, y1 = region.bbox
            out.append(
                Diagnosis(
                    region_id="r%d" % idx,
                    category=cat,
                    description="%s at (%d,%d)-(%d,%d)" % (cat.value, x0, y0, x1, y1),
                    severity=region.peak_saliency,
                )
            )
        return out


class MockInpaintTool:
    """Decays the scene's hidden field inside the mask and paints the
    masked image pixels with their mean color."""

    def __init__(self, scene: SyntheticScene, descriptor: ToolDescriptor | None = None):
        self.scene = scene
        self.descriptor = descriptor or ToolDescriptor(name="mock-inpaint", kind=MASK_GUIDED)

    def inpaint(
        self,
        image: ImageBuffer,
        mask: Optional[np.ndarray] = None,
        instruction: Optional[str] = None,
    ) -> ImageBuffer:
        if self.descriptor.kind == MASK_GUIDED and mask is None:
            raise ValueError("mask-guided tool requires a mask")
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        if mask is None:
            # instruction-only edit: apply to the whole image
            mask = np.ones((image.height, image.width), dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        self.scene.distortion_field[mask] *= self.scene.decay
        arr = image.to_array().copy()
        if mask.any():
            # the mean of uint8 values sums in float64, where integer sums are exact
            arr[mask] = np.round(arr[mask].mean(axis=0))
        out = ImageBuffer.from_array(arr)
        self.scene.image = out
        return out


def make_mock_providers(scene: SyntheticScene, seed: int = 0):
    """Bundle (perception, reasoning, [tool]) mocks sharing one scene."""
    return (
        MockPerceptionProvider(scene),
        MockReasoningProvider(seed),
        [MockInpaintTool(scene)],
    )


# ---------------------------------------------------------------------------
# Tool selection


class NoEligibleToolError(ValueError):
    """No tool in the registry satisfies the policy for a diagnosis."""


def select_tool(
    registry: Sequence[InpaintTool], diagnosis: Diagnosis, policy: ToolPolicy
) -> InpaintTool:
    """Cheapest tool of the preferred kind within max_cost; with "auto",
    instruction-driven for text anomalies (the instruction carries the
    semantics), mask-guided otherwise. Ties keep registry order."""
    if not registry:
        raise NoEligibleToolError("empty tool registry")
    if policy.prefer == "auto":
        want = (
            INSTRUCTION_DRIVEN
            if diagnosis.category is DistortionCategory.TEXT_ANOMALY
            else MASK_GUIDED
        )
    else:
        want = policy.prefer
    candidates = [
        t
        for t in registry
        if t.descriptor.kind == want and t.descriptor.cost_hint <= policy.max_cost
    ]
    if not candidates:
        raise NoEligibleToolError("no tool satisfies policy (kind=%s, max_cost=%g)" % (want, policy.max_cost))
    return min(candidates, key=lambda t: t.descriptor.cost_hint)


# ---------------------------------------------------------------------------
# HTTP/JSON backend providers


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _unb64(text: str) -> bytes:
    try:
        return base64.b64decode(text, validate=True)
    except Exception as exc:
        raise SchemaError("invalid base64 payload: %s" % exc)


def mask_to_bytes(mask: np.ndarray) -> bytes:
    """Binary mask as a P5 graymap (0 / 255)."""
    arr = np.where(np.asarray(mask, dtype=bool), 255, 0).astype(np.uint8)
    return write_pnm(ImageBuffer.from_array(arr))


def mask_from_bytes(data: bytes) -> np.ndarray:
    img = read_pnm(data)
    if img.channels != 1:
        raise SchemaError("mask must be a graymap")
    return img.to_array()[:, :, 0] > 127


@dataclass
class HttpConfig:
    timeout_s: float = 30.0
    retries: int = 3
    backoff_base_s: float = 0.1
    max_in_flight: int = 4


class _HttpClient:
    def __init__(self, endpoint: str, cfg: HttpConfig):
        self.endpoint = endpoint.rstrip("/")
        self.cfg = cfg
        self._gate = threading.BoundedSemaphore(cfg.max_in_flight)
        self._session = requests.Session()

    def post(self, path: str, payload: dict) -> dict:
        last: Exception | None = None
        for attempt in range(self.cfg.retries + 1):
            if attempt:
                time.sleep(self.cfg.backoff_base_s * (2 ** (attempt - 1)))
            with self._gate:
                try:
                    resp = self._session.post(
                        self.endpoint + path, json=payload, timeout=self.cfg.timeout_s
                    )
                except requests.RequestException as exc:
                    last = TransportError("transport failure: %s" % exc)
                    continue
            if resp.status_code == 200:
                try:
                    body = resp.json()
                except ValueError as exc:
                    raise SchemaError("non-JSON response body: %s" % exc)
                if not isinstance(body, dict):
                    raise SchemaError("response is not a JSON object")
                return body
            last = HttpStatusError(resp.status_code, resp.text[:200])
            if 400 <= resp.status_code < 500:
                break  # client errors are not retried
        assert last is not None
        raise last


class HttpPerceptionProvider:
    def __init__(self, endpoint: str, cfg: HttpConfig | None = None):
        self._client = _HttpClient(endpoint, cfg or HttpConfig())

    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap:
        body = self._client.post(
            "/v1/perceive",
            {"image_b64": _b64(write_pnm(image)), "format": "pnm", "prompt": prompt},
        )
        try:
            grid = read_float_grid(_unb64(body["saliency_b64"]))
        except KeyError:
            raise SchemaError("response missing saliency_b64")
        except ValueError as exc:
            raise SchemaError("undecodable saliency payload: %s" % exc)
        if (grid.width, grid.height) != (image.width, image.height):
            raise SchemaError(
                "saliency dims %dx%d != image dims %dx%d"
                % (grid.width, grid.height, image.width, image.height)
            )
        try:
            return SaliencyMap(grid)
        except ValueError as exc:
            raise SchemaError(str(exc))


class HttpReasoningProvider:
    def __init__(self, endpoint: str, cfg: HttpConfig | None = None):
        self._client = _HttpClient(endpoint, cfg or HttpConfig())

    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]:
        req_regions = [
            {"id": "r%d" % i, "bbox": list(r.bbox), "mask_b64": _b64(mask_to_bytes(r.mask))}
            for i, r in enumerate(regions)
        ]
        body = self._client.post(
            "/v1/diagnose",
            {"image_b64": _b64(write_pnm(image)), "prompt": prompt, "regions": req_regions},
        )
        raw = body.get("diagnoses")
        if not isinstance(raw, list) or len(raw) != len(regions):
            raise SchemaError("diagnoses missing or not aligned with request regions")
        out = []
        by_id = {d.get("id"): d for d in raw if isinstance(d, dict)}
        for i in range(len(regions)):
            d = by_id.get("r%d" % i)
            if d is None:
                raise SchemaError("missing diagnosis for region r%d" % i)
            try:
                out.append(
                    Diagnosis(
                        region_id="r%d" % i,
                        category=DistortionCategory(d["category"]),
                        description=str(d["description"]),
                        severity=float(d["severity"]),
                    )
                )
            except (KeyError, ValueError) as exc:
                raise SchemaError("bad diagnosis for r%d: %s" % (i, exc))
        return out


class HttpInpaintTool:
    def __init__(self, endpoint: str, descriptor: ToolDescriptor, cfg: HttpConfig | None = None):
        self.descriptor = descriptor
        self._client = _HttpClient(endpoint, cfg or HttpConfig())

    def inpaint(
        self,
        image: ImageBuffer,
        mask: Optional[np.ndarray] = None,
        instruction: Optional[str] = None,
    ) -> ImageBuffer:
        if self.descriptor.kind == MASK_GUIDED and mask is None:
            raise ValueError("mask-guided tool requires a mask")
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        payload: dict = {"image_b64": _b64(write_pnm(image))}
        if mask is not None:
            payload["mask_b64"] = _b64(mask_to_bytes(mask))
        if instruction is not None:
            payload["instruction"] = instruction
        body = self._client.post("/v1/inpaint", payload)
        try:
            out = read_pnm(_unb64(body["image_b64"]))
        except KeyError:
            raise SchemaError("response missing image_b64")
        except ValueError as exc:
            raise SchemaError("undecodable image payload: %s" % exc)
        if (out.width, out.height) != (image.width, image.height):
            raise SchemaError("inpainted dims differ from input dims")
        return out


def http_provider(endpoint: str, role: str, cfg: HttpConfig | None = None, **kwargs):
    """Factory for HTTP-backed providers: role in {perception, reasoning,
    inpaint}. For inpaint, pass a ToolDescriptor via `descriptor=`."""
    if role == "perception":
        return HttpPerceptionProvider(endpoint, cfg)
    if role == "reasoning":
        return HttpReasoningProvider(endpoint, cfg)
    if role == "inpaint":
        descriptor = kwargs.get("descriptor") or ToolDescriptor(name="http-inpaint", kind=MASK_GUIDED)
        return HttpInpaintTool(endpoint, descriptor, cfg)
    raise ValueError("unknown role %r" % role)
