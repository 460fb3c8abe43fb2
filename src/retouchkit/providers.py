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
from .media_io import ImageBuffer, read_float_grid, read_pnm, write_float_grid, write_pnm
from .saliency import RegionProposal, SaliencyMap
from .textmetrics import Diagnosis

MASK_GUIDED = "mask-guided"
INSTRUCTION_DRIVEN = "instruction-driven"


class ProviderError(RuntimeError):
    pass


class TransportError(ProviderError):
    pass


class HttpStatusError(ProviderError):
    def __init__(self, status: int):
        self.status = status
        super().__init__("backend returned HTTP %d" % status)


class SchemaError(ProviderError):
    pass


class PerceptionProvider(Protocol):
    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap: ...


class ReasoningProvider(Protocol):
    """Returns exactly one diagnosis per region, in region order; run_loop
    treats any other length as a SchemaError."""

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
    """Edits the pixels under `mask` (a bool array with the image's height
    and width); an instruction-driven tool also takes an instruction."""

    descriptor: ToolDescriptor

    def inpaint(
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
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
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
    ) -> ImageBuffer:
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (image.height, image.width):
            raise ValueError("mask dims must equal image dims")
        # flat pixel indices: boolean indexing is slow, and `.flat` also
        # writes through to a field that is not contiguous
        idx = np.flatnonzero(mask)
        self.scene.distortion_field.flat[idx] *= self.scene.decay
        px = image.to_array().reshape(-1, image.channels).copy()
        if idx.size:
            # the mean of uint8 values sums in float64, where integer sums are exact
            px[idx] = np.round(px[idx].mean(axis=0))
        return ImageBuffer.from_array(px.reshape(image.height, image.width, image.channels))


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


def _decode_answer(body: dict, key: str, read, image: ImageBuffer):
    """Decode the base64 PNM or FSAL1 field `key` of a backend answer with
    `read`; the result must have the request image's width and height."""
    try:
        out = read(base64.b64decode(body[key], validate=True))
    except KeyError:
        raise SchemaError("response missing %s" % key)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise SchemaError("undecodable %s payload: %s" % (key, exc))
    if (out.width, out.height) != (image.width, image.height):
        raise SchemaError(
            "%s dims %dx%d != image dims %dx%d"
            % (key, out.width, out.height, image.width, image.height)
        )
    return out


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
    def __init__(self, endpoint: str, cfg: HttpConfig | None = None):
        self.endpoint = endpoint.rstrip("/")
        self.cfg = cfg or HttpConfig()
        self._gate = threading.BoundedSemaphore(self.cfg.max_in_flight)
        self._session = requests.Session()

    def post(self, path: str, image: ImageBuffer, **fields) -> dict:
        """POST `image` (base64 PNM) and `fields` as one JSON object, with
        retries; returns the answer object."""
        payload = {"image_b64": _b64(write_pnm(image)), **fields}
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
            last = HttpStatusError(resp.status_code)
            if 400 <= resp.status_code < 500:
                break  # client errors are not retried
        assert last is not None
        raise last


class HttpPerceptionProvider:
    def __init__(self, endpoint: str, cfg: HttpConfig | None = None):
        self._client = _HttpClient(endpoint, cfg)

    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap:
        body = self._client.post("/v1/perceive", image, format="pnm", prompt=prompt)
        grid = _decode_answer(body, "saliency_b64", read_float_grid, image)
        try:
            return SaliencyMap(grid)
        except ValueError as exc:
            raise SchemaError(str(exc))


class HttpReasoningProvider:
    def __init__(self, endpoint: str, cfg: HttpConfig | None = None):
        self._client = _HttpClient(endpoint, cfg)

    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]:
        req_regions = [
            {"id": "r%d" % i, "bbox": list(r.bbox), "mask_b64": _b64(mask_to_bytes(r.mask))}
            for i, r in enumerate(regions)
        ]
        body = self._client.post("/v1/diagnose", image, prompt=prompt, regions=req_regions)
        raw = body.get("diagnoses")
        if not isinstance(raw, list) or len(raw) != len(regions):
            raise SchemaError("diagnoses missing or not aligned with request regions")
        out = []
        # an entry without a string id answers no region, so with the
        # lengths equal some region is missing below
        by_id = {d["id"]: d for d in raw if isinstance(d, dict) and isinstance(d.get("id"), str)}
        for i in range(len(regions)):
            d = by_id.get("r%d" % i)
            if d is None:
                raise SchemaError("missing diagnosis for region r%d" % i)
            try:
                description, severity = d["description"], d["severity"]
                # type(), not isinstance: a JSON `true` is no severity
                if not isinstance(description, str) or type(severity) not in (int, float):
                    raise TypeError("description must be a string and severity a number")
                category = DistortionCategory(d["category"])
                out.append(Diagnosis("r%d" % i, category, description, float(severity)))
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError("bad diagnosis for r%d: %s" % (i, exc))
        return out


class HttpInpaintTool:
    def __init__(self, endpoint: str, descriptor: ToolDescriptor, cfg: HttpConfig | None = None):
        self.descriptor = descriptor
        self._client = _HttpClient(endpoint, cfg)

    def inpaint(
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
    ) -> ImageBuffer:
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        fields = {"mask_b64": _b64(mask_to_bytes(mask))}
        if instruction is not None:
            fields["instruction"] = instruction
        body = self._client.post("/v1/inpaint", image, **fields)
        return _decode_answer(body, "image_b64", read_pnm, image)


def http_provider(
    endpoint: str, role: str, cfg: HttpConfig | None = None, descriptor: ToolDescriptor | None = None
):
    """Factory for HTTP-backed providers: role in {perception, reasoning,
    inpaint}; `descriptor` describes an inpaint tool (default: mask-guided
    "http-inpaint")."""
    if role == "perception":
        return HttpPerceptionProvider(endpoint, cfg)
    if role == "reasoning":
        return HttpReasoningProvider(endpoint, cfg)
    if role == "inpaint":
        descriptor = descriptor or ToolDescriptor(name="http-inpaint", kind=MASK_GUIDED)
        return HttpInpaintTool(endpoint, descriptor, cfg)
    raise ValueError("unknown role %r" % role)
