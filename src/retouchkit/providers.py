"""Provider interfaces for the three neural roles (perception, diagnosis,
inpainting), deterministic mock providers for model-free testing, and
HTTP/JSON backend providers, built by `http_provider`, with retries and a
bounded in-flight count.
"""

from __future__ import annotations

import base64
import http.client
import json
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Optional, Protocol, Sequence
from urllib.parse import quote, urlsplit

import numpy as np

from .dataset import DistortionCategory, typed
from .media_io import ImageBuffer, check_size, read_float_grid, read_pnm, write_float_grid, write_pnm
from .saliency import RegionProposal, SaliencyMap, label_set_pixels, union_mask
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
    """Returns a map of the image's width and height; run_loop treats any
    other size as a SchemaError."""

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

    def __post_init__(self):
        if self.kind not in (MASK_GUIDED, INSTRUCTION_DRIVEN):
            raise ValueError("kind must be %r or %r" % (MASK_GUIDED, INSTRUCTION_DRIVEN))


class InpaintTool(Protocol):
    """Edits the pixels under `mask` (a bool array with the image's height
    and width); an instruction-driven tool also takes an instruction.
    run_loop treats an answer whose width, height or channels differ from
    the image's as a SchemaError."""

    descriptor: ToolDescriptor

    def inpaint(
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
    ) -> ImageBuffer: ...


# ---------------------------------------------------------------------------
# Deterministic mocks backed by a synthetic scene


@dataclass
class SyntheticScene:
    """Test double: an image with a hidden distortion field the mock
    perceiver reads verbatim and the mock inpainter decays inside edited
    masks. The scene holds a float32 copy of the field it is given."""

    image: ImageBuffer
    distortion_field: np.ndarray  # float in [0,1], dims = image dims
    decay: float = 0.5

    def __post_init__(self):
        f = self.distortion_field = np.array(self.distortion_field, dtype=np.float32)
        check_size("field", f.shape[::-1], "image", (self.image.width, self.image.height))
        if not (f.min() >= 0.0 and f.max() <= 1.0):  # also rejects NaN
            raise ValueError("field values must lie in [0, 1]")
        if not 0.0 < self.decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")


class MockPerceptionProvider:
    """Perfect perceiver: returns the scene's hidden field."""

    def __init__(self, scene: SyntheticScene):
        self.scene = scene

    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap:
        # from_array copies the field, which the mock tool decays in place
        return SaliencyMap.from_array(self.scene.distortion_field)


class MockReasoningProvider:
    """Seeded deterministic diagnoses: category from a bbox hash,
    templated description, severity = peak saliency."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]:
        cats = list(DistortionCategory)
        names = [cat.value for cat in cats]
        out = []
        for idx, region in enumerate(regions):
            bbox = region.bbox
            k = zlib.crc32(b"%d:%d,%d,%d,%d" % ((self.seed,) + bbox)) % len(cats)
            out.append(
                Diagnosis(
                    region_id="r%d" % idx,
                    category=cats[k],
                    description="%s at (%d,%d)-(%d,%d)" % ((names[k],) + bbox),
                    severity=region.peak_saliency,
                )
            )
        return out


class MockInpaintTool:
    """Decays the scene's hidden field inside the mask and paints each
    8-connected hole of the mask with the rounded mean color of its pixels."""

    def __init__(self, scene: SyntheticScene, descriptor: ToolDescriptor | None = None):
        self.scene = scene
        self.descriptor = descriptor or ToolDescriptor(name="mock-inpaint", kind=MASK_GUIDED)

    def inpaint(
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
    ) -> ImageBuffer:
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        mask = np.asarray(mask, dtype=bool)
        check_size("mask", mask.shape[::-1], "image", (image.width, image.height))
        rows = np.flatnonzero(mask.any(axis=1))
        if not rows.size:
            return image
        cols = np.flatnonzero(mask[rows[0] : rows[-1] + 1].any(axis=0))
        # all work stays inside the mask's bounding box
        box = np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]
        hole = mask[box]
        field = self.scene.distortion_field[box]
        np.multiply(field, self.scene.decay, out=field, where=hole)
        lbl, n = label_set_pixels(hole)
        px = image.to_array().copy()
        window = px[box]
        counts = np.bincount(lbl, minlength=n + 1)[1:]
        for c in range(image.channels):
            # uint8 sums are exact in float64, so each mean equals the mean
            # of that hole's pixels on its own
            sums = np.bincount(lbl, weights=window[..., c][hole], minlength=n + 1)[1:]
            window[..., c][hole] = np.round(sums / counts)[lbl - 1]
        return ImageBuffer(px)  # px is this call's own copy


# ---------------------------------------------------------------------------
# HTTP/JSON backend providers


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _decode_answer(body: dict, key: str, read):
    """Decode the base64 PNM or FSAL1 field `key` of a backend answer with
    `read`, whose ValueError is a SchemaError; run_loop checks its size, as
    it does every provider's."""
    try:
        return read(base64.b64decode(body[key], validate=True))
    except KeyError:
        raise SchemaError("response missing %s" % key)
    except (TypeError, ValueError) as exc:  # binascii.Error is a ValueError
        raise SchemaError("undecodable %s payload: %s" % (key, exc))


def mask_to_bytes(mask: np.ndarray) -> bytes:
    """Binary mask as a P5 graymap (0 / 255), built in uint8 from the bool
    bytes (0 or 1), so no wider frame is made."""
    return write_pnm(ImageBuffer.from_array(np.asarray(mask, dtype=bool).view(np.uint8) * np.uint8(255)))


def mask_from_bytes(data: bytes) -> np.ndarray:
    img = read_pnm(data)
    if img.channels != 1:
        raise SchemaError("mask must be a graymap")
    return img.to_array()[:, :, 0] > 127


# a call makes at most 1 + RETRIES attempts, and retry k waits
# BACKOFF_BASE_S * 2**(k-1) seconds first
RETRIES = 3
BACKOFF_BASE_S = 0.1
# at most this many requests of one client at a time; the rest wait
MAX_IN_FLIGHT = 4
# the default socket timeout of one attempt
TIMEOUT_S = 30.0


def checked_timeout(timeout_s: float) -> float:
    """`timeout_s`, if it is a valid timeout of one attempt."""
    if not timeout_s > 0.0:  # also rejects NaN
        raise ValueError("timeout_s must be > 0")
    # a longer timeout, inf too, overflows the socket's time_t deadline
    if timeout_s > threading.TIMEOUT_MAX:
        raise ValueError("timeout_s must be <= %g" % threading.TIMEOUT_MAX)
    return timeout_s


class _HttpClient:
    def __init__(self, endpoint: str, timeout_s: float):
        try:
            parts = urlsplit(endpoint)
            port = parts.port
        except ValueError:  # an unclosed '[' in the host, a port out of range or not a number
            parts = None
        # a query, a fragment or credentials would never be sent, so they are refused
        if (
            parts is None
            or parts.scheme not in ("http", "https")
            or not parts.hostname
            or parts.query
            or parts.fragment
            or "@" in parts.netloc
        ):
            raise ValueError(
                "endpoint %r is not an http:// or https:// URL with a host and no credentials, query or fragment"
                % endpoint
            )
        self._connection = http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        self._host, self._port = parts.hostname, port
        # a space or a non-ASCII character of the path is sent percent-encoded
        self._prefix = quote(parts.path.rstrip("/"), safe="!$%&'()*+,/:;=@[]~")
        self.timeout_s = checked_timeout(timeout_s)
        self._gate = threading.BoundedSemaphore(MAX_IN_FLIGHT)

    def _exchange(self, path: str, body: bytes) -> tuple[int, bytes]:
        """POST the JSON `body` to `path` over a connection of its own;
        returns the answer's status and body."""
        conn = self._connection(self._host, self._port, timeout=self.timeout_s)
        try:
            conn.request("POST", path, body, {"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def post(self, path: str, image: ImageBuffer, **fields) -> dict:
        """POST `image` (base64 PNM) and `fields` as one JSON object, with
        retries; returns the answer object."""
        request = json.dumps({"image_b64": _b64(write_pnm(image)), **fields}, allow_nan=False).encode()
        last: Exception | None = None
        for attempt in range(1 + RETRIES):
            if attempt:
                time.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1))
            with self._gate:
                try:
                    status, data = self._exchange(self._prefix + path, request)
                except (OSError, http.client.HTTPException) as exc:  # timeouts and TLS errors are OSErrors
                    last = TransportError("transport failure: %s" % exc)
                    continue
            if status == 200:
                try:
                    body = json.loads(data)
                except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
                    raise SchemaError("non-JSON response body: %s" % exc)
                if not isinstance(body, dict):
                    raise SchemaError("response is not a JSON object")
                return body
            last = HttpStatusError(status)
            if status < 500:
                break  # only a server error (5xx) is retried
        assert last is not None
        raise last


class _HttpPerception(_HttpClient):
    def perceive(self, image: ImageBuffer, prompt: str) -> SaliencyMap:
        body = self.post("/v1/perceive", image, format="pnm", prompt=prompt)
        # read_float_grid is looked up per call, so perfbench's tracer, which
        # swaps the module attribute, sees the decode
        return _decode_answer(body, "saliency_b64", lambda data: SaliencyMap(read_float_grid(data)))


class _HttpReasoning(_HttpClient):
    def diagnose(
        self, image: ImageBuffer, prompt: str, regions: Sequence[RegionProposal]
    ) -> list[Diagnosis]:
        req_regions = [
            {
                "id": "r%d" % i,
                "bbox": list(r.bbox),
                "mask_b64": _b64(mask_to_bytes(union_mask([r], image.height, image.width))),
            }
            for i, r in enumerate(regions)
        ]
        body = self.post("/v1/diagnose", image, prompt=prompt, regions=req_regions)
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
                description = typed(d["description"], str, "description")
                severity = float(typed(d["severity"], float, "severity"))
                category = DistortionCategory(d["category"])
                out.append(Diagnosis("r%d" % i, category, description, severity))
            # float() of a JSON integer too large for a float raises OverflowError
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise SchemaError("bad diagnosis for r%d: %s" % (i, exc))
        return out


class _HttpInpaint(_HttpClient):
    def __init__(self, endpoint: str, timeout_s: float, descriptor: ToolDescriptor):
        super().__init__(endpoint, timeout_s)
        self.descriptor = descriptor

    def inpaint(
        self, image: ImageBuffer, mask: np.ndarray, instruction: Optional[str] = None
    ) -> ImageBuffer:
        if self.descriptor.kind == INSTRUCTION_DRIVEN and instruction is None:
            raise ValueError("instruction-driven tool requires an instruction")
        fields = {"mask_b64": _b64(mask_to_bytes(mask))}
        if instruction is not None:
            fields["instruction"] = instruction
        body = self.post("/v1/inpaint", image, **fields)
        return _decode_answer(body, "image_b64", read_pnm)


def http_provider(
    endpoint: str, role: str, timeout_s: float = TIMEOUT_S, descriptor: ToolDescriptor | None = None
):
    """The one way to build an HTTP-backed provider: role in {perception,
    reasoning, inpaint}; `timeout_s` bounds each attempt (0 < timeout_s <=
    threading.TIMEOUT_MAX); `descriptor` describes an inpaint tool (default:
    mask-guided "http-inpaint")."""
    if role == "perception":
        return _HttpPerception(endpoint, timeout_s)
    if role == "reasoning":
        return _HttpReasoning(endpoint, timeout_s)
    if role == "inpaint":
        descriptor = descriptor or ToolDescriptor(name="http-inpaint", kind=MASK_GUIDED)
        return _HttpInpaint(endpoint, timeout_s, descriptor)
    raise ValueError("unknown role %r" % role)
