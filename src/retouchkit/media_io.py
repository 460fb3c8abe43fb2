"""Bit-exact image and float-grid I/O.

Two portable on-disk formats are supported:

* binary PNM (``P5`` graymap / ``P6`` pixmap, maxval 255) for images and
  binary masks,
* ``FSAL1``, a tiny float32 grid format for saliency maps
  (``FSAL1 <w> <h>\\n`` followed by w*h little-endian float32 samples).

All codecs are pure functions over byte strings and round-trip byte-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MediaFormatError(ValueError):
    """Base class for decode/encode failures."""


class MalformedHeaderError(MediaFormatError):
    pass


class TruncatedPayloadError(MediaFormatError):
    pass


class UnsupportedMaxvalError(MediaFormatError):
    pass


@dataclass(frozen=True)
class ImageBuffer:
    """Row-major 8-bit image, 1 (gray) or 3 (RGB) channels."""

    width: int
    height: int
    channels: int
    data: bytes

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be >= 1")
        if self.channels not in (1, 3):
            raise ValueError("channels must be 1 or 3")
        if len(self.data) != self.width * self.height * self.channels:
            raise ValueError(
                "data length %d != %d (w*h*c)"
                % (len(self.data), self.width * self.height * self.channels)
            )

    def to_array(self) -> np.ndarray:
        arr = np.frombuffer(self.data, dtype=np.uint8)
        return arr.reshape(self.height, self.width, self.channels)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "ImageBuffer":
        arr = np.asarray(arr, dtype=np.uint8)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        h, w, c = arr.shape
        return cls(width=w, height=h, channels=c, data=arr.tobytes())


@dataclass(frozen=True)
class FloatGrid:
    """Row-major grid of finite float32 values."""

    width: int
    height: int
    data: bytes  # width*height little-endian float32

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be >= 1")
        if len(self.data) != self.width * self.height * 4:
            raise ValueError("data length mismatch for %dx%d float grid" % (self.width, self.height))
        if not np.all(np.isfinite(self.to_array())):
            raise ValueError("float grid contains NaN/Inf")

    def to_array(self) -> np.ndarray:
        arr = np.frombuffer(self.data, dtype="<f4")
        return arr.reshape(self.height, self.width)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "FloatGrid":
        arr = np.ascontiguousarray(arr, dtype="<f4")
        if arr.ndim != 2:
            raise ValueError("expected a 2-D array")
        h, w = arr.shape
        return cls(width=w, height=h, data=arr.tobytes())


def _read_pnm_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    # PNM tokens are separated by whitespace; '#' starts a comment to EOL.
    n = len(buf)
    while pos < n:
        c = buf[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and buf[pos : pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise MalformedHeaderError("unexpected end of header")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def read_pnm(data: bytes) -> ImageBuffer:
    """Decode a binary PNM (P5/P6, maxval <= 255) byte string."""
    if len(data) < 2:
        raise MalformedHeaderError("too short for a PNM header")
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MalformedHeaderError("bad magic %r (want P5 or P6)" % magic)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pnm_token(data, pos)
        if not tok.isdigit():
            raise MalformedHeaderError("non-numeric header field %r" % tok)
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MalformedHeaderError("bad dimensions %dx%d" % (width, height))
    if maxval < 1 or maxval > 255:
        raise UnsupportedMaxvalError("maxval %d not in 1..255" % maxval)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MalformedHeaderError("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte before the raster
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise TruncatedPayloadError(
            "payload has %d of %d expected bytes" % (len(payload), need)
        )
    return ImageBuffer(width=width, height=height, channels=channels, data=payload)


def write_pnm(img: ImageBuffer) -> bytes:
    """Encode an ImageBuffer with the canonical header."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.data


_FSAL_MAGIC = b"FSAL1"


def read_float_grid(data: bytes) -> FloatGrid:
    """Decode an FSAL1 byte string into a FloatGrid."""
    nl = data.find(b"\n")
    if nl < 0:
        raise MalformedHeaderError("no newline-terminated FSAL1 header")
    parts = data[:nl].split(b" ")
    if len(parts) != 3 or parts[0] != _FSAL_MAGIC:
        raise MalformedHeaderError("bad FSAL1 header %r" % data[:nl])
    if not (parts[1].isdigit() and parts[2].isdigit()):
        raise MalformedHeaderError("non-numeric FSAL1 dimensions")
    width, height = int(parts[1]), int(parts[2])
    if width < 1 or height < 1:
        raise MalformedHeaderError("bad FSAL1 dimensions %dx%d" % (width, height))
    payload = data[nl + 1 :]
    need = width * height * 4
    if len(payload) != need:
        raise TruncatedPayloadError(
            "FSAL1 payload has %d of %d expected bytes" % (len(payload), need)
        )
    try:
        return FloatGrid(width=width, height=height, data=payload)
    except ValueError as exc:  # non-finite values
        raise MediaFormatError("FSAL1 payload: %s" % exc)


def write_float_grid(grid: FloatGrid) -> bytes:
    """Encode a FloatGrid as FSAL1 bytes; a FloatGrid holds finite values only."""
    header = b"%s %d %d\n" % (_FSAL_MAGIC, grid.width, grid.height)
    return header + grid.data
