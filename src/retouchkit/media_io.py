"""Bit-exact image and float-grid I/O.

Two portable on-disk formats are supported:

* binary PNM (``P5`` graymap / ``P6`` pixmap, maxval 255) for images and
  binary masks,
* ``FSAL1``, a tiny float32 grid format for saliency maps
  (``FSAL1 <w> <h>\\n`` followed by w*h little-endian float32 samples).

All codecs are pure functions over byte strings and round-trip byte-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np


class MediaFormatError(ValueError):
    """A PNM or FSAL1 byte string that does not decode; the message says why."""


def check_size(what: str, got: tuple, other: str, want: tuple, error=ValueError) -> None:
    """The rule that two frames have one size: unless `got` equals `want`,
    raise `error` naming both sizes, each as width x height (x channels)."""
    if got != want:
        # the shape of a 0-d array is ()
        got_text, want_text = ("x".join(map(str, size)) or "0-d" for size in (got, want))
        raise error("%s is %s, %s is %s" % (what, got_text, other, want_text))


def frozen(arr: np.ndarray) -> np.ndarray:
    """`arr` made read-only, or a read-only copy of it when a writable array
    could still change its data: a writable view, or a read-only view of a
    writable array. An array that owns its data, or that views only
    read-only arrays and immutable bytes, is frozen as it is, not copied."""
    base = arr.base
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    if not (base is None or isinstance(base, bytes)):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class _Frame:
    """One read-only array of the subclass's `dtype` and `ndim`, at least 1 x 1:
    the constructor holds the array it is given as `frozen` returns it, and
    `from_array` a copy, cast to `cast`. Every check runs before `frozen`,
    so an array the constructor refuses is left as it was. Frames of one
    type are equal when their arrays are."""

    array: np.ndarray

    def __post_init__(self):
        self._check(self.array)
        object.__setattr__(self, "array", frozen(self.array))

    def _check(self, arr: np.ndarray) -> None:
        if arr.dtype != self.dtype:
            raise ValueError("expected a %s array, got %s" % (self.dtype, arr.dtype))
        if arr.ndim != self.ndim:
            raise ValueError("expected a %d-D array" % self.ndim)
        if min(arr.shape[:2]) < 1:
            raise ValueError("%s dimensions must be >= 1" % self.noun)

    height = property(lambda self: self.array.shape[0])
    width = property(lambda self: self.array.shape[1])

    def to_array(self) -> np.ndarray:
        return self.array

    @classmethod
    def from_array(cls, arr: np.ndarray):
        return cls(np.array(arr, dtype=cls.cast, order="C"))

    def __eq__(self, other):
        return type(other) is type(self) and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash(self.array.shape)  # equal frames have one shape


@dataclass(frozen=True, eq=False)
class ImageBuffer(_Frame):
    """Row-major uint8 image of shape (height, width, channels), 1 (gray) or 3
    (RGB) channels; a (height, width) array is gray. Any other dtype is
    refused, not cast, since a cast would wrap 300 to 44."""

    dtype, ndim, noun, cast = np.dtype(np.uint8), 3, "image", None
    channels = property(lambda self: self.array.shape[2])

    def __post_init__(self):
        if self.array.ndim == 2:
            self._check(self.array[:, :, None])
            # frozen before its 3-D view is taken, so the view is never copied
            object.__setattr__(self, "array", frozen(self.array)[:, :, None])
        else:
            super().__post_init__()

    def _check(self, arr: np.ndarray) -> None:
        super()._check(arr)
        if arr.shape[2] not in (1, 3):
            raise ValueError("channels must be 1 or 3")


@dataclass(frozen=True, eq=False)
class FloatGrid(_Frame):
    """Row-major grid of finite float32 values; `from_array` casts to float32."""

    dtype, ndim, noun, cast = np.dtype("<f4"), 2, "grid", np.dtype("<f4")

    def _check(self, arr: np.ndarray) -> None:
        super()._check(arr)
        if not np.all(np.isfinite(arr)):
            raise ValueError("float grid contains NaN/Inf")


def _header_int(tok: bytes) -> int:
    """A header field of ASCII digits as an int; int() refuses more than
    sys.get_int_max_str_digits() digits (4,300 by default)."""
    try:
        return int(tok)
    except ValueError:
        raise MediaFormatError("header field of %d digits" % len(tok)) from None


# one header token after any whitespace and '#' comments (each to the end
# of its line); the token is empty only at the end of the input
_PNM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


def read_pnm(data: bytes) -> ImageBuffer:
    """Decode a binary PNM (P5/P6, maxval 255) byte string. An ImageBuffer
    is full-range 8-bit, so any other maxval is a MediaFormatError: its
    samples would be re-labelled maxval 255 by every writer."""
    channels = {b"P5": 1, b"P6": 3}.get(data[:2])
    if channels is None:
        raise MediaFormatError("bad magic %r (want P5 or P6)" % data[:2])
    pos = 2
    fields = []
    for _ in range(3):
        match = _PNM_TOKEN.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise MediaFormatError("unexpected end of header")
        if not tok.isdigit():
            raise MediaFormatError("non-numeric header field %r" % tok)
        fields.append(_header_int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MediaFormatError("bad dimensions %dx%d" % (width, height))
    if maxval != 255:
        raise MediaFormatError("maxval %d is not 255" % maxval)
    if not data[pos : pos + 1].isspace():  # b"", the end of the input, is no whitespace
        raise MediaFormatError("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte before the raster
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise MediaFormatError("payload has %d of %d expected bytes" % (len(payload), need))
    return ImageBuffer(np.frombuffer(payload, np.uint8).reshape(height, width, channels))


def write_pnm(img: ImageBuffer) -> bytes:
    """Encode an ImageBuffer with the canonical header."""
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.array.tobytes()


_FSAL_MAGIC = b"FSAL1"


def read_float_grid(data: bytes) -> FloatGrid:
    """Decode an FSAL1 byte string into a FloatGrid."""
    nl = data.find(b"\n")
    if nl < 0:
        raise MediaFormatError("no newline-terminated FSAL1 header")
    parts = data[:nl].split(b" ")
    if len(parts) != 3 or parts[0] != _FSAL_MAGIC:
        raise MediaFormatError("bad FSAL1 header %r" % data[:nl])
    if not (parts[1].isdigit() and parts[2].isdigit()):
        raise MediaFormatError("non-numeric FSAL1 dimensions")
    width, height = _header_int(parts[1]), _header_int(parts[2])
    if width < 1 or height < 1:
        raise MediaFormatError("bad FSAL1 dimensions %dx%d" % (width, height))
    payload = data[nl + 1 :]
    need = width * height * 4
    if len(payload) != need:
        raise MediaFormatError("FSAL1 payload has %d of %d expected bytes" % (len(payload), need))
    try:
        return FloatGrid(np.frombuffer(payload, "<f4").reshape(height, width))
    except ValueError as exc:  # non-finite values
        raise MediaFormatError("FSAL1 payload: %s" % exc)


def write_float_grid(grid: FloatGrid) -> bytes:
    """Encode a FloatGrid as FSAL1 bytes; a FloatGrid holds finite values only."""
    header = b"%s %d %d\n" % (_FSAL_MAGIC, grid.width, grid.height)
    return header + grid.array.tobytes()
