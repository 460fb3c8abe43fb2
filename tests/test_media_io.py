import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retouchkit.media_io import (
    FloatGrid,
    ImageBuffer,
    MalformedHeaderError,
    MediaFormatError,
    TruncatedPayloadError,
    UnsupportedMaxvalError,
    read_float_grid,
    read_pnm,
    write_float_grid,
    write_pnm,
)


def test_minimal_p5():
    img = read_pnm(b"P5\n1 1\n255\n\x00")
    assert (img.width, img.height, img.channels) == (1, 1, 1)
    assert img.data == b"\x00"


def test_minimal_p6():
    img = read_pnm(b"P6\n2 1\n255\n" + bytes(6))
    assert (img.width, img.height, img.channels) == (2, 1, 3)


def test_write_p5_canonical():
    img = ImageBuffer(width=1, height=1, channels=1, data=b"\xff")
    assert write_pnm(img) == b"P5\n1 1\n255\n\xff"


def test_write_p6_payload_size():
    img = ImageBuffer(width=2, height=2, channels=3, data=bytes(12))
    out = write_pnm(img)
    assert out.startswith(b"P6\n2 2\n255\n")
    assert len(out) - len(b"P6\n2 2\n255\n") == 12


def test_pnm_comments_and_whitespace():
    img = read_pnm(b"P5 # a comment\n 2\t2 # more\n255\n" + bytes(4))
    assert (img.width, img.height) == (2, 2)


@pytest.mark.parametrize(
    "data,err",
    [
        (b"P3\n1 1\n255\n\x00", MalformedHeaderError),
        (b"P5\n1 x\n255\n\x00", MalformedHeaderError),
        (b"P5\n1 1\n70000\n\x00", UnsupportedMaxvalError),
        (b"P5\n1 1\n1\n\x01", UnsupportedMaxvalError),
        (b"P5\n2 1\n15\n\x0f\xc8", UnsupportedMaxvalError),
        (b"P6\n1 1\n254\n\x00\x00\x00", UnsupportedMaxvalError),
        (b"P5\n2 2\n255\n\x00", TruncatedPayloadError),
        (b"", MalformedHeaderError),
    ],
)
def test_pnm_errors_classified(data, err):
    with pytest.raises(err):
        read_pnm(data)


@given(
    w=st.integers(1, 8),
    h=st.integers(1, 8),
    channels=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=100)
def test_pnm_round_trip(w, h, channels, seed):
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 256, size=w * h * channels, dtype=np.uint8).tobytes()
    img = ImageBuffer(width=w, height=h, channels=channels, data=data)
    assert read_pnm(write_pnm(img)) == img
    # byte-exact: re-encoding the decoded bytes reproduces them
    assert write_pnm(read_pnm(write_pnm(img))) == write_pnm(img)


@given(blob=st.binary(max_size=64))
@settings(max_examples=300)
def test_pnm_fuzz_never_crashes(blob):
    try:
        read_pnm(blob)
    except MediaFormatError:
        pass


def test_fsal_single_value():
    grid = FloatGrid.from_array(np.array([[0.5]], dtype=np.float32))
    out = write_float_grid(grid)
    assert out == b"FSAL1 1 1\n" + np.float32(0.5).tobytes()
    assert read_float_grid(out).to_array()[0, 0] == 0.5


@given(w=st.integers(1, 10), h=st.integers(1, 10), seed=st.integers(0, 2**31))
@settings(max_examples=100)
def test_fsal_round_trip(w, h, seed):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal((h, w)).astype(np.float32)
    grid = FloatGrid.from_array(arr)
    back = read_float_grid(write_float_grid(grid))
    assert back == grid
    assert np.array_equal(back.to_array(), arr)


def test_fsal_rejects_nan():
    with pytest.raises(ValueError):
        FloatGrid.from_array(np.array([[np.nan]], dtype=np.float32))


def test_fsal_rejects_nan_payload_on_read():
    payload = b"FSAL1 1 1\n" + np.float32(np.nan).tobytes()
    with pytest.raises(MediaFormatError):
        read_float_grid(payload)


@given(blob=st.binary(max_size=64))
@settings(max_examples=300)
def test_fsal_fuzz_never_crashes(blob):
    try:
        read_float_grid(blob)
    except MediaFormatError:
        pass


@pytest.mark.parametrize(
    "data",
    [b"FSAL2 1 1\n" + bytes(4), b"FSAL1 1\n", b"FSAL1 2 2\n" + bytes(4), b"FSAL1 1 1"],
)
def test_fsal_errors(data):
    with pytest.raises(MediaFormatError):
        read_float_grid(data)
