import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from retouchkit.media_io import (
    FloatGrid,
    ImageBuffer,
    MediaFormatError,
    read_float_grid,
    read_pnm,
    write_float_grid,
    write_pnm,
)
from retouchkit.saliency import RegionProposal, SaliencyMap, propose_masks


def gray(rows):
    return ImageBuffer.from_array(np.array(rows, dtype=np.uint8))


def test_minimal_p5():
    img = read_pnm(b"P5\n1 1\n255\n\x00")
    assert (img.width, img.height, img.channels) == (1, 1, 1)
    assert img == gray([[0]])


def test_minimal_p6():
    img = read_pnm(b"P6\n2 1\n255\n" + bytes(6))
    assert (img.width, img.height, img.channels) == (2, 1, 3)


def test_write_p5_canonical():
    img = gray([[255]])
    assert write_pnm(img) == b"P5\n1 1\n255\n\xff"


def test_write_p6_payload_size():
    img = ImageBuffer.from_array(np.zeros((2, 2, 3), np.uint8))
    out = write_pnm(img)
    assert out.startswith(b"P6\n2 2\n255\n")
    assert len(out) - len(b"P6\n2 2\n255\n") == 12


def test_pnm_comments_and_whitespace():
    img = read_pnm(b"P5 # a comment\n 2\t2 # more\n255\n" + bytes(4))
    assert (img.width, img.height) == (2, 2)


# every failure is a MediaFormatError and its message tells the kinds
# apart; the ids keep the names of the error classes that once did
_PNM_ERROR_KINDS = {
    "MalformedHeaderError": (
        r"^(bad magic|unexpected end of header|non-numeric header field|header field of \d+ digits"
        r"|bad dimensions|missing whitespace after maxval)"
    ),
    "UnsupportedMaxvalError": r"^maxval \d+ is not 255$",
    "TruncatedPayloadError": r"^payload has \d+ of \d+ expected bytes$",
}


@pytest.mark.parametrize(
    "data,kind",
    [
        (b"P3\n1 1\n255\n\x00", "MalformedHeaderError"),
        (b"P5\n1 x\n255\n\x00", "MalformedHeaderError"),
        (b"P5\n1 1\n70000\n\x00", "UnsupportedMaxvalError"),
        (b"P5\n1 1\n1\n\x01", "UnsupportedMaxvalError"),
        (b"P5\n2 1\n15\n\x0f\xc8", "UnsupportedMaxvalError"),
        (b"P6\n1 1\n254\n\x00\x00\x00", "UnsupportedMaxvalError"),
        (b"P5\n2 2\n255\n\x00", "TruncatedPayloadError"),
        (b"", "MalformedHeaderError"),
        # int() refuses more than 4,300 digits
        pytest.param(b"P5 " + b"1" * 5000 + b" 1 255\n", "MalformedHeaderError", id="digit-limit"),
    ],
)
def test_pnm_errors_classified(data, kind):
    with pytest.raises(MediaFormatError, match=_PNM_ERROR_KINDS[kind]):
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
    img = ImageBuffer.from_array(rng.integers(0, 256, size=(h, w, channels), dtype=np.uint8))
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


# reference oracle: the byte-by-byte header scanner read_pnm replaced
def reference_read_pnm_token(buf, pos):
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
        raise MediaFormatError("unexpected end of header")
    start = pos
    while pos < n and not buf[pos : pos + 1].isspace():
        pos += 1
    return buf[start:pos], pos


def reference_read_pnm(data):
    if len(data) < 2:
        raise MediaFormatError("too short for a PNM header")
    magic = data[:2]
    if magic == b"P5":
        channels = 1
    elif magic == b"P6":
        channels = 3
    else:
        raise MediaFormatError("bad magic %r (want P5 or P6)" % magic)
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = reference_read_pnm_token(data, pos)
        if not tok.isdigit():
            raise MediaFormatError("non-numeric header field %r" % tok)
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise MediaFormatError("bad dimensions %dx%d" % (width, height))
    if maxval != 255:
        raise MediaFormatError("maxval %d is not 255" % maxval)
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise MediaFormatError("missing whitespace after maxval")
    pos += 1
    need = width * height * channels
    payload = data[pos : pos + need]
    if len(payload) < need:
        raise MediaFormatError("payload has %d of %d expected bytes" % (len(payload), need))
    return ImageBuffer.from_array(np.frombuffer(payload, np.uint8).reshape(height, width, channels))


def pnm_outcome(read, data):
    try:
        return read(data)
    except MediaFormatError as exc:
        return type(exc), str(exc)


_WHITESPACE = [b" ", b"\t", b"\n", b"\r", b"\x0b", b"\x0c"]


@st.composite
def pnm_headers(draw):
    """A magic, three fields after whitespace and comments, one separator
    and a short payload; any part may be malformed, and the header may stop
    after any field."""
    magic = draw(st.one_of(st.just(b"P5"), st.just(b"P6"), st.sampled_from([b"P3", b"P", b"", b"p5"])))
    comment = st.binary(max_size=6).filter(lambda b: b"\n" not in b).map(lambda b: b"#" + b)
    # a '#' inside a token is part of it, so a gap starts with whitespace
    gap = st.tuples(
        st.sampled_from(_WHITESPACE),
        st.lists(st.one_of(st.sampled_from(_WHITESPACE), comment.map(lambda c: c + b"\n")), max_size=2),
    ).map(lambda g: g[0] + b"".join(g[1]))
    non_digits = st.sampled_from([b"x", b"1x", b"-1", b"+2", b"2#3", b"\xff", b"\xd9\xa3"])
    dims = st.one_of(
        st.sampled_from([b"1", b"2", b"3", b"01", b"0"]),
        st.from_regex(rb"\A[0-9]{1,3}\Z"),
        non_digits,
    )
    maxvals = st.one_of(
        st.just(b"255"),
        st.sampled_from([b"255", b"0255", b"254", b"256", b"0", b"1", b"65535"]),
        non_digits,
    )
    parts = [magic]
    for field in (dims, dims, maxvals)[: draw(st.sampled_from([3, 3, 3, 3, 2, 1, 0]))]:
        parts += [draw(gap), draw(field)]
    if draw(st.integers(0, 5)) == 0:  # a comment at the end of the input, with no newline
        return b"".join(parts) + b" " + draw(comment)
    parts.append(draw(st.sampled_from([b"", b"#", b"x"] + _WHITESPACE * 3)))
    parts.append(draw(st.binary(max_size=30)))
    return b"".join(parts)


@given(data=st.one_of(pnm_headers(), st.binary(max_size=24)))
@example(data=b"P5 1 1 255\n\x00")
@example(data=b"P6#c\n2\t1\r255\x0b" + bytes(6))
@example(data=b"P5 1 1 255#")
@example(data=b"P5 1 1 # no newline")
@example(data=b"P")
@settings(max_examples=500, deadline=None)
def test_pnm_equals_the_previous_reader(data):
    got, want = pnm_outcome(read_pnm, data), pnm_outcome(reference_read_pnm, data)
    if len(data) < 2:  # only their messages may differ
        assert got[0] is want[0] is MediaFormatError
    else:
        assert got == want


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
    [
        b"FSAL2 1 1\n" + bytes(4),
        b"FSAL1 1\n",
        b"FSAL1 2 2\n" + bytes(4),
        b"FSAL1 1 1",
        pytest.param(b"FSAL1 " + b"1" * 5000 + b" 1\n", id="digit-limit"),
    ],
)
def test_fsal_errors(data):
    with pytest.raises(MediaFormatError):
        read_float_grid(data)


# --- every rejecting branch ----------------------------------------------

@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(
            lambda: ImageBuffer.from_array(np.zeros((0, 1), np.uint8)),
            ValueError,
            "image dimensions must be >= 1",
            id="image-dims",
        ),
        pytest.param(
            lambda: ImageBuffer.from_array(np.zeros((1, 0, 3), np.uint8)),
            ValueError,
            "image dimensions must be >= 1",
            id="image-zero-width",
        ),
        pytest.param(
            lambda: ImageBuffer.from_array(np.zeros((1, 1, 2), np.uint8)),
            ValueError,
            "channels must be 1 or 3",
            id="channels",
        ),
        pytest.param(
            lambda: ImageBuffer.from_array(np.zeros((1, 1), np.int64)),
            ValueError,
            "expected a uint8 array, got int64",
            id="image-dtype",
        ),
        pytest.param(
            lambda: ImageBuffer.from_array(np.zeros(3, np.uint8)),
            ValueError,
            "expected a 3-D array",
            id="image-1d",
        ),
        pytest.param(
            lambda: FloatGrid.from_array(np.zeros((0, 1))),
            ValueError,
            "grid dimensions must be >= 1",
            id="grid-dims",
        ),
        pytest.param(
            lambda: FloatGrid.from_array(np.zeros((1, 0))),
            ValueError,
            "grid dimensions must be >= 1",
            id="grid-zero-width",
        ),
        pytest.param(
            # the constructor adopts its array, so it casts nothing
            lambda: FloatGrid(np.zeros((1, 1))),
            ValueError,
            "expected a float32 array, got float64",
            id="grid-dtype",
        ),
        pytest.param(
            lambda: FloatGrid.from_array(np.zeros(3)),
            ValueError,
            "expected a 2-D array",
            id="grid-1d",
        ),
        pytest.param(
            lambda: read_float_grid(b"FSAL1 0 1\n"),
            MediaFormatError,
            "bad FSAL1 dimensions 0x1",
            id="fsal-dims",
        ),
    ],
)
def test_rejecting_branches(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- frames are read-only arrays with value semantics -----------------------


@pytest.mark.parametrize(
    "rows", [pytest.param([[300, -1]], id="int64"), pytest.param([[1.7]], id="float")]
)
def test_an_image_is_built_from_uint8_only(rows):
    # a cast would wrap 300 and -1 to 44 and 255 and truncate 1.7 to 1
    with pytest.raises(ValueError, match="expected a uint8 array"):
        ImageBuffer.from_array(np.array(rows))


def test_a_frame_is_a_snapshot_of_the_array_it_was_built_from():
    # the mock perceiver relies on this: the mock tool decays the scene's
    # field in place after the map was built from it
    pixels = np.zeros((2, 3), np.uint8)
    field = np.zeros((2, 3), np.float32)
    img, grid = ImageBuffer.from_array(pixels), FloatGrid.from_array(field)
    smap = SaliencyMap.from_array(field)
    pixels[0, 0], field[0, 0] = 9, 0.5
    assert img == gray(np.zeros((2, 3)))
    assert grid == FloatGrid.from_array(np.zeros((2, 3)))
    assert smap == SaliencyMap.from_array(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "frame",
    [
        pytest.param(lambda: gray([[1, 2]]), id="image"),
        pytest.param(lambda: read_pnm(b"P6\n1 1\n255\n\x01\x02\x03"), id="read-pnm"),
        pytest.param(lambda: FloatGrid.from_array(np.ones((1, 2))), id="grid"),
        pytest.param(lambda: read_float_grid(b"FSAL1 2 1\n" + bytes(8)), id="read-fsal"),
        pytest.param(lambda: SaliencyMap.from_array(np.ones((1, 2))), id="saliency-map"),
    ],
)
def test_the_array_of_a_frame_is_read_only(frame):
    arr = frame().to_array()
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 0


@pytest.mark.parametrize("shape", [(2, 2), (2, 2, 3)], ids=["2-D", "3-D"])
def test_the_constructor_freezes_the_array_it_is_given(shape):
    # a 2-D array is stored as a 3-D view of it, and both must be frozen
    arr = np.zeros(shape, np.uint8)
    img = ImageBuffer(arr)
    with pytest.raises(ValueError, match="read-only"):
        arr[0, 0] = 5
    assert img.to_array().max() == 0


@pytest.mark.parametrize("read_only", [False, True], ids=["view", "read-only-view"])
@pytest.mark.parametrize(
    "cls, shape, bad",
    [
        pytest.param(ImageBuffer, (4, 4), 5, id="image-2-D"),
        pytest.param(ImageBuffer, (4, 4, 3), 5, id="image-3-D"),
        pytest.param(FloatGrid, (4, 4), np.nan, id="grid"),
    ],
)
def test_a_frame_never_changes_with_the_array_it_views(cls, shape, bad, read_only):
    # the view used to be frozen and its base left writable, so a grid could
    # come to hold a NaN its constructor refuses
    base = np.zeros(shape, cls.dtype)
    view = base[:2, :2]
    view.setflags(write=not read_only)
    frame = cls(view)
    base[0, 0] = bad
    assert not frame.to_array().any()


@pytest.mark.parametrize(
    "build, arr",
    [
        pytest.param(ImageBuffer, np.zeros((2, 2), np.int64), id="image-dtype"),
        pytest.param(ImageBuffer, np.zeros((2, 2, 2), np.uint8), id="image-channels"),
        pytest.param(FloatGrid, np.array([[np.nan, 0]], np.float32), id="grid-nan"),
        pytest.param(
            lambda mask: RegionProposal(mask, (0, 0, 1, 1), 0.9, 3), np.ones((2, 2), bool), id="region-area"
        ),
    ],
)
def test_a_refused_array_is_left_writable(build, arr):
    # every check runs before the array is frozen
    with pytest.raises(ValueError):
        build(arr)
    assert arr.flags.writeable


def test_decoded_frames_and_region_crops_are_not_copies():
    # arrays over immutable bytes, and views of the one buffer that
    # extract_regions freezes, are adopted as they are
    field = np.zeros((4, 6), np.float32)
    field[0, 0] = field[2:, 3:] = 0.9
    arrays = [
        read_pnm(b"P5\n2 1\n255\n\x01\x02").to_array(),
        read_float_grid(write_float_grid(FloatGrid.from_array(field))).to_array(),
        *(r.mask for r in propose_masks(SaliencyMap.from_array(field), 0.5, 0, 1)),
    ]
    assert len(arrays) == 4
    assert not any(arr.flags.owndata for arr in arrays)


def test_frames_are_equal_by_type_shape_and_values():
    row, column = gray([[1, 2, 3, 4]]), gray([[1], [2], [3], [4]])
    assert row != column  # the same bytes in another shape
    assert row == gray([[1, 2, 3, 4]]) == read_pnm(write_pnm(row))
    assert row != gray([[1, 2, 3, 5]])
    zeros = np.zeros((1, 1), np.uint8)
    assert ImageBuffer.from_array(zeros) != FloatGrid.from_array(zeros)
    assert FloatGrid.from_array(zeros) != ImageBuffer.from_array(zeros)


def test_hash_agrees_with_equality():
    frames = [
        gray([[1, 2]]),
        read_pnm(write_pnm(gray([[1, 2]]))),
        gray([[1], [2]]),
        FloatGrid.from_array(np.array([[0.5, 1.0]])),
        read_float_grid(write_float_grid(FloatGrid.from_array(np.array([[0.5, 1.0]])))),
    ]
    for a in frames:
        for b in frames:
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(frames)) == 3
