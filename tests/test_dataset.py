import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from retouchkit.dataset import (
    AnnotationRecord,
    DatasetError,
    DistortionCategory,
    RegionAnnotation,
    compute_stats,
    ground_truth_map,
    parse_dataset,
    rasterize_region,
    reconcile_majority,
    region_radius,
    serialize_dataset,
)

HAND = DistortionCategory.LIMB_HAND_DEFORMITY
FACE = DistortionCategory.FACE_DISTORTION


def make_record(regions=(), image_id="img0", width=100, height=100):
    return AnnotationRecord(
        image_id=image_id,
        image_ref="images/%s.pnm" % image_id,
        prompt="a prompt",
        width=width,
        height=height,
        regions=tuple(regions),
    )


def region(x, y, cat=HAND, desc="a hand issue", annotator="a0", region_id=None):
    return RegionAnnotation(
        center=(x, y), category=cat, description=desc, annotator=annotator, region_id=region_id
    )


# --- schema --------------------------------------------------------------

def test_taxonomy_size_and_dimensions():
    from retouchkit.dataset import DIMENSION_OF

    assert len(DistortionCategory) == 12
    assert len(set(DIMENSION_OF.values())) == 6
    for must in (HAND, FACE, DistortionCategory.TEXT_ANOMALY):
        assert must in DIMENSION_OF


# --- parse / serialize ---------------------------------------------------

def test_parse_empty():
    assert parse_dataset(b"") == []


def test_parse_one_record_round_trip():
    # U+2028, U+2029 and U+0085 are written raw (ensure_ascii=False); they
    # are line breaks to str.splitlines, not to the JSON-lines format
    for desc in ("six fingered hand", "line\u2028sep", "para\u2029sep", "next\x85line"):
        rec = make_record([region(10, 20, desc=desc)])
        data = serialize_dataset([rec])
        back = parse_dataset(data)
        assert back == [rec]
        assert serialize_dataset(back) == data


def test_parse_rejects_center_at_width():
    obj = {
        "image_id": "x",
        "image": "x.pnm",
        "prompt": "p",
        "width": 32,
        "height": 32,
        "regions": [
            {"x": 32, "y": 0, "category": "face_distortion", "description": "d", "annotator": "a"}
        ],
    }
    with pytest.raises(DatasetError) as ei:
        parse_dataset(json.dumps(obj).encode())
    assert ei.value.line == 1


def test_parse_unknown_category_with_line_number():
    good = json.dumps(
        {"image_id": "a", "image": "a", "prompt": "p", "width": 4, "height": 4, "regions": []}
    )
    bad = json.dumps(
        {
            "image_id": "b",
            "image": "b",
            "prompt": "p",
            "width": 4,
            "height": 4,
            "regions": [
                {"x": 0, "y": 0, "category": "nope", "description": "d", "annotator": "a"}
            ],
        }
    )
    with pytest.raises(DatasetError) as ei:
        parse_dataset((good + "\n" + bad).encode())
    assert ei.value.line == 2


def test_parse_malformed_json():
    with pytest.raises(DatasetError):
        parse_dataset(b"{not json")


# --- rasterize_region ----------------------------------------------------

def lattice_count(r):
    rr = int(math.ceil(r))
    return sum(
        1
        for dx in range(-rr, rr + 1)
        for dy in range(-rr, rr + 1)
        if dx * dx + dy * dy <= r * r
    )


def test_disc_height_100_is_81_pixels():
    mask = rasterize_region((50, 50), 100, 100)
    assert int(mask.sum()) == 81


def test_disc_height_20_is_cross():
    mask = rasterize_region((10, 10), 20, 20)
    assert int(mask.sum()) == 5
    assert mask[10, 10] and mask[9, 10] and mask[11, 10] and mask[10, 9] and mask[10, 11]


def test_corner_clipping():
    full = int(rasterize_region((50, 50), 100, 100).sum())
    corner = int(rasterize_region((0, 0), 100, 100).sum())
    assert corner < full
    # quarter disc: only non-negative offsets survive
    r = region_radius(100)
    want = sum(
        1 for dx in range(0, 6) for dy in range(0, 6) if dx * dx + dy * dy <= r * r
    )
    assert corner == want


def test_disc_counts_match_lattice_oracle():
    for height in range(20, 401, 20):
        mask = rasterize_region((height // 2, height // 2), height, height)
        assert int(mask.sum()) == lattice_count(region_radius(height))


# reference oracle: the disc evaluated over the whole frame
def full_frame_rasterize_region(center, image_height, image_width):
    r = region_radius(image_height)
    cx, cy = center
    ys = np.arange(image_height)[:, None]
    xs = np.arange(image_width)[None, :]
    return (xs - cx) ** 2 + (ys - cy) ** 2 <= r * r


# sides under 20 give r < 1 (the centre alone); multiples of 20 give an
# integer r, so pixels at exactly r are set
_SIDES = st.one_of(st.sampled_from([1, 2, 19, 20, 21, 40, 60, 100, 120]), st.integers(1, 130))


@st.composite
def off_frame_centres(draw):
    h, w = draw(_SIDES), draw(_SIDES)

    def coord(dim):
        return draw(
            st.one_of(
                st.sampled_from([0, dim - 1, dim, -1, -(h // 20), dim + h // 20]),
                st.integers(-3 * dim - 10, 3 * dim + 10),
                st.sampled_from([-(10**6), 10**6]),
            )
        )

    return (coord(w), coord(h)), h, w


@given(off_frame_centres())
@example(((-3, 50), 100, 100))
@example(((500, 500), 100, 100))
@example(((-6, -6), 100, 100))  # a corner just out of reach
@example(((-5, 50), 100, 100))  # one pixel at exactly r
@settings(max_examples=300, deadline=None)
def test_rasterize_matches_the_full_frame_disc(case):
    center, h, w = case
    got = rasterize_region(center, h, w)
    want = full_frame_rasterize_region(center, h, w)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, w", [(0, 10), (10, 0), (-5, 10), (10, -5)])
def test_rasterize_rejects_an_empty_frame(h, w):
    with pytest.raises(ValueError, match="image dimensions must be >= 1"):
        rasterize_region((0, 0), h, w)


def full_frame_ground_truth_map(record, blur_sigma):
    mask = np.zeros((record.height, record.width), dtype=bool)
    for reg in record.regions:
        mask |= full_frame_rasterize_region(reg.center, record.height, record.width)
    dense = mask.astype(np.float32)
    if blur_sigma > 0.0 and mask.any():
        from scipy.ndimage import gaussian_filter

        dense = gaussian_filter(dense, sigma=blur_sigma)
        dense = dense / dense.max()
    return dense


@st.composite
def disc_records(draw):
    h, w = draw(_SIDES), draw(_SIDES)

    def coord(dim):
        # borders and corners, or anywhere
        return draw(st.one_of(st.sampled_from([0, dim - 1]), st.integers(0, dim - 1)))

    centres = []
    for _ in range(draw(st.integers(0, 6))):
        if centres and draw(st.booleans()):  # overlap an earlier disc
            x, y = draw(st.sampled_from(centres))
            x = min(max(x + draw(st.integers(-3, 3)), 0), w - 1)
            y = min(max(y + draw(st.integers(-3, 3)), 0), h - 1)
        else:
            x, y = coord(w), coord(h)
        centres.append((x, y))
    sigma = draw(st.sampled_from([0.0, 0.0, 0.7, 2.0]))
    return make_record([region(x, y) for x, y in centres], width=w, height=h), sigma


@given(disc_records())
@example((make_record([region(0, 0), region(99, 99), region(50, 50), region(52, 50)]), 0.0))
@example((make_record([region(0, 99), region(3, 97)]), 2.0))
@settings(max_examples=200, deadline=None)
def test_ground_truth_map_matches_the_full_frame_union(case):
    record, sigma = case
    got, fix = ground_truth_map(record, blur_sigma=sigma)
    want = full_frame_ground_truth_map(record, sigma)
    assert got.to_array().tobytes() == want.tobytes()
    assert got.to_array().shape == want.shape
    assert fix.points == tuple(reg.center for reg in record.regions)


# --- reconcile_majority --------------------------------------------------

def test_two_of_three_majority_keeps_modal_category():
    per = [
        [region(10, 10, HAND, "hand a", "a0")],
        [region(11, 10, HAND, "hand b longer", "a1")],
        [region(10, 11, FACE, "face c", "a2")],
    ]
    out = reconcile_majority(per, match_radius=5.0)
    assert len(out) == 1
    assert out[0].category is HAND
    assert out[0].description == "hand b longer"


def test_one_of_three_dropped():
    per = [[region(10, 10)], [], []]
    assert reconcile_majority(per, match_radius=5.0) == []


def test_2_2_tiebreak_lower_category_code():
    per = [
        [region(10, 10, FACE, "f1", "a0")],
        [region(10, 10, FACE, "f2", "a1")],
        [region(10, 10, HAND, "h1", "a2")],
        [region(10, 10, HAND, "h2", "a3")],
    ]
    out = reconcile_majority(per, match_radius=3.0)
    assert len(out) == 1
    # HAND is declared before FACE, so it wins the 2-2 tie
    assert out[0].category is HAND


def test_median_center():
    per = [
        [region(10, 10)],
        [region(12, 14)],
        [region(14, 12)],
    ]
    out = reconcile_majority(per, match_radius=10.0)
    assert out[0].center == (12, 12)


def test_permutation_invariance():
    base = [
        [region(10, 10, HAND, "h", "a0"), region(50, 50, FACE, "f", "a0")],
        [region(11, 11, HAND, "hh", "a1")],
        [region(9, 10, FACE, "fff", "a2"), region(51, 50, FACE, "ff", "a2")],
    ]
    want = reconcile_majority(base, match_radius=5.0)
    rng = random.Random(0)
    for _ in range(100):
        shuffled = base[:]
        rng.shuffle(shuffled)
        assert reconcile_majority(shuffled, match_radius=5.0) == want


def test_requires_two_annotators():
    with pytest.raises(ValueError):
        reconcile_majority([[region(1, 1)]], match_radius=5.0)


# --- compute_stats -------------------------------------------------------

def test_stats_two_images():
    recs = [
        make_record([region(1, 1), region(2, 2), region(3, 3)], image_id="a"),
        make_record([region(1, 1)] * 5, image_id="b"),
    ]
    stats = compute_stats(recs)
    assert stats.image_count == 2
    assert stats.region_count == 8
    assert stats.regions_per_image == 4.0


def test_stats_single_category_histogram():
    recs = [make_record([region(1, 1), region(2, 2)])]
    stats = compute_stats(recs)
    assert stats.category_histogram == {HAND.value: 1.0}


def test_stats_word_count_whitespace():
    recs = [make_record([region(1, 1, desc="three word desc")])]
    assert compute_stats(recs).mean_description_words == 3.0


def test_stats_empty_error():
    with pytest.raises(ValueError):
        compute_stats([])


def test_stats_additivity():
    rng = np.random.default_rng(0)
    cats = list(DistortionCategory)
    def rand_records(n, tag):
        out = []
        for i in range(n):
            regions = [
                region(
                    int(rng.integers(100)),
                    int(rng.integers(100)),
                    cats[int(rng.integers(12))],
                    " ".join(["w"] * int(rng.integers(1, 6))),
                )
                for _ in range(int(rng.integers(1, 5)))
            ]
            out.append(make_record(regions, image_id="%s%d" % (tag, i)))
        return out

    a = rand_records(5, "a")
    b = rand_records(7, "b")
    sa, sb, sab = compute_stats(a), compute_stats(b), compute_stats(a + b)
    assert sab.region_count == sa.region_count + sb.region_count
    assert sab.regions_per_image == pytest.approx(
        (sa.region_count + sb.region_count) / 12
    )
    want_words = (
        sa.mean_description_words * sa.region_count
        + sb.mean_description_words * sb.region_count
    ) / sab.region_count
    assert sab.mean_description_words == pytest.approx(want_words)


# --- ground_truth_map ----------------------------------------------------

def test_ground_truth_empty():
    m, fix = ground_truth_map(make_record())
    assert not m.to_array().any()
    assert len(fix) == 0


def test_ground_truth_one_region():
    rec = make_record([region(50, 50)])
    m, fix = ground_truth_map(rec)
    assert int(m.to_array().sum()) == 81
    assert fix.points == ((50, 50),)


@pytest.mark.parametrize("sigma", [-3.0, -1e-9, float("nan")])
def test_ground_truth_rejects_a_blur_sigma_below_zero(sigma):
    with pytest.raises(ValueError, match="blur_sigma must be >= 0"):
        ground_truth_map(make_record([region(50, 50)]), blur_sigma=sigma)


def test_ground_truth_union_of_overlapping():
    rec = make_record([region(50, 50), region(52, 50)])
    m, fix = ground_truth_map(rec)
    union = rasterize_region((50, 50), 100, 100) | rasterize_region((52, 50), 100, 100)
    assert np.array_equal(m.to_array() > 0, union)
    assert len(fix) == 2
