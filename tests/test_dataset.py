import json
import math
import random

import numpy as np
import pytest

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


def test_ground_truth_union_of_overlapping():
    rec = make_record([region(50, 50), region(52, 50)])
    m, fix = ground_truth_map(rec)
    union = rasterize_region((50, 50), 100, 100) | rasterize_region((52, 50), 100, 100)
    assert np.array_equal(m.to_array() > 0, union)
    assert len(fix) == 2
