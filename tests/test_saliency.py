import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from retouchkit.dataset import gaussian_blur
from retouchkit.saliency import (
    RegionProposal,
    SaliencyMap,
    binarize,
    dilate,
    extract_regions,
    hybrid_loss,
    hybrid_loss_gradient,
    label_set_pixels,
    propose_masks,
    union_mask,
)

# the 8-connectivity structuring element of the scipy references
CONN8 = np.ones((3, 3), dtype=bool)


def smap(arr):
    return SaliencyMap.from_array(np.asarray(arr, dtype=np.float32))


# --- independent oracles -------------------------------------------------

def oracle_kld(p, g, eps):
    # direct summation, float64, written independently of the module
    gn = g / g.sum()
    sn = p / p.sum()
    return sum(gv * math.log(gv / (sv + eps) + eps) for gv, sv in zip(gn.flat, sn.flat))


def oracle_loss(p, g, alpha, eps):
    mse = sum((pv - gv) ** 2 for pv, gv in zip(p.flat, g.flat)) / p.size
    return alpha * mse + (1 - alpha) * oracle_kld(p, g, eps)


def flood_fill_components(mask):
    # exhaustive 8-connected flood fill
    mask = np.asarray(mask, bool)
    seen = np.zeros_like(mask)
    comps = []
    for sy, sx in zip(*np.nonzero(mask)):
        if seen[sy, sx]:
            continue
        stack = [(sy, sx)]
        comp = []
        seen[sy, sx] = True
        while stack:
            y, x = stack.pop()
            comp.append((y, x))
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if (
                        0 <= ny < mask.shape[0]
                        and 0 <= nx < mask.shape[1]
                        and mask[ny, nx]
                        and not seen[ny, nx]
                    ):
                        seen[ny, nx] = True
                        stack.append((ny, nx))
        comps.append(comp)
    return comps


# --- hybrid loss ---------------------------------------------------------

def test_loss_zero_at_equality_alpha1():
    m = smap([[0.2, 0.7], [0.1, 0.9]])
    assert hybrid_loss(m, m, 1.0) == 0.0


def test_loss_self_kld_small():
    m = smap([[0.2, 0.7], [0.1, 0.9]])
    val = hybrid_loss(m, m, 0.0)
    assert abs(val) <= 1e-7 * m.to_array().size


def test_loss_uniform_vs_delta_derived():
    pred = smap(np.full((2, 2), 0.25))
    truth = smap([[1.0, 0.0], [0.0, 0.0]])
    got = hybrid_loss(pred, truth, 0.5)
    # frozen from the direct hand evaluation 0.5*0.1875 + 0.5*ln 4
    assert got == pytest.approx(0.5 * 0.1875 + 0.5 * math.log(4.0), abs=1e-5)


def test_loss_matches_direct_summation_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = rng.uniform(0.05, 1.0, (3, 3)).astype(np.float32)
        g = rng.uniform(0.05, 1.0, (3, 3)).astype(np.float32)
        alpha = float(rng.random())
        got = hybrid_loss(smap(p), smap(g), alpha)
        want = oracle_loss(p.astype(np.float64), g.astype(np.float64), alpha, 1e-7)
        assert got == pytest.approx(want, rel=1e-10)


def test_float64_view_is_cached_and_read_only():
    arr = np.random.default_rng(2).random((3, 5)).astype(np.float32)
    m = smap(arr)
    view = m.float64
    assert view.dtype == np.float64
    assert np.array_equal(view, m.to_array().astype(np.float64))
    assert m.float64 is view
    assert not view.flags.writeable
    with pytest.raises(ValueError):
        view[0, 0] = 0.5
    # not a field: equality and hash still see only the grid
    fresh = smap(arr)
    assert m == fresh and hash(m) == hash(fresh)


def test_loss_dimension_mismatch():
    with pytest.raises(ValueError, match="^prediction is 1x1, truth is 2x1$"):
        hybrid_loss(smap([[0.1]]), smap([[0.1, 0.2]]), 0.5)


def test_loss_zero_truth_error():
    with pytest.raises(ValueError):
        hybrid_loss(smap([[0.5]]), smap([[0.0]]), 0.5)


# --- gradient ------------------------------------------------------------

def test_gradient_zero_at_equality_alpha1():
    m = smap([[0.2, 0.7], [0.1, 0.9]])
    g = hybrid_loss_gradient(m, m, 1.0)
    assert np.all(g == 0.0)


# criterion 03 checks random alphas in [0, 1); this holds the pure-KLD end
@pytest.mark.parametrize("alpha", [0.0], ids=["zero"])
def test_gradient_matches_finite_differences(alpha):
    rng = np.random.default_rng(11)
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        # bounded away from 0: near-zero pixels blow up the fd truncation
        # error at h=1e-4 even though the analytic gradient stays exact
        p = rng.uniform(0.05, 1.0, (4, 4))
        g = rng.uniform(0.05, 1.0, (4, 4))
        P = smap(p)
        p64 = P.to_array().astype(np.float64)
        g64 = smap(g).to_array().astype(np.float64)
        analytic = hybrid_loss_gradient(P, smap(g), alpha).astype(np.float64)
        fd = np.zeros_like(p64)
        for idx in np.ndindex(4, 4):
            pp, pm = p64.copy(), p64.copy()
            pp[idx] += h
            pm[idx] -= h
            fd[idx] = (
                oracle_loss(pp, g64, alpha, 1e-7)
                - oracle_loss(pm, g64, alpha, 1e-7)
            ) / (2 * h)
        worst = max(worst, float(np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8)))
    assert worst <= 1e-4


# --- binarize / dilate / extract ----------------------------------------

def test_binarize_extremes():
    m = smap([[0.2, 0.7], [0.5, 0.9]])
    assert binarize(m, 0.0).all()
    assert not binarize(m, 0.91).any()


def test_binarize_example():
    m = smap([[0.2, 0.7], [0.5, 0.9]])
    assert np.array_equal(binarize(m, 0.5), [[False, True], [True, True]])


@settings(max_examples=300, deadline=None)
@given(tau=st.floats(0.0, 1.0), steps=st.lists(st.integers(-2, 2), min_size=1, max_size=12))
# a tau whose nearest float32 lies below it: a float32 comparison sets that pixel
@example(tau=0.9121328286946706, steps=[0])
def test_binarize_is_exact_for_a_float64_tau(tau, steps):
    # values within two float32 steps of tau, where rounding tau can matter
    near = np.float32(tau)
    values = []
    for k in steps:
        v = near
        for _ in range(abs(k)):
            v = np.nextafter(v, np.float32(k))
        values.append(v)
    m = smap(np.clip(values, 0.0, 1.0)[None, :])
    assert np.array_equal(binarize(m, tau), m.float64 >= tau)


def test_dilate_radius0_identity():
    mask = np.zeros((4, 4), bool)
    mask[1, 2] = True
    assert np.array_equal(dilate(mask, 0), mask)


def test_dilate_center_pixel():
    mask = np.zeros((5, 5), bool)
    mask[2, 2] = True
    out = dilate(mask, 1)
    want = np.zeros((5, 5), bool)
    want[1:4, 1:4] = True
    assert np.array_equal(out, want)


def test_dilate_extensive_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(30):
        a = rng.random((6, 6)) < 0.3
        b = a | (rng.random((6, 6)) < 0.3)
        da, db = dilate(a, 1), dilate(b, 1)
        assert np.all(~a | da)  # a subset of dilate(a)
        assert np.all(~da | db)  # monotone


@pytest.mark.parametrize("radius", [0, 1, 2, 3, 7])
def test_dilate_matches_scipy(radius):
    from scipy import ndimage

    rng = np.random.default_rng(radius)
    shapes = [(1, 1), (1, 9), (9, 1), (2, 5), (5, 2), (6, 6), (16, 11), (33, 40)]
    se = np.ones((2 * radius + 1, 2 * radius + 1), dtype=bool)
    for shape in shapes:  # 1xN, Nx1 and, for r = 7, sides shorter than r
        for density in (0.02, 0.1, 0.4):
            mask = rng.random(shape) < density
            before = mask.copy()
            got = dilate(mask, radius)
            assert got.dtype == bool, shape
            assert np.array_equal(got, ndimage.binary_dilation(mask, structure=se)), (shape, density)
            assert np.array_equal(mask, before)  # the input is not written


def test_dilate_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="radius must be >= 0"):
        dilate(np.zeros((3, 3), bool), -1)


def test_extract_empty():
    src = smap(np.zeros((3, 3)))
    assert extract_regions(np.zeros((3, 3), bool), src, 1) == []


def test_extract_two_blobs():
    mask = np.zeros((6, 6), bool)
    mask[0:2, 0:2] = True
    mask[4:6, 4:6] = True
    src = smap(np.where(mask, 0.8, 0.0))
    regions = extract_regions(mask, src, min_area=1)
    assert len(regions) == 2
    assert all(r.area == 4 for r in regions)


def test_diagonal_touch_is_one_component():
    mask = np.zeros((3, 3), bool)
    mask[0, 0] = mask[1, 1] = True
    src = smap(np.zeros((3, 3)))
    regions = extract_regions(mask, src, min_area=1)
    assert len(regions) == 1
    assert regions[0].area == 2


def test_bbox_tight_and_peak():
    mask = np.zeros((4, 4), bool)
    mask[1, 1] = mask[1, 2] = mask[2, 1] = mask[2, 2] = True
    arr = np.zeros((4, 4))
    arr[2, 2] = 0.9
    regions = extract_regions(mask, smap(arr), min_area=1)
    (r,) = regions
    assert r.bbox == (1, 1, 2, 2)
    assert r.peak_saliency == pytest.approx(0.9)


@pytest.mark.parametrize("min_area", [0, -5])
def test_extract_rejects_min_area_below_one(min_area):
    # it used to be accepted and acted as 1
    mask = np.ones((3, 3), bool)
    with pytest.raises(ValueError, match="min_area must be >= 1"):
        extract_regions(mask, smap(np.zeros((3, 3))), min_area)
    with pytest.raises(ValueError, match="min_area must be >= 1"):
        propose_masks(smap(np.ones((3, 3))), 0.5, 1, min_area)


@pytest.mark.parametrize("min_area", [1.5, float("nan"), 4.0])
def test_extract_rejects_a_float_min_area(min_area):
    # 1.5 used to keep only regions of area 2 or more, and NaN none at all
    mask = np.ones((3, 3), bool)
    with pytest.raises(TypeError, match="float"):
        extract_regions(mask, smap(np.zeros((3, 3))), min_area)
    with pytest.raises(TypeError, match="float"):
        propose_masks(smap(np.ones((3, 3))), 0.5, 0, min_area)


def oracle_regions(mask, values, min_area):
    """(bbox, area, repr(peak), crop bytes) of every flood-filled component
    with at least min_area pixels, sorted by (-peak, y0, x0); ties keep the
    order of each component's first pixel in raster order. The peak is the
    last of the equal maxima in raster order, so the sign of a zero peak is
    that of the component's last pixel."""
    found = []
    for comp in flood_fill_components(mask):
        if len(comp) < min_area:
            continue
        comp = sorted(comp)  # raster order
        ys, xs = [y for y, _ in comp], [x for _, x in comp]
        x0, y0, x1, y1 = min(xs), min(ys), max(xs), max(ys)
        peak = -math.inf
        crop = np.zeros((y1 - y0 + 1, x1 - x0 + 1), bool)
        for y, x in comp:
            if float(values[y, x]) >= peak:
                peak = float(values[y, x])
            crop[y - y0, x - x0] = True
        found.append(((x0, y0, x1, y1), len(comp), peak, crop.tobytes()))
    found.sort(key=lambda f: (-f[2], f[0][1], f[0][0]))
    return [(bbox, area, repr(peak), crop) for bbox, area, peak, crop in found]


def region_fields(regions):
    return [(r.bbox, r.area, repr(r.peak_saliency), r.mask.tobytes()) for r in regions]


def full_frame_extract_regions(mask, source, min_area):
    # reference: areas, peaks and bboxes from a bincount, a maximum.at and a
    # find_objects over the whole frame
    from scipy import ndimage

    mask = np.asarray(mask, dtype=bool)
    src = source.to_array()
    labels, n = ndimage.label(mask, structure=CONN8)
    areas = np.bincount(labels.ravel(), minlength=n + 1)
    peaks = np.full(n + 1, -np.inf, dtype=src.dtype)
    np.maximum.at(peaks, labels.ravel(), src.ravel())
    areas, peaks = areas.tolist(), peaks.tolist()
    proposals = []
    for lbl, (ys, xs) in enumerate(ndimage.find_objects(labels), start=1):
        if areas[lbl] < min_area:
            continue
        proposals.append(
            RegionProposal(
                mask=labels[ys, xs] == lbl,
                bbox=(xs.start, ys.start, xs.stop - 1, ys.stop - 1),
                peak_saliency=peaks[lbl],
                area=areas[lbl],
            )
        )
    proposals.sort(key=lambda r: (-r.peak_saliency, r.bbox[1], r.bbox[0]))
    return proposals


# few distinct values, so peaks tie and (y0, x0) decides; both zeros, so a
# component of zeros can peak at either sign
_TIED_VALUES = (0.0, -0.0, 0.25, 0.5, 1.0)


@st.composite
def region_cases(draw):
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    shape = draw(st.sampled_from([(h, w), (1, 3 * w), (3 * h, 1)]))
    n = shape[0] * shape[1]
    palette = draw(st.sampled_from([_TIED_VALUES, _TIED_VALUES[:2]]))  # or zeros only
    values = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    fill = draw(st.sampled_from(["random", "all", "none"]))
    if fill == "random":
        density = draw(st.integers(1, 9))
        cells = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        mask = np.array(cells).reshape(shape) < density
    else:
        mask = np.full(shape, fill == "all")
    min_area = draw(st.integers(1, 6))
    return mask, np.array(values, np.float32).reshape(shape), min_area


_ZERO_PAIR = (np.ones((1, 2), bool), np.array([[0.0, -0.0]], np.float32), 1)


@given(region_cases())
@example(_ZERO_PAIR)
@settings(max_examples=300, deadline=None)
def test_extract_matches_flood_fill_and_the_full_frame_reference(case):
    mask, values, min_area = case
    got = region_fields(extract_regions(mask, smap(values), min_area))
    assert got == oracle_regions(mask, values, min_area)
    assert got == region_fields(full_frame_extract_regions(mask, smap(values), min_area))


@given(region_cases())
@settings(max_examples=300, deadline=None)
def test_extracted_regions_pass_the_constructors_checks(case):
    # extract_regions builds its regions in one batch, without __post_init__;
    # each must be a region the constructor would build from its fields
    mask, values, min_area = case
    for r in extract_regions(mask, smap(values), min_area):
        assert r.mask.dtype == bool and not r.mask.flags.writeable
        assert r == RegionProposal(r.mask.copy(), r.bbox, r.peak_saliency, r.area)


def test_zero_peak_takes_the_sign_of_the_last_zero():
    # components of zeros of both signs: numpy's vectorised maximum returns
    # either zero, depending on the pattern; a pixel-by-pixel maximum returns
    # the last in raster order. Single rows, and one component over several
    # rows whose every row holds several runs of two, joined diagonally
    rng = np.random.default_rng(3)
    masks = [np.ones((1, n), bool) for n in range(1, 130)]
    for h, w in [(2, 5), (3, 8), (6, 40), (9, 130)]:
        masks.append(np.add.outer(np.arange(h), np.arange(w)) % 3 != 0)
    for mask in masks:
        values = rng.choice(np.array([0.0, -0.0], np.float32), mask.shape)
        (r,) = extract_regions(mask, smap(values), 1)
        assert repr(r.peak_saliency) == repr(float(values[mask][-1])), mask.shape


def test_extract_matches_the_full_frame_reference_on_large_maps():
    # many components of tied peaks; also the 512^2 map at 12% of pixels set
    rng = np.random.default_rng(12)
    for shape, density in [((64, 64), 0.3), ((96, 80), 0.1), ((256, 256), 0.08), ((512, 512), 0.12)]:
        values = rng.choice(np.array(_TIED_VALUES, np.float32), shape)
        mask = rng.random(shape) < density
        for min_area in (1, 4):
            got = extract_regions(mask, smap(values), min_area)
            want = full_frame_extract_regions(mask, smap(values), min_area)
            assert region_fields(got) == region_fields(want), (shape, min_area)


# --- label_set_pixels and gaussian_blur, against scipy --------------------

def assert_labels_match_scipy(mask):
    from scipy import ndimage

    labels, n = ndimage.label(mask, structure=CONN8)
    got, got_n = label_set_pixels(mask)
    assert got.dtype == np.int32
    assert got_n == n
    assert np.array_equal(got, labels[mask])


@given(st.integers(1, 39), st.integers(1, 39), st.integers(0, 10), st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_labels_match_scipy(h, w, density, seed):
    # densities from empty to full; about half set gives the most runs that
    # touch two or more runs above
    assert_labels_match_scipy(np.random.default_rng(seed).random((h, w)) < density / 10)


def spiral(side):
    # a square spiral one pixel wide with one-pixel gaps: one component
    # whose runs join through long chains of hooks and extra unions
    mask = np.zeros((side, side), bool)
    y = x = 0
    dy, dx = 0, 1
    for length in [side - 1] + [n for n in range(side - 1, 0, -2) for _ in range(2)]:
        for _ in range(length):
            mask[y, x] = True
            y, x = y + dy, x + dx
        dy, dx = dx, -dy  # turn clockwise
    mask[y, x] = True
    return mask


def comb(teeth, gap, depth):
    # teeth above a spine: the spine's run touches every tooth
    mask = np.zeros((depth + 1, teeth * (gap + 1)), bool)
    mask[:-1, :: gap + 1] = True
    mask[-1] = True
    return mask


_U = np.array([[1, 0, 0, 1], [1, 0, 0, 1], [1, 1, 1, 1]], bool)
_LABEL_SHAPES = {
    "empty": np.zeros((5, 7), bool),
    "full": np.ones((5, 7), bool),
    "row": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool),
    "column": np.array([[1, 1, 0, 1, 0, 0, 1, 1, 1]], bool).T,
    "checkerboard": np.indices((9, 12)).sum(axis=0) % 2 == 0,
    "U": _U,
    "W": np.array(
        [[1, 0, 0, 0, 1, 0, 0, 0, 1], [0, 1, 0, 1, 0, 1, 0, 1, 0], [0, 0, 1, 0, 0, 0, 1, 0, 0]], bool
    ),
    "comb": comb(8, 2, 3),
    "comb-upside-down": comb(8, 1, 4)[::-1],
    # a chain of 40 runs, each hooked to the one above; the dot is the 2nd
    # root, so a jump that stops short of the chain's root relabels it
    "diagonal-and-dot": np.eye(40, dtype=bool) | (np.arange(40) == 39) * (np.arange(40) == 0)[:, None],
    "antidiagonal": np.eye(40, dtype=bool)[:, ::-1],
    "spiral": spiral(41),
}


@pytest.mark.parametrize("name", list(_LABEL_SHAPES))
def test_labels_match_scipy_on_shapes(name):
    assert_labels_match_scipy(_LABEL_SHAPES[name])


@given(
    st.integers(1, 99),
    st.integers(1, 99),
    st.floats(0.5, 25.0),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@example(7, 5, 0.1, False, 0)  # radius 0: one tap
@example(7, 5, 1e-200, False, 0)  # sigma squared is 0
@settings(max_examples=100, deadline=None)
def test_gaussian_blur_matches_scipy_bit_for_bit(h, w, sigma, binary, seed):
    from scipy.ndimage import gaussian_filter

    rng = np.random.default_rng(seed)
    image = rng.random((h, w), dtype=np.float32)
    if binary:
        image = (image < 0.2).astype(np.float32)
    got = gaussian_blur(image, sigma)
    want = gaussian_filter(image, sigma)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# --- propose_masks -------------------------------------------------------

def test_propose_zero_map():
    assert propose_masks(smap(np.zeros((5, 5))), 0.5, 1, 4) == []


def test_propose_single_bump_contains_argmax():
    arr = np.zeros((9, 9))
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            arr[4 + dy, 4 + dx] = 0.6
    arr[4, 4] = 0.9
    regions = propose_masks(smap(arr), tau=0.5, dilation_radius=1, min_area=4)
    assert len(regions) == 1
    assert union_mask(regions, 9, 9)[4, 4]
    assert regions[0].peak_saliency == pytest.approx(0.9)


def test_propose_two_bumps_ordered_and_matches_flood_fill():
    arr = np.zeros((12, 12))
    arr[2, 2] = 0.7
    arr[9, 9] = 0.95
    regions = propose_masks(smap(arr), tau=0.5, dilation_radius=1, min_area=1)
    assert len(regions) == 2
    assert regions[0].peak_saliency > regions[1].peak_saliency
    # oracle: flood fill on the dilated thresholded grid
    from retouchkit.saliency import binarize, dilate

    comps = flood_fill_components(dilate(binarize(smap(arr), 0.5), 1))
    assert sorted(len(c) for c in comps) == sorted(r.area for r in regions)


def test_propose_masks_disjoint_union_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        arr = (rng.random((10, 10)) ** 2).astype(np.float32)
        m = smap(arr)
        regions = propose_masks(m, tau=0.6, dilation_radius=1, min_area=3)
        total = np.zeros((10, 10), int)
        for r in regions:
            total += union_mask([r], 10, 10).astype(int)
        assert total.max() <= 1  # pairwise disjoint
        dilated = dilate(binarize(m, 0.6), 1)
        union = total.astype(bool)
        # union = dilated set minus sub-min_area components
        small = np.zeros((10, 10), bool)
        for comp in flood_fill_components(dilated):
            if len(comp) < 3:
                for y, x in comp:
                    small[y, x] = True
        assert np.array_equal(union, dilated & ~small)


# --- regions at the size of their bounding box ----------------------------

def test_regions_are_stored_at_bbox_size():
    # 12% of pixels set at random: thousands of small components, each
    # stored as its bbox crop instead of a 64 KB frame
    rng = np.random.default_rng(0)
    arr = (rng.random((256, 256)) < 0.12).astype(np.float32)
    regions = propose_masks(smap(arr), tau=0.5, dilation_radius=0, min_area=1)
    assert len(regions) == 4523
    boxes = 0
    total = np.zeros((256, 256), int)
    for r in regions:
        x0, y0, x1, y1 = r.bbox
        assert r.mask.shape == (y1 - y0 + 1, x1 - x0 + 1)
        boxes += r.mask.size
        total[y0 : y1 + 1, x0 : x1 + 1] += r.mask
    assert sum(r.mask.nbytes for r in regions) == boxes < 2**20
    assert np.array_equal(total, arr >= 0.5)  # the crops tile the set pixels once


def diagonal_frame(*extra):
    # three set pixels on the diagonal of the bbox (x0, y0, x1, y1) = (2, 1, 4, 3),
    # plus the `extra` (y, x) pixels
    frame = np.zeros((6, 8), bool)
    for y, x in [(1, 2), (2, 3), (3, 4), *extra]:
        frame[y, x] = True
    return frame


def test_full_frame_mask_is_cropped_to_the_bbox():
    frame = diagonal_frame()
    from_frame = RegionProposal(mask=frame, bbox=(2, 1, 4, 3), peak_saliency=0.7, area=3)
    from_crop = RegionProposal(frame[1:4, 2:5].copy(), (2, 1, 4, 3), peak_saliency=0.7, area=3)
    assert np.array_equal(from_frame.mask, np.eye(3, dtype=bool))
    assert np.array_equal(from_crop.mask, from_frame.mask)
    assert np.array_equal(union_mask([from_frame], 6, 8), frame)
    assert np.array_equal(union_mask([from_crop], 6, 8), frame)
    frame[2, 3] = False  # the region keeps its own copy of the crop
    assert from_frame.mask[1, 1]


def test_union_mask_ors_regions_whose_bboxes_overlap():
    # an L along the left and bottom sides of (0, 0, 3, 3) and a pixel inside
    # that bbox which is not 8-adjacent to it: assigning the L's crop after
    # the pixel would clear the pixel
    ell = np.zeros((4, 4), bool)
    ell[:, 0] = ell[3, :] = True
    a = RegionProposal(ell, (0, 0, 3, 3), peak_saliency=0.9, area=7)
    b = RegionProposal(np.ones((1, 1), bool), (2, 1, 2, 1), peak_saliency=0.8, area=1)
    want = np.zeros((5, 6), bool)
    want[:4, :4] = ell
    want[1, 2] = True
    assert want.sum() == 8
    assert np.array_equal(union_mask([a, b], 5, 6), want)
    assert np.array_equal(union_mask([b, a], 5, 6), want)
    assert not union_mask([], 5, 6).any()


@pytest.mark.parametrize(
    "mask, bbox, area, message",
    [
        (diagonal_frame((5, 7)), (2, 1, 4, 3), 3, "outside the bbox"),
        (diagonal_frame()[:3, :4], (2, 1, 4, 3), 1, "bbox crop"),  # frame smaller than the bbox
        (diagonal_frame(), (2, 1, 4, 3), 2, "area must equal"),
        (np.eye(3, dtype=bool), (2, 1, 4, 3), 2, "area must equal"),
        (np.eye(2, dtype=bool), (-2, -2, -1, -1), 2, "origin"),
    ],
)
def test_region_constructor_rejects(mask, bbox, area, message):
    with pytest.raises(ValueError, match=message):
        RegionProposal(mask=mask, bbox=bbox, peak_saliency=0.5, area=area)


@pytest.mark.parametrize("crop", [False, True])
def test_region_mask_is_read_only(crop):
    frame = diagonal_frame()
    r = RegionProposal(frame[1:4, 2:5].copy() if crop else frame, (2, 1, 4, 3), 0.7, 3)
    assert not r.mask.flags.writeable
    with pytest.raises(ValueError):
        r.mask[0, 0] = False


@pytest.mark.parametrize("read_only", [False, True], ids=["view", "read-only-view"])
def test_a_region_never_changes_with_the_array_it_views(read_only):
    # the view used to be frozen and its base left writable, so the area
    # stayed 3 while the mask lost a pixel
    frame = diagonal_frame()
    view = frame[1:4, 2:5]
    view.setflags(write=not read_only)
    r = RegionProposal(view, (2, 1, 4, 3), 0.7, 3)
    frame[1, 2] = False
    assert np.count_nonzero(r.mask) == r.area == 3


# --- every rejecting branch ----------------------------------------------

@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: smap([[1.5]]),
            r"saliency values must lie in \[0, 1\]",
            id="map-above-one",
        ),
        pytest.param(
            lambda: hybrid_loss(smap([[0.5]]), smap([[0.5]]), 1.5),
            r"alpha must lie in \[0, 1\]",
            id="alpha",
        ),
        pytest.param(
            lambda: hybrid_loss_gradient(smap([[0.5]]), smap([[0.5]]), float("nan")),
            r"alpha must lie in \[0, 1\]",
            id="alpha-nan-gradient",
        ),
        pytest.param(lambda: binarize(smap([[0.5]]), 1.5), r"tau must lie in \[0, 1\]", id="tau"),
        pytest.param(
            lambda: extract_regions(np.zeros((2, 2), bool), smap(np.zeros((3, 3))), 1),
            "^mask is 2x2, saliency map is 3x3$",
            id="extract-dims",
        ),
    ],
)
def test_rejecting_branches(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_hybrid_loss_gradient_of_a_zero_sum_prediction_is_the_mse_part():
    # the KLD term has no gradient where the prediction sums to 0
    pred, truth = smap(np.zeros((2, 3))), smap([[0.0, 0.5, 1.0], [0.25, 0.0, 0.75]])
    got = hybrid_loss_gradient(pred, truth, 0.5)
    want = (0.5 * 2.0 * (0.0 - truth.float64) / 6).astype(np.float32)
    assert got.tobytes() == want.tobytes()
