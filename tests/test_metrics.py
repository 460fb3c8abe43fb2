import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from retouchkit.metrics import (
    FixationSet,
    MetricReport,
    aggregate_reports,
    auc_judd,
    cc,
    evaluate_all,
    kld,
    nss,
    sim,
)
from retouchkit.saliency import SaliencyMap
from test_saliency import smap


def mann_whitney(pos, neg):
    u = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                u += 1.0
            elif p == n:
                u += 0.5
    return u / (len(pos) * len(neg))


def pearson_oracle(p, g):
    n = len(p)
    mp = sum(p) / n
    mg = sum(g) / n
    num = sum((a - mp) * (b - mg) for a, b in zip(p, g))
    den = math.sqrt(sum((a - mp) ** 2 for a in p) * sum((b - mg) ** 2 for b in g))
    return num / den


# --- cc ------------------------------------------------------------------

def test_cc_self():
    m = smap([[0.1, 0.9], [0.4, 0.6]])
    assert cc(m, m) == pytest.approx(1.0, abs=1e-12)


def test_cc_anticorrelated():
    assert cc(smap([[0.0, 1.0]]), smap([[1.0, 0.0]])) == pytest.approx(-1.0, abs=1e-12)


def test_cc_matches_textbook_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        p = rng.random((3, 3)).astype(np.float32)
        g = rng.random((3, 3)).astype(np.float32)
        want = pearson_oracle(
            list(p.astype(np.float64).flat), list(g.astype(np.float64).flat)
        )
        assert cc(smap(p), smap(g)) == pytest.approx(want, abs=1e-10)


def test_cc_constant_map_error():
    with pytest.raises(ValueError):
        cc(smap(np.full((2, 2), 0.5)), smap([[0.1, 0.9], [0.2, 0.3]]))


# --- sim -----------------------------------------------------------------

def test_sim_self():
    m = smap([[0.1, 0.9], [0.4, 0.6]])
    assert sim(m, m) == pytest.approx(1.0, abs=1e-12)


def test_sim_disjoint():
    assert sim(smap([[1.0, 0.0]]), smap([[0.0, 1.0]])) == 0.0


def test_sim_uniform_vs_delta():
    pred = smap(np.full((2, 2), 0.25))
    truth = smap([[1.0, 0.0], [0.0, 0.0]])
    assert sim(pred, truth) == pytest.approx(0.25, abs=1e-7)


def test_sim_range_and_equality_condition():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.random((3, 3)) + 1e-3
        g = rng.random((3, 3)) + 1e-3
        v = sim(smap(p / p.max()), smap(g / g.max()))
        assert 0.0 <= v <= 1.0 + 1e-12
        if v == pytest.approx(1.0, abs=1e-9):
            pn = p / p.sum()
            gn = g / g.sum()
            assert np.allclose(pn, gn, atol=1e-6)


# --- kld -----------------------------------------------------------------

def test_kld_shared_with_hybrid_loss():
    from retouchkit.saliency import hybrid_loss

    rng = np.random.default_rng(3)
    p = smap(rng.random((3, 3)))
    g = smap(rng.random((3, 3)))
    assert kld(p, g) == pytest.approx(hybrid_loss(p, g, 0.0), rel=1e-12)


def test_kld_zero_truth():
    with pytest.raises(ValueError):
        kld(smap([[0.5, 0.5]]), smap([[0.0, 0.0]]))


# --- nss -----------------------------------------------------------------

def test_nss_single_peak_derived():
    # map with one 1.0 pixel among n zeros; fixation at the max
    arr = np.zeros((2, 2))
    arr[0, 0] = 1.0
    n = 4
    mu = 1.0 / n
    sigma = math.sqrt(sum((v - mu) ** 2 for v in arr.flat) / n)
    got = nss(smap(arr), FixationSet([(0, 0)]))
    assert got == pytest.approx((1.0 - mu) / sigma, abs=1e-6)
    assert got > 0


def test_nss_uniform_fixations_zero():
    m = smap([[0.1, 0.9], [0.4, 0.6]])
    fix = FixationSet([(x, y) for y in range(2) for x in range(2)])
    assert nss(m, fix) == pytest.approx(0.0, abs=1e-7)


def test_nss_constant_map_error():
    with pytest.raises(ValueError):
        nss(smap(np.full((2, 2), 0.3)), FixationSet([(0, 0)]))


# --- auc_judd ------------------------------------------------------------

def test_auc_perfect_separation():
    arr = np.zeros((3, 3))
    arr[1, 1] = 1.0
    assert auc_judd(smap(arr), FixationSet([(1, 1)])) == 1.0


def test_auc_constant_map_half():
    m = smap(np.full((3, 3), 0.4))
    assert auc_judd(m, FixationSet([(0, 0), (2, 2)])) == 0.5


def test_auc_matches_mann_whitney_random():
    rng = np.random.default_rng(5)
    for _ in range(50):
        arr = rng.integers(0, 5, (4, 4)) / 4.0
        pts = set()
        while len(pts) < 3:
            pts.add((int(rng.integers(4)), int(rng.integers(4))))
        fix = FixationSet(pts)
        pos = [arr[y, x] for x, y in fix.points]
        mask = np.zeros((4, 4), bool)
        for x, y in fix.points:
            mask[y, x] = True
        neg = list(arr[~mask])
        assert auc_judd(smap(arr), fix) == pytest.approx(
            mann_whitney(pos, neg), abs=1e-12
        )


def test_auc_exhaustive_small_maps():
    # all 2x2 maps over a small value alphabet, every fixation subset
    values = [0.0, 0.5, 1.0]
    for combo in itertools.product(values, repeat=4):
        arr = np.array(combo).reshape(2, 2)
        coords = [(x, y) for y in range(2) for x in range(2)]
        for k in (1, 2, 3):
            for pts in itertools.combinations(coords, k):
                fix = FixationSet(pts)
                pos = [arr[y, x] for x, y in pts]
                mask = np.zeros((2, 2), bool)
                for x, y in pts:
                    mask[y, x] = True
                neg = list(arr[~mask])
                assert auc_judd(SaliencyMap.from_array(arr.astype(np.float32)), fix) == pytest.approx(
                    mann_whitney(pos, neg), abs=0.0
                )


@st.composite
def tied_maps(draw):
    """(map, fixations): 1-4 value levels so ties dominate, 0.0 and -0.0
    side by side, repeated fixations, and often every pixel fixated but
    one."""
    h, w = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    n = h * w
    levels = draw(st.integers(1, 4))
    codes = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
    negzero = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    values = [
        -0.0 if c == 0 and z else c / max(levels - 1, 1) for c, z in zip(codes, negzero)
    ]
    if draw(st.booleans()):
        skip = draw(st.integers(0, n - 1))
        flat = [i for i in range(n) if i != skip]
    else:
        flat = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    flat += draw(st.lists(st.sampled_from(flat), max_size=3))  # repeats
    arr = np.array(values, dtype=np.float32).reshape(h, w)
    return arr, flat


@given(tied_maps())
@settings(max_examples=300, deadline=None)
def test_auc_equals_pairwise_count_with_heavy_ties(case):
    arr, flat = case
    w = arr.shape[1]
    fix = FixationSet((i % w, i // w) for i in flat)
    values = [float(v) for v in arr.flat]
    fixated = set(flat)
    pos = [v for i, v in enumerate(values) if i in fixated]
    neg = [v for i, v in enumerate(values) if i not in fixated]
    if not neg:
        with pytest.raises(ValueError):
            auc_judd(smap(arr), fix)
        return
    assert auc_judd(smap(arr), fix) == mann_whitney(pos, neg)


def pairwise(arr, flat):
    """(positives, negatives) as Python floats: fixated pixels, counted once,
    and all other pixels of arr."""
    values = arr.ravel().tolist()
    fixated = set(flat)
    pos = [v for i, v in enumerate(values) if i in fixated]
    neg = [v for i, v in enumerate(values) if i not in fixated]
    return pos, neg


@st.composite
def corpus_like_maps(draw):
    """(map, flat fixations) shaped like the evaluation corpus: a continuous
    float32 map of 64^2 to 96^2 pixels and 1-7 fixations, which may repeat."""
    h, w = draw(st.integers(64, 96)), draw(st.integers(64, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.random((h, w), dtype=np.float32)
    flat = draw(st.lists(st.integers(0, h * w - 1), min_size=1, max_size=7))
    flat += draw(st.lists(st.sampled_from(flat), max_size=2))
    return arr, flat


@given(corpus_like_maps())
@settings(max_examples=60, deadline=None)
def test_auc_equals_pairwise_count_on_continuous_maps(case):
    arr, flat = case
    w = arr.shape[1]
    fix = FixationSet((i % w, i // w) for i in flat)
    assert auc_judd(smap(arr), fix) == mann_whitney(*pairwise(arr, flat))


@pytest.mark.parametrize("levels", [None, 5])
@pytest.mark.parametrize("nneg", [1, 2, 7])
def test_auc_with_almost_every_pixel_fixated(levels, nneg):
    # P close to N: the binary searches run over a long sorted list
    rng = np.random.default_rng(nneg)
    arr = rng.random((24, 24), dtype=np.float32)
    if levels is not None:
        arr = np.floor(arr * levels) / levels  # heavy ties
    flat = [int(i) for i in rng.permutation(arr.size)[nneg:]]
    fix = FixationSet((i % 24, i // 24) for i in flat + flat[:3])
    assert auc_judd(smap(arr), fix) == mann_whitney(*pairwise(arr, flat))


def reference_auc_judd(pred, fix):
    """The O(N log P) body this module had before the single sort of the
    map: the P fixated values are sorted, and each negative is ranked
    among them with a left and a right binary search."""
    if len(fix) == 0:
        raise ValueError("auc_judd needs at least one fixation")
    fix.validate_bounds(pred.width, pred.height)
    values = pred.to_array().ravel()
    is_pos = np.zeros(values.size, dtype=bool)
    is_pos[[y * pred.width + x for x, y in fix.points]] = True
    pos = np.sort(values[is_pos])
    neg = values[~is_pos]
    npos, nneg = pos.size, neg.size
    if nneg == 0:
        raise ValueError("auc_judd needs at least one non-fixated pixel")
    left = np.searchsorted(pos, neg, side="left")
    right = np.searchsorted(pos, neg, side="right")
    num = 2 * npos * nneg - int(right.sum()) - int(left.sum())
    return num / (2 * npos * nneg)


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@st.composite
def auc_oracle_cases(draw):
    """(map, flat fixations): 1xN, Nx1 and 2-D maps, either 1-4 value
    levels with 0.0 and -0.0 side by side or continuous values; fixations
    that may repeat, cover every pixel but one, or cover every pixel."""
    shape = draw(st.sampled_from(["row", "column", "grid"]))
    n = draw(st.integers(2, 40))
    if shape == "row":
        h, w = 1, n
    elif shape == "column":
        h, w = n, 1
    else:
        h, w = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    n = h * w
    if draw(st.booleans()):
        levels = draw(st.integers(1, 4))
        codes = draw(st.lists(st.integers(0, levels - 1), min_size=n, max_size=n))
        signs = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = [
            (-0.0 if neg else 0.0) if c == 0 else c / max(levels - 1, 1)
            for c, neg in zip(codes, signs)
        ]
        arr = np.array(values, dtype=np.float32).reshape(h, w)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arr = rng.random((h, w), dtype=np.float32)
    kind = draw(st.sampled_from(["some", "all_but_one", "all"]))
    if kind == "all_but_one":
        skip = draw(st.integers(0, n - 1))
        flat = [i for i in range(n) if i != skip]
    elif kind == "all":
        flat = list(range(n))
    else:
        flat = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n))
    flat += draw(st.lists(st.sampled_from(flat), max_size=4))  # repeats
    return arr, flat


@given(auc_oracle_cases())
@settings(max_examples=400, deadline=None)
def test_auc_equals_the_previous_implementation(case):
    arr, flat = case
    w = arr.shape[1]
    m, fix = smap(arr), FixationSet((i % w, i // w) for i in flat)
    assert outcome(auc_judd, m, fix) == outcome(reference_auc_judd, m, fix)


@pytest.mark.parametrize(
    "arr, points, message",
    [
        ([[0.1, 0.9]], [], "auc_judd needs at least one fixation"),
        # out of bounds is reported before "every pixel fixated"
        ([[0.1, 0.9]], [(0, 0), (1, 0), (2, 0)], r"fixation \(2, 0\) outside 2x1 map"),
        ([[0.1], [0.9]], [(0, 1), (0, 0), (0, 1)], "auc_judd needs at least one non-fixated pixel"),
    ],
)
def test_auc_error_messages_in_order(arr, points, message):
    m, fix = smap(arr), FixationSet(points)
    with pytest.raises(ValueError, match="^%s$" % message):
        auc_judd(m, fix)
    with pytest.raises(ValueError, match="^%s$" % message):
        reference_auc_judd(m, fix)


def test_repeated_fixation_counts_once_in_auc_and_each_time_in_nss():
    m = smap([[0.0, 0.2], [0.5, 1.0]])
    once = FixationSet([(0, 0), (1, 1)])
    twice = FixationSet([(0, 0), (1, 1), (1, 1)])
    assert nss(m, once) == pytest.approx(0.199117, abs=1e-6)
    assert nss(m, twice) == pytest.approx(0.641599, abs=1e-6)
    # 1.0 beats both negatives (0.2, 0.5), 0.0 beats neither: 2 of 4 pairs
    assert auc_judd(m, once) == auc_judd(m, twice) == 0.5


def reference_nss(pred, fix):
    """nss with numpy's own p.std() and p.mean()."""
    if len(fix) == 0:
        raise ValueError("nss needs at least one fixation")
    fix.validate_bounds(pred.width, pred.height)
    p = pred.float64
    sigma = p.std()
    if sigma == 0.0:
        raise ValueError("nss undefined for a constant map")
    mu = p.mean()
    return float(np.mean([(p[y, x] - mu) / sigma for x, y in fix.points]))


def reference_sim(pred, truth):
    """sim with each map summed once for the check and once to normalize."""
    p, g = pred.float64, truth.float64
    if p.sum() <= 0.0 or g.sum() <= 0.0:
        raise ValueError("sim undefined for a zero-sum map")
    return float(np.minimum(p / p.sum(), g / g.sum()).sum())


@st.composite
def map_pairs(draw):
    """Two maps of one shape, from 1x1 to 96x96: continuous, few-level,
    constant or all-zero."""
    h, w = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one():
        kind = draw(st.sampled_from(["continuous", "levels", "constant", "zero"]))
        if kind == "continuous":
            return rng.random((h, w), dtype=np.float32)
        if kind == "levels":
            return (rng.integers(0, 4, (h, w)) / 3.0).astype(np.float32)
        return np.full((h, w), 0.3 if kind == "constant" else 0.0, dtype=np.float32)

    flat = draw(st.lists(st.integers(0, h * w - 1), min_size=1, max_size=8))
    return one(), one(), [(i % w, i // w) for i in flat]


@given(map_pairs())
@settings(max_examples=200, deadline=None)
def test_nss_and_sim_equal_their_reference_forms(case):
    p_arr, g_arr, points = case
    p, g, fix = smap(p_arr), smap(g_arr), FixationSet(points)
    assert outcome(nss, p, fix) == outcome(reference_nss, p, fix)
    assert outcome(sim, p, g) == outcome(reference_sim, p, g)


# --- evaluate_all / aggregation -----------------------------------------

def test_evaluate_all_equals_the_single_metrics():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = smap(rng.random((7, 9)))
        g = smap(rng.random((7, 9)))
        fix = FixationSet([(int(rng.integers(9)), int(rng.integers(7))) for _ in range(3)])
        want = MetricReport(auc_judd(p, fix), nss(p, fix), cc(p, g), sim(p, g), kld(p, g))
        assert evaluate_all(p, g, fix) == want


def test_evaluate_all_calls_each_public_metric_once(monkeypatch):
    import retouchkit.metrics as metrics

    rng = np.random.default_rng(5)
    p = smap(rng.random((6, 8)))
    g = smap(rng.random((6, 8)))
    fix = FixationSet([(1, 2), (7, 5)])
    want = evaluate_all(p, g, fix)
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("auc_judd", "nss", "cc", "sim", "kld"):
        monkeypatch.setattr(metrics, name, counting(name, getattr(metrics, name)))
    assert metrics.evaluate_all(p, g, fix) == want
    assert calls == ["auc_judd", "nss", "cc", "sim", "kld"]


def test_evaluate_all_self_bundle():
    rng = np.random.default_rng(7)
    arr = rng.random((5, 5)).astype(np.float32)
    arr[2, 2] = 1.0
    m = smap(arr)
    fix = FixationSet([(2, 2)])
    rep = evaluate_all(m, m, fix)
    assert rep.cc == pytest.approx(1.0, abs=1e-9)
    assert rep.sim == pytest.approx(1.0, abs=1e-9)
    assert rep.kld == pytest.approx(0.0, abs=1e-5)
    assert rep.auc_judd == 1.0


def test_aggregate_is_unweighted_mean():
    m1 = smap([[0.1, 0.9], [0.3, 0.8]])
    m2 = smap([[0.9, 0.1], [0.8, 0.2]])
    fix = FixationSet([(1, 0)])
    r1 = evaluate_all(m1, m1, fix)
    r2 = evaluate_all(m2, m1, fix)
    agg = aggregate_reports([r1, r2])
    assert agg.cc == pytest.approx((r1.cc + r2.cc) / 2)
    assert agg.kld == pytest.approx((r1.kld + r2.kld) / 2)



def test_aggregate_equals_a_per_field_mean():
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 50):
        reports = [MetricReport(*rng.normal(size=5) * 10.0 ** rng.integers(-3, 4)) for _ in range(n)]
        want = {
            f: float(np.mean([getattr(r, f) for r in reports]))
            for f in ("auc_judd", "nss", "cc", "sim", "kld")
        }
        assert aggregate_reports(reports) == MetricReport(**want)


@st.composite
def maps_with_fixations(draw):
    """A map of 1 to 39 px a side, continuous or of 1 to 4 levels, and 1 to
    11 fixations drawn from at most 4 distinct pixels, so repeats are common."""
    h, w = draw(st.integers(1, 39)), draw(st.integers(1, 39))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = draw(st.sampled_from([0, 1, 2, 3, 4]))  # 0: continuous
    if levels:
        arr = (rng.integers(0, levels, (h, w)) / max(levels - 1, 1)).astype(np.float32)
    else:
        arr = rng.random((h, w), dtype=np.float32)
    pool = draw(st.lists(st.integers(0, h * w - 1), min_size=1, max_size=4))
    flat = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=11))
    return arr, [(i % w, i // w) for i in flat]


@given(maps_with_fixations())
@settings(max_examples=300, deadline=None)
def test_nss_equals_its_per_fixation_reference(case):
    arr, points = case
    m, fix = smap(arr), FixationSet(points)
    assert outcome(nss, m, fix) == outcome(reference_nss, m, fix)

# --- fixation coordinates ------------------------------------------------

@pytest.mark.parametrize(
    "point", [(1.7, 0.2), (0, 1.0), ("2", 0)], ids=["fractional", "integral-float", "str"]
)
def test_fixation_set_rejects_a_coordinate_that_is_not_an_integer(point):
    with pytest.raises(TypeError):
        FixationSet([point])


def test_fixation_set_reads_numpy_integers_as_ints():
    (point,) = FixationSet([(np.int64(2), np.uint8(3))]).points
    assert point == (2, 3)
    assert [type(c) for c in point] == [int, int]


# --- every rejecting branch ----------------------------------------------

@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: nss(smap([[0.0, 1.0]]), FixationSet([])),
            "nss needs at least one fixation",
            id="nss",
        ),
        pytest.param(lambda: aggregate_reports([]), "nothing to aggregate", id="aggregate"),
    ],
)
def test_rejecting_branches(call, message):
    with pytest.raises(ValueError, match=message):
        call()
