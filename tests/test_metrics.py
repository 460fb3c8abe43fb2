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


# --- one strategy of maps and fixations ----------------------------------

@st.composite
def maps(draw, shapes=("row", "column", "grid", "corpus"), kinds=("continuous", "levels", "constant", "zero")):
    """(pred, fixations, truth): two maps of one shape, 1xN or Nx1 up to 40,
    a grid of 1 to 96 a side (each side at most 24 half the time) or of 64
    to 96 a side as in the evaluation corpus. Each map is continuous, of
    1-4 levels with 0.0 and -0.0 side by side, constant or all zero;
    `shapes` and `kinds` narrow the draw. On a map of at most 24 x 24
    pixels, half the fixations are every pixel but 0-7; else they are 1-8
    points, half the time at most 4, since the pairwise count costs P x N.
    Up to 4 repeats of drawn points follow."""
    shape = draw(st.sampled_from(shapes))
    if shape == "row":
        h, w = 1, draw(st.integers(1, 40))
    elif shape == "column":
        h, w = draw(st.integers(1, 40)), 1
    else:
        side = st.integers(64, 96) if shape == "corpus" else st.integers(1, 24) | st.integers(1, 96)
        h, w = draw(side), draw(side)
    n = h * w
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def one():
        kind = draw(st.sampled_from(kinds))
        if kind == "continuous":
            return smap(rng.random((h, w), dtype=np.float32))
        if kind == "levels":
            levels = draw(st.integers(1, 4))
            arr = rng.integers(0, levels, (h, w)) / max(levels - 1, 1)
            arr[(arr == 0) & rng.integers(0, 2, (h, w), dtype=bool)] = -0.0
            return smap(arr)
        return smap(np.full((h, w), 0.3 if kind == "constant" else 0.0))

    pixel = st.integers(0, n - 1)
    if n <= 24 * 24 and draw(st.booleans()):
        skip = set(draw(st.lists(pixel, max_size=min(7, n - 1))))
        flat = [i for i in range(n) if i not in skip]
    else:
        flat = draw(st.lists(pixel, min_size=1, max_size=draw(st.sampled_from([4, 8]))))
    flat += [flat[j] for j in draw(st.lists(st.integers(0, len(flat) - 1), max_size=4))]
    return one(), FixationSet((i % w, i // w) for i in flat), one()


def pairwise_count(pred, fix):
    """mann_whitney over the fixated pixels, each counted once, and the
    others; or the error auc_judd raises when every pixel is fixated."""
    fixated = {y * pred.width + x for x, y in fix.points}
    values = pred.to_array().ravel().tolist()
    pos = [v for i, v in enumerate(values) if i in fixated]
    neg = [v for i, v in enumerate(values) if i not in fixated]
    return mann_whitney(pos, neg) if neg else ("ValueError", "auc_judd needs at least one non-fixated pixel")


@given(maps(kinds=("levels", "constant", "zero")))
@settings(max_examples=300, deadline=None)
def test_auc_equals_pairwise_count_with_heavy_ties(case):
    pred, fix, _ = case
    assert outcome(auc_judd, pred, fix) == pairwise_count(pred, fix)


@given(maps(shapes=("corpus",), kinds=("continuous",)))
@settings(max_examples=60, deadline=None)
def test_auc_equals_pairwise_count_on_continuous_maps(case):
    pred, fix, _ = case
    assert auc_judd(pred, fix) == pairwise_count(pred, fix)


@pytest.mark.parametrize("levels", [None, 5])
@pytest.mark.parametrize("nneg", [1, 2, 7])
def test_auc_with_almost_every_pixel_fixated(levels, nneg):
    # P close to N: each fixated value is ranked in a long sorted map
    rng = np.random.default_rng(nneg)
    arr = rng.random((24, 24), dtype=np.float32)
    if levels is not None:
        arr = np.floor(arr * levels) / levels  # heavy ties
    flat = [int(i) for i in rng.permutation(arr.size)[nneg:]]
    pred, fix = smap(arr), FixationSet((i % 24, i // 24) for i in flat + flat[:3])
    assert auc_judd(pred, fix) == pairwise_count(pred, fix)


@given(maps())
@settings(max_examples=400, deadline=None)
def test_auc_equals_the_previous_implementation(case):
    pred, fix, _ = case
    assert outcome(auc_judd, pred, fix) == outcome(reference_auc_judd, pred, fix)


@given(maps(shapes=("row", "column", "grid")))
@settings(max_examples=300, deadline=None)
def test_nss_equals_its_per_fixation_reference(case):
    pred, fix, _ = case
    assert outcome(nss, pred, fix) == outcome(reference_nss, pred, fix)


@given(maps())
@settings(max_examples=200, deadline=None)
def test_nss_and_sim_equal_their_reference_forms(case):
    pred, fix, truth = case
    assert outcome(nss, pred, fix) == outcome(reference_nss, pred, fix)
    assert outcome(sim, pred, truth) == outcome(reference_sim, pred, truth)


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
