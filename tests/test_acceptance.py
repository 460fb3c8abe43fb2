"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line; run pytest with `-s` to see the lines. The oracles are the
unit modules' own, imported from there, so each check has one copy.
"""

import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from retouchkit.alignment import LoraFactors, lora_delta
from retouchkit.checks import run_all_checks
from retouchkit.dataset import (
    DistortionCategory,
    RegionAnnotation,
    compute_stats,
    parse_dataset,
    rasterize_region,
    reconcile_majority,
    region_radius,
)
from retouchkit.loop import LoopConfig, run_batch, run_loop, trace_to_json
from retouchkit.media_io import (
    FloatGrid,
    ImageBuffer,
    MediaFormatError,
    read_float_grid,
    read_pnm,
    write_float_grid,
    write_pnm,
)
from retouchkit.metrics import FixationSet, auc_judd, cc, kld, nss, sim
from retouchkit.providers import MAX_IN_FLIGHT, http_provider
from retouchkit.saliency import hybrid_loss, hybrid_loss_gradient
from fake_backend import Delay, FakeBackend, LoopbackServer
from test_alignment import gaussian_elimination_rank
from test_dataset import lattice_count
from test_loop import bump_scene, closed_form_iterations, make_items, providers_for
from test_metrics import mann_whitney, pearson_oracle, reference_sim
from test_saliency import oracle_kld, oracle_loss, smap

DATA = Path(__file__).parent / "data"


def _report(num: int, name: str, passed: bool) -> None:
    print("criterion %02d %-38s %s" % (num, name, "PASS" if passed else "FAIL"))
    assert passed, "criterion %d (%s) failed" % (num, name)


# --- 1: saliency-metric oracle equivalence -------------------------------

def test_criterion_01_metric_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(100)
    ok = True
    for h in range(1, 7):
        for w in range(1, 7):
            pixels = h * w
            if pixels < 2:
                continue
            for n_fix in range(1, min(4, pixels - 1) + 1):
                for _ in range(10):
                    levels = int(rng.integers(1, 6))
                    arr = (rng.integers(0, levels + 1, (h, w)) / levels).astype(np.float32)
                    m = smap(arr)
                    flat_idx = rng.choice(pixels, size=n_fix, replace=False)
                    points = [(int(i % w), int(i // w)) for i in flat_idx]
                    fix = FixationSet(points)
                    p = m.to_array().astype(np.float64)
                    pos_mask = np.zeros((h, w), bool)
                    for x, y in points:
                        pos_mask[y, x] = True
                    want = mann_whitney(list(p[pos_mask]), list(p[~pos_mask]))
                    ok = ok and auc_judd(m, fix) == want
    # distribution metrics vs direct-summation oracles
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(2, 7, 2))
        p = rng.uniform(0.01, 1.0, (h, w)).astype(np.float32)
        g = rng.uniform(0.01, 1.0, (h, w)).astype(np.float32)
        if np.ptp(p) == 0 or np.ptp(g) == 0:
            continue
        P, G = smap(p), smap(g)
        p64 = P.to_array().astype(np.float64)
        g64 = G.to_array().astype(np.float64)
        ok = ok and abs(cc(P, G) - pearson_oracle(list(p64.flat), list(g64.flat))) <= 1e-10
        ok = ok and abs(sim(P, G) - reference_sim(P, G)) <= 1e-10
        ok = ok and abs(kld(P, G) - oracle_kld(p64, g64, 1e-7)) <= 1e-10
    ok = ok and (time.monotonic() - start) < 10.0
    _report(1, "saliency-metric oracle equivalence", ok)


# --- 2: metric invariances -----------------------------------------------

def test_criterion_02_metric_invariances():
    rng = np.random.default_rng(200)
    ok = True
    for _ in range(1000):
        h, w = (int(v) for v in rng.integers(2, 7, 2))
        # dyadic rationals so the affine map is exact in float32
        p = (rng.integers(0, 513, (h, w)) / 1024.0).astype(np.float32)
        g = (rng.integers(0, 513, (h, w)) / 1024.0).astype(np.float32)
        if np.ptp(p) == 0 or np.ptp(g) == 0:
            continue
        a = float(rng.choice([0.25, 0.5]))
        b = float(rng.integers(0, 256)) / 1024.0
        scaled = smap(a * p + b)
        n_fix = int(rng.integers(1, min(4, h * w - 1) + 1))
        idx = rng.choice(h * w, size=n_fix, replace=False)
        fix = FixationSet([(int(i % w), int(i // w)) for i in idx])
        ok = ok and abs(cc(smap(p), smap(g)) - cc(scaled, smap(g))) <= 1e-9
        ok = ok and abs(nss(smap(p), fix) - nss(scaled, fix)) <= 1e-9
        # monotone cube: k/64 grid keeps (k/64)^3 exact and order-preserving
        q = (rng.integers(0, 65, (h, w)) / 64.0).astype(np.float32)
        cubed = (q.astype(np.float64) ** 3).astype(np.float32)
        ok = ok and auc_judd(smap(q), fix) == auc_judd(smap(cubed), fix)
    _report(2, "metric invariances", ok)


# --- 3: hybrid loss ------------------------------------------------------

def test_criterion_03_hybrid_loss():
    rng = np.random.default_rng(300)
    ok = True
    for _ in range(100):
        p = rng.random((4, 4)).astype(np.float32)
        g = rng.random((4, 4)).astype(np.float32)
        if g.sum() == 0:
            continue
        got = hybrid_loss(smap(p), smap(g), 1.0)
        mse = float(((p.astype(np.float64) - g.astype(np.float64)) ** 2).mean())
        ok = ok and abs(got - mse) <= 1e-12
    h = 1e-4
    worst = 0.0
    for _ in range(100):
        # bounded away from 0 so the h=1e-4 truncation error stays small
        p = rng.uniform(0.05, 1.0, (4, 4))
        g = rng.uniform(0.05, 1.0, (4, 4))
        alpha = float(rng.random())
        P, G = smap(p), smap(g)
        p64 = P.to_array().astype(np.float64)
        g64 = G.to_array().astype(np.float64)
        analytic = hybrid_loss_gradient(P, G, alpha).astype(np.float64)
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
    ok = ok and worst <= 1e-4
    _report(3, "hybrid loss value and gradient", ok)


# --- 4: policy-objective suite -------------------------------------------

def test_criterion_04_policy_objective_suite():
    start = time.monotonic()
    results = run_all_checks()
    ok = all(r.passed for r in results) and (time.monotonic() - start) < 5.0
    _report(4, "policy-objective invariance suite", ok)


# --- 5: low-rank adapter rank bound --------------------------------------

def test_criterion_05_lora_rank_bound():
    rng = np.random.default_rng(500)
    ok = True
    for n in (2, 4, 8):
        for m in (2, 4, 8):
            for r in (2, 4, 8):
                if r >= min(n, m):
                    continue
                for _ in range(100):
                    f = LoraFactors(rng.normal(size=(n, r)), rng.normal(size=(r, m)))
                    ok = ok and gaussian_elimination_rank(lora_delta(f)) <= r
    _report(5, "low-rank adapter rank bound", ok)


# --- 6: disc rasterization lattice counts --------------------------------

def test_criterion_06_disc_lattice_counts():
    ok = True
    for height in range(20, 401, 20):
        mask = rasterize_region((height // 2, height // 2), height, height)
        ok = ok and int(mask.sum()) == lattice_count(region_radius(height))
    _report(6, "region disc lattice counts", ok)


# --- 7: majority-vote reconciliation -------------------------------------

HAND = DistortionCategory.LIMB_HAND_DEFORMITY
FACE = DistortionCategory.FACE_DISTORTION


def _region(x, y, cat=HAND, desc="d", annotator="a0"):
    return RegionAnnotation(center=(x, y), category=cat, description=desc, annotator=annotator)


def test_criterion_07_majority_vote():
    ok = True
    # 2-of-3 keep: modal category wins, longest description survives
    out = reconcile_majority(
        [
            [_region(10, 10, HAND, "hand a")],
            [_region(11, 10, HAND, "hand b longer", "a1")],
            [_region(10, 11, FACE, "face c", "a2")],
        ],
        match_radius=5.0,
    )
    ok = ok and len(out) == 1 and out[0].category is HAND and out[0].description == "hand b longer"
    # 1-of-3 drop
    ok = ok and reconcile_majority([[_region(10, 10)], [], []], match_radius=5.0) == []
    # 2-2 tiebreak toward the lower category code
    out = reconcile_majority(
        [
            [_region(10, 10, FACE, "f1")],
            [_region(10, 10, FACE, "f2", "a1")],
            [_region(10, 10, HAND, "h1", "a2")],
            [_region(10, 10, HAND, "h2", "a3")],
        ],
        match_radius=3.0,
    )
    ok = ok and len(out) == 1 and out[0].category is HAND
    # permutation invariance
    import random as _random

    base = [
        [_region(10, 10, HAND, "h"), _region(50, 50, FACE, "f")],
        [_region(11, 11, HAND, "hh", "a1")],
        [_region(9, 10, FACE, "fff", "a2"), _region(51, 50, FACE, "ff", "a2")],
    ]
    want = reconcile_majority(base, match_radius=5.0)
    shuffler = _random.Random(7)
    for _ in range(100):
        shuffled = base[:]
        shuffler.shuffle(shuffled)
        ok = ok and reconcile_majority(shuffled, match_radius=5.0) == want
    _report(7, "majority-vote reconciliation", ok)


# --- 8: loop convergence closed form -------------------------------------

def test_criterion_08_loop_closed_form():
    start = time.monotonic()
    ok = True
    for h in (0.55, 0.65, 0.75, 0.85, 0.95):
        for d in (0.3, 0.45, 0.6, 0.75, 0.9):
            for tau in (0.3, 0.5, 0.7):
                scene = bump_scene(h, d)
                cfg = LoopConfig(tau_s=tau, max_iterations=3, dilation_radius=0, min_area=1)
                trace = run_loop(scene.image, "p", providers_for(scene), cfg)
                ok = ok and len(trace.records) == closed_form_iterations(h, d, tau, 3)
    ok = ok and (time.monotonic() - start) < 5.0
    _report(8, "loop convergence closed form", ok)


# --- 9: determinism and concurrency --------------------------------------

def test_criterion_09_determinism_and_concurrency():
    cfg = LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=0, min_area=1)
    serial = [trace_to_json(t) for t in run_batch(make_items(8), cfg, parallelism=1)]
    parallel = [trace_to_json(t) for t in run_batch(make_items(8), cfg, parallelism=8)]
    ok = serial == parallel

    threads_n = 2 * MAX_IN_FLIGHT
    scene = bump_scene(size=4, at=(1, 1))
    backend = FakeBackend(scene, outcomes=[Delay(0.1)] * threads_n)
    with LoopbackServer(backend) as server:
        provider = http_provider(server.url, "perception")
        image = scene.image
        threads = [
            threading.Thread(target=provider.perceive, args=(image, "p")) for _ in range(threads_n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive()
    ok = ok and backend.calls == threads_n and backend.max_in_flight <= MAX_IN_FLIGHT
    _report(9, "determinism and concurrency", ok)


# --- 10: dataset statistics ----------------------------------------------

def test_criterion_10_dataset_statistics():
    records = parse_dataset((DATA / "synthetic50.jsonl").read_bytes())
    stats = compute_stats(records)
    ok = (
        stats.image_count == 50
        and stats.region_count == 250
        and stats.regions_per_image == 5.0
        and stats.mean_description_words == pytest.approx(3.4, abs=1e-12)
    )
    order = [c.value for c in DistortionCategory]
    for i, name in enumerate(order):
        want = (21 if i < 10 else 20) / 250
        ok = ok and stats.category_histogram.get(name, 0.0) == pytest.approx(want, abs=1e-12)
    full = os.environ.get("RETOUCH_FULL_DATASET")
    if full and Path(full).exists():
        full_stats = compute_stats(parse_dataset(Path(full).read_bytes()))
        ok = ok and full_stats.image_count == 6025 and full_stats.region_count == 27507
        label = "dataset statistics (incl. full corpus)"
    else:
        label = "dataset statistics (full corpus skipped)"
    _report(10, label, ok)


# --- 11: format round-trips ----------------------------------------------

def test_criterion_11_format_round_trips():
    rng = np.random.default_rng(1100)
    ok = True
    for _ in range(1000):
        h, w = (int(v) for v in rng.integers(1, 17, 2))
        img = ImageBuffer.from_array(rng.integers(0, 256, (h, w), dtype=np.uint8))
        data = write_pnm(img)
        ok = ok and write_pnm(read_pnm(data)) == data
        grid = FloatGrid.from_array(rng.random((h, w), dtype=np.float32))
        payload = write_float_grid(grid)
        ok = ok and write_float_grid(read_float_grid(payload)) == payload
    # fuzz: random blobs and mutated valid payloads must fail cleanly
    valid_pnm = write_pnm(ImageBuffer.from_array(np.zeros((4, 4), np.uint8)))
    valid_grid = write_float_grid(FloatGrid.from_array(np.zeros((4, 4), np.float32)))
    for _ in range(500):
        choice = rng.integers(0, 3)
        if choice == 0:
            blob = bytes(rng.integers(0, 256, int(rng.integers(0, 64)), dtype=np.uint8))
        else:
            base = bytearray(valid_pnm if choice == 1 else valid_grid)
            for _ in range(int(rng.integers(1, 4))):
                base[int(rng.integers(0, len(base)))] = int(rng.integers(0, 256))
            blob = bytes(base[: int(rng.integers(1, len(base) + 1))])
        for reader in (read_pnm, read_float_grid):
            try:
                reader(blob)
            except MediaFormatError:
                pass
            except Exception:
                ok = False
    _report(11, "media format round-trips and fuzzing", ok)
