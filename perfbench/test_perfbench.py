"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from retouchkit import metrics  # noqa: E402
from retouchkit.media_io import FloatGrid, write_float_grid  # noqa: E402
from retouchkit.saliency import SaliencyMap  # noqa: E402

import run  # noqa: E402
import scenes  # noqa: E402
import stub  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times, union_length  # noqa: E402


def _same_pool(a: scenes.ScenePool, b: scenes.ScenePool) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a.images + a.fields, b.images + b.fields))


def test_generators_are_deterministic_per_seed():
    assert _same_pool(scenes.rgb_pool(5), scenes.rgb_pool(5))
    assert not _same_pool(scenes.rgb_pool(5), scenes.rgb_pool(6))
    assert _same_pool(scenes.dense_pool(5), scenes.dense_pool(5))
    a, b, c = scenes.corpus(5), scenes.corpus(5), scenes.corpus(6)
    assert [(i.line, i.pred_fsal, i.diagnoses) for i in a] == [(i.line, i.pred_fsal, i.diagnoses) for i in b]
    assert [i.pred_fsal for i in a] != [i.pred_fsal for i in c]
    pool = scenes.rgb_pool(5)
    for k in (0, 3, 64, 1000):
        img1, f1 = pool.item(k)
        img2, f2 = pool.item(k)
        assert np.array_equal(img1, img2) and np.array_equal(f1, f2)
    # item k and item k + POOL_SIZE share a base scene but not their pixels
    assert not np.array_equal(pool.item(3)[1], pool.item(3 + scenes.POOL_SIZE)[1])


def test_corpus_size_mix_is_the_same_for_every_seed():
    def sides(seed):
        return sorted(json.loads(i.line)["width"] for i in scenes.corpus(seed)[:18])

    assert sides(1) == sides(2) == sorted(2 * list(scenes.CORPUS_SIDES))


def test_union_and_self_time_arithmetic():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == 10.0
    spans = [
        Span("root", 0.0, 10.0, None, 0, 1),
        Span("a", 1.0, 3.0, 0, 0, 1),
        Span("b", 2.0, 5.0, 0, 0, 1),  # overlaps a: counted once
        Span("c", 9.0, 12.0, 0, 0, 1),  # clipped to the parent
        Span("a.child", 1.5, 2.5, 1, 0, 1),
    ]
    assert self_times(spans) == [10.0 - 4.0 - 1.0, 2.0 - 1.0, 3.0, 3.0, 1.0]


def test_tracer_nests_spans_and_sums_self_times():
    tracer = Tracer()
    tracer.set_image(7)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent is None and inner.image == 7
    total, own = tracer.totals()
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert tracer.coverage(outer.start, outer.end) == pytest.approx(1.0)


def test_pairwise_auc_matches_auc_judd_with_ties():
    item = scenes.corpus(3)[0]
    (rec,) = workloads.dataset.parse_dataset(item.line)
    grid = np.frombuffer(item.pred_fsal[item.pred_fsal.index(b"\n") + 1 :], "<f4")
    # a map with heavy ties, so the half-credit path is exercised
    tied = np.round(grid.reshape(rec.height, rec.width) * 4) / 4
    tied_item = scenes.CorpusItem(
        item.line, item.image_id, write_float_grid(FloatGrid.from_array(tied.astype(np.float32))), ()
    )
    for it in (item, tied_item):
        body = it.pred_fsal[it.pred_fsal.index(b"\n") + 1 :]
        pred = SaliencyMap.from_array(np.frombuffer(body, "<f4").reshape(rec.height, rec.width))
        _, fix = workloads.dataset.ground_truth_map(rec)
        assert workloads.pairwise_auc(it) == metrics.auc_judd(pred, fix)


def test_stub_matches_in_process_mocks():
    work = workloads.LoopHttp(seed=4)
    try:
        # a scene whose first request is answered 503, so the retry path runs
        k = next(k for k in range(1000) if scenes.fault_phase(4, k) == 0)
        results = {j: work.run_item(j, "test") for j in (0, k)}
        assert all(o.ok and o.stop == "converged" for o in results.values())
        assert work.check(results) == []
        stats = work.stub_stats()
        assert stats["failed"] >= 1 and stats["requests"] > stats["failed"]
    finally:
        proc = work.proc
        work.close()
    assert proc.returncode is not None


def test_stub_refuses_dropped_scenes():
    backend = stub.StubBackend(seed=4)
    assert backend._scene("t", 0) is not None
    assert backend._scene("t", stub.SCENE_WINDOW + 5) is not None
    assert backend._scene("t", 0) is None
    status, _ = backend.handle("/s/t/0/v1/perceive", b"{}")
    assert status == 410


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # loop_http runs on demand only; see README.md
    assert [w["name"] for w in spec["workloads"]] == ["loop_mock_dense", "eval_corpus"]
    assert set(workloads.WORKLOADS) == {"loop_mock_dense", "loop_http", "eval_corpus"}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_mock_dense_item_is_reproducible():
    work = workloads.LoopMockDense(seed=2)
    a = work.run_item(5, "timed")
    b = work.run_item(5, "timed")
    assert a.ok and a.digest == b.digest and a.actions > 50
