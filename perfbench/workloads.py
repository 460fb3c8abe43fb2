"""The three workloads: set-up, one item of work, and the correctness checks.

Every call into retouchkit goes through a module attribute (`loop.run_loop`,
`metrics.evaluate_all`, ...), so `tracing.instrument` can trace it without
editing the program.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import requests

from retouchkit import dataset, loop, media_io, metrics, textmetrics
from retouchkit.media_io import ImageBuffer, write_pnm
from retouchkit.providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    MockInpaintTool,
    MockPerceptionProvider,
    MockReasoningProvider,
    SyntheticScene,
    ToolDescriptor,
    http_provider,
)
from retouchkit.saliency import SaliencyMap

import scenes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

LOOP_CONFIG = loop.LoopConfig(tau_s=0.5, max_iterations=3, dilation_radius=1, min_area=4)
MASK_TOOL = ToolDescriptor(name="inpaint-mask", kind=MASK_GUIDED)
TEXT_TOOL = ToolDescriptor(name="inpaint-instruct", kind=INSTRUCTION_DRIVEN)
PROMPT = "retouch the distorted regions"
CHECK_SAMPLES = 6


@dataclass
class Outcome:
    """One image. `ok` is False for a provider_error stop or an exception."""

    ok: bool
    latency_s: float
    stop: Optional[str] = None  # loop stop reason; None if run_loop raised
    error: Optional[str] = None  # exception that escaped the program
    digest: Optional[str] = None  # loop: trace JSON + final image
    iterations: int = 0
    actions: int = 0
    report: Optional[metrics.MetricReport] = None
    reasoning: Optional[textmetrics.ReasoningReport] = None


def trace_digest(trace: loop.LoopTrace) -> str:
    h = hashlib.sha256(loop.trace_to_json(trace).encode())
    h.update(write_pnm(trace.final_image))
    return h.hexdigest()


def mock_providers(image: np.ndarray, fld: np.ndarray, seed: int) -> loop.LoopProviders:
    """In-process mocks over one scene: both tool kinds, as the paper's loop."""
    scene = SyntheticScene(ImageBuffer.from_array(image), fld, decay=scenes.DECAY)
    return loop.LoopProviders(
        perception=MockPerceptionProvider(scene),
        reasoning=MockReasoningProvider(seed),
        tools=[MockInpaintTool(scene, MASK_TOOL), MockInpaintTool(scene, TEXT_TOOL)],
    )


def run_loop_item(image: ImageBuffer, provs: loop.LoopProviders, tracer) -> Outcome:
    if tracer is not None:
        provs = tracer.providers(provs)
    start = time.perf_counter()
    try:
        if tracer is None:
            trace = loop.run_loop(image, PROMPT, provs, LOOP_CONFIG)
        else:
            with tracer.span("loop.run"):
                trace = loop.run_loop(image, PROMPT, provs, LOOP_CONFIG)
    except Exception as exc:  # counted as a failed image, never fatal
        return Outcome(False, time.perf_counter() - start, error="%s: %s" % (type(exc).__name__, exc),
                       digest="error")
    latency = time.perf_counter() - start
    return Outcome(
        ok=trace.stop_reason != loop.STOP_PROVIDER_ERROR,
        latency_s=latency,
        stop=trace.stop_reason,
        digest=trace_digest(trace),
        iterations=len(trace.records),
        actions=sum(len(r.actions) for r in trace.records),
    )


def _sample(results: dict[int, Outcome]) -> list[int]:
    ks = sorted(results)
    step = max(1, len(ks) // CHECK_SAMPLES)
    return sorted(set(ks[::step][:CHECK_SAMPLES] + ks[-1:]))


class LoopMockDense:
    """run_loop calls over in-process mocks on dense fields."""

    name = "loop_mock_dense"

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = scenes.dense_pool(seed)

    def providers(self, k: int, phase: str):
        image, fld = self.pool.item(k)
        return ImageBuffer.from_array(image), mock_providers(image, fld, self.seed)

    def run_item(self, k: int, phase: str, tracer=None) -> Outcome:
        image, provs = self.providers(k, phase)
        return run_loop_item(image, provs, tracer)

    def stub_stats(self) -> dict:
        return {}

    def check(self, results: dict[int, Outcome]) -> list[str]:
        """Sampled items are run again by two concurrent clients and once on
        in-process mocks; all three trace digests must agree. So neither the
        interleaving of two clients nor (on loop_http) the wire, the retries
        and the stub change any output."""
        sample = _sample(results)
        with ThreadPoolExecutor(max_workers=2) as pool:
            again = dict(zip(sample, pool.map(lambda k: self.run_item(k, "check"), sample)))
        problems = []
        for k in sample:
            image, fld = self.pool.item(k)
            ref = run_loop_item(ImageBuffer.from_array(image), mock_providers(image, fld, self.seed), None)
            if not ref.digest == results[k].digest == again[k].digest:
                problems.append("%s item %d: trace differs between runs" % (self.name, k))
        return problems

    def close(self) -> None:
        pass


class LoopHttp(LoopMockDense):
    """The same closed loop against Http* providers and the loopback stub."""

    name = "loop_http"

    def __init__(self, seed: int):
        self.seed = seed
        self.pool = scenes.rgb_pool(seed)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH_DIR)]))
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "stub.py"), "--seed", str(seed)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            cwd=str(ROOT),
        )
        try:
            port = int(self.proc.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("loopback stub did not start")
        self.base = "http://127.0.0.1:%d" % port

    def providers(self, k: int, phase: str):
        image, _ = self.pool.item(k)
        endpoint = "%s/s/%s/%d" % (self.base, phase, k)
        provs = loop.LoopProviders(
            perception=http_provider(endpoint, "perception"),
            reasoning=http_provider(endpoint, "reasoning"),
            tools=[
                http_provider(endpoint, "inpaint", descriptor=MASK_TOOL),
                http_provider(endpoint, "inpaint", descriptor=TEXT_TOOL),
            ],
        )
        return ImageBuffer.from_array(image), provs

    def stub_stats(self) -> dict:
        return requests.get(self.base + "/stats", timeout=30).json()

    def close(self) -> None:
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=10)
        finally:
            self.proc.stdout.close()
            self.proc = None


class EvalCorpus:
    """One client walks the corpus: what evaluate-saliency and
    evaluate-reasoning do for each image."""

    name = "eval_corpus"
    cli_items = 20  # corpus prefix re-evaluated by the CLI in the check
    auc_items = 4  # images whose AUC is recomputed pairwise

    def __init__(self, seed: int):
        self.seed = seed
        self.corpus = scenes.corpus(seed)

    def run_item(self, k: int, phase: str, tracer=None) -> Outcome:
        item = self.corpus[k % len(self.corpus)]
        start = time.perf_counter()
        try:
            (rec,) = dataset.parse_dataset(item.line)
            pred = SaliencyMap(media_io.read_float_grid(item.pred_fsal))
            truth, fix = dataset.ground_truth_map(rec)
            if tracer is not None:
                # outside the evaluate_all span, so it does not inflate it
                arr = pred.to_array()
                tracer.count("metrics.pixels", arr.size)
                tracer.count("metrics.distinct_values", np.unique(arr).size)
            report = metrics.evaluate_all(pred, truth, fix)
            reasoning = textmetrics.evaluate_reasoning(item.diagnoses, rec.regions)
        except Exception as exc:  # counted as a failed image, never fatal
            return Outcome(False, time.perf_counter() - start, error="%s: %s" % (type(exc).__name__, exc))
        return Outcome(True, time.perf_counter() - start, report=report, reasoning=reasoning)

    def stub_stats(self) -> dict:
        return {}

    def check(self, results: dict[int, Outcome]) -> list[str]:
        problems = []
        for k in range(min(self.auc_items, len(results))):
            got = results[k].report.auc_judd if results[k].ok else None
            if got != pairwise_auc(self.corpus[k]):
                problems.append("eval_corpus item %d: auc_judd %r != pairwise count" % (k, got))
        n = min(self.cli_items, len(results))  # items 0..len-1 all ran
        if not all(results[k].ok for k in range(n)):
            return problems + ["eval_corpus: an image of the CLI prefix failed"]
        reports = [results[k].report for k in range(n)]
        want = [metrics.TSV_HEADER]
        want += ["%s\t%s" % (self.corpus[k].image_id, r.as_tsv_row()) for k, r in enumerate(reports)]
        want.append("aggregate\t%s" % metrics.aggregate_reports(reports).as_tsv_row())
        got = self.evaluate_saliency_cli(n)
        if got != want:
            problems.append("eval_corpus: evaluate-saliency TSV differs from the benchmark's reports")
        return problems

    def evaluate_saliency_cli(self, n: int) -> list[str]:
        """`retouchkit evaluate-saliency` over the first n corpus images,
        written to a temporary directory inside the checkout."""
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="corpus-", dir=out))
        try:
            (tmp / "corpus.jsonl").write_bytes(b"\n".join(it.line for it in self.corpus[:n]) + b"\n")
            for it in self.corpus[:n]:
                (tmp / ("%s.fsal" % it.image_id)).write_bytes(it.pred_fsal)
            proc = subprocess.run(
                [sys.executable, "-m", "retouchkit.cli", "evaluate-saliency",
                 str(tmp / "corpus.jsonl"), "--pred-dir", str(tmp)],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=str(SRC)),
                cwd=str(ROOT),
            )
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return proc.stdout.splitlines() if proc.returncode == 0 else ["exit %d" % proc.returncode]

    def close(self) -> None:
        pass


def pairwise_auc(item: scenes.CorpusItem) -> float:
    """AUC-Judd as a Mann-Whitney count written independently of
    metrics.auc_judd: each (fixated, other) pixel pair scores 2 if the
    fixated pixel is higher, 1 on a tie; one division at the end."""
    values = np.frombuffer(item.pred_fsal[item.pred_fsal.index(b"\n") + 1 :], dtype="<f4")
    (rec,) = dataset.parse_dataset(item.line)
    flat = sorted({y * rec.width + x for x, y in (r.center for r in rec.regions)})
    is_pos = np.zeros(values.size, dtype=bool)
    is_pos[flat] = True
    pos, neg = values[is_pos], values[~is_pos]
    count = 0
    for p in pos:
        count += 2 * int((neg < p).sum()) + int((neg == p).sum())
    return count / (2 * pos.size * neg.size)


WORKLOADS = {cls.name: cls for cls in (LoopMockDense, LoopHttp, EvalCorpus)}
