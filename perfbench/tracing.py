"""In-memory spans recorded from outside the program.

Spans are opened by the benchmark around its own calls into retouchkit, by
proxies around the provider objects the benchmark builds, and by replacing
the public functions that `loop`, `providers` and `metrics` look up by
module name (see `instrument`). Nothing under src/ is edited.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

from retouchkit import dataset, loop, media_io, metrics, providers, textmetrics


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]  # index into Tracer.spans
    image: Optional[int]
    thread: int


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in children.get(i, ())]
        out.append((s.end - s.start) - union_length((a, b) for a, b in clipped if b > a))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()

    def set_image(self, image: Optional[int]) -> None:
        self._local.image = image

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            idx = len(self.spans)
            self.spans.append(
                Span(
                    name,
                    0.0,
                    0.0,
                    stack[-1] if stack else None,
                    getattr(self._local, "image", None),
                    threading.get_ident(),
                )
            )
        stack.append(idx)
        rec = self.spans[idx]
        rec.start = time.perf_counter()
        try:
            yield
        finally:
            rec.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        """`fn` inside a span named `name`; `on_result(result, *args)` runs
        after the span closes, to add counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result, *args)
            return result

        return traced

    # --- summaries -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(inclusive seconds, self seconds) per span name."""
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self_times(self.spans)):
            total[s.name] += s.end - s.start
            self_s[s.name] += own
        return dict(total), dict(self_s)

    def coverage(self, start: float, end: float) -> float:
        """Share of [start, end) that root spans cover."""
        roots = [(max(s.start, start), min(s.end, end)) for s in self.spans if s.parent is None]
        return union_length(iv for iv in roots if iv[1] > iv[0]) / (end - start)

    def to_json(self) -> dict:
        total, self_s = self.totals()
        return {
            "totals_s": total,
            "self_s": self_s,
            "counts": dict(self.counts),
            "spans": [
                [s.name, s.start, s.end, s.parent, s.image, s.thread] for s in self.spans
            ],
        }

    # --- providers -------------------------------------------------------

    def providers(self, provs):
        """Duck-typed proxies around the provider objects of a LoopProviders,
        one span per perceive / diagnose / inpaint call."""

        def count(name):
            return lambda result, *args: self.count(name)

        return loop.LoopProviders(
            perception=SimpleNamespace(
                perceive=self.wrap(
                    "providers.perceive", provs.perception.perceive, count("providers.perceive_calls")
                )
            ),
            reasoning=SimpleNamespace(
                diagnose=self.wrap(
                    "providers.diagnose", provs.reasoning.diagnose, count("providers.diagnose_calls")
                )
            ),
            tools=[
                SimpleNamespace(
                    descriptor=tool.descriptor,
                    inpaint=self.wrap(
                        "providers.inpaint", tool.inpaint, count("providers.inpaint_calls")
                    ),
                )
                for tool in provs.tools
            ],
        )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Replace the module-level functions the program and the benchmark look
    up by name with traced versions; restore them on exit."""

    def proposals(result, *args):
        tracer.count("saliency.propose_masks_calls")
        tracer.count("saliency.regions", len(result))
        tracer.count("saliency.mask_bytes", sum(r.mask.nbytes for r in result))

    def encoded(result, *args):
        tracer.count("media_io.encode_bytes", len(result))

    def decoded(result, data, *args):
        tracer.count("media_io.decode_bytes", len(data))

    def pairs(result, preds, *args):
        tracer.count("textmetrics.pairs", len(preds))

    table = [
        (loop, "propose_masks", "saliency.propose_masks", proposals),
        (providers, "write_pnm", "media_io.encode", encoded),
        (providers, "write_float_grid", "media_io.encode", encoded),
        (providers, "read_pnm", "media_io.decode", decoded),
        (providers, "read_float_grid", "media_io.decode", decoded),
        (media_io, "read_float_grid", "media_io.decode", decoded),
        (metrics, "evaluate_all", "metrics.evaluate_all", None),
        (metrics, "auc_judd", "metrics.auc_judd", None),
        (metrics, "nss", "metrics.nss", None),
        (metrics, "cc", "metrics.cc", None),
        (metrics, "sim", "metrics.sim", None),
        (metrics, "kld", "metrics.kld", None),
        (dataset, "parse_dataset", "dataset.parse", None),
        (dataset, "ground_truth_map", "dataset.ground_truth_map", None),
        (textmetrics, "evaluate_reasoning", "textmetrics.evaluate_reasoning", pairs),
    ]
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in table]
    try:
        for mod, attr, name, on_result in table:
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), on_result))
        yield tracer
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
