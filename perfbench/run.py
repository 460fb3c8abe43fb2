"""retouchkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program under test is ./src/retouchkit.
Workloads: loop_mock_dense, loop_http, eval_corpus (see README.md here).

--trace 0: set up SETUP_REPEATS times (setup_s is their median), then run a
closed loop for S seconds and at least MIN_ITEMS images, untraced, and print
the end-to-end metrics.

--trace 1: set up once, run the same untraced window (the base of the
tracing overhead), then a traced pass over a fixed set of images (the same
images for every run with this seed, so counts repeat exactly) and print the
per-layer metrics. Spans are written to perfbench/out/.

Both modes check the program's outputs; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
WARMUP_ITEMS = 2
WARMUP_BASE = 1_000_000  # item indices of the warm-up, apart from measured ones
MIN_ITEMS = 100  # so latency_p90_s has at least 10 samples beyond it
TRACED_ITEMS = 100  # the traced pass runs items 0..TRACED_ITEMS-1
TIME_CAP = 3.0  # a timed window never runs past TIME_CAP x --seconds

END_TO_END = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("peak_rss_mb", "MB"),
]

STOP_REASONS = ("converged", "max_iterations", "provider_error")

PER_LAYER = [
    ("saliency.propose_masks_s", "s"),
    ("saliency.propose_masks_calls", "count"),
    ("saliency.regions", "count"),
    ("saliency.mask_bytes", "bytes"),
    ("providers.perceive_s", "s"),
    ("providers.perceive_calls", "count"),
    ("providers.diagnose_s", "s"),
    ("providers.diagnose_calls", "count"),
    ("providers.inpaint_s", "s"),
    ("providers.inpaint_calls", "count"),
    ("providers.requests", "count"),
    ("providers.retries", "count"),
    ("providers.failed", "count"),
    ("providers.bytes_sent", "bytes"),
    ("providers.bytes_received", "bytes"),
    ("providers.stub_service_s", "s"),
    ("media_io.encode_s", "s"),
    ("media_io.decode_s", "s"),
    ("media_io.encode_bytes", "bytes"),
    ("media_io.decode_bytes", "bytes"),
    ("metrics.evaluate_all_s", "s"),
    ("metrics.auc_judd_s", "s"),
    ("metrics.nss_s", "s"),
    ("metrics.cc_s", "s"),
    ("metrics.sim_s", "s"),
    ("metrics.kld_s", "s"),
    ("metrics.pixels", "count"),
    ("metrics.distinct_values", "count"),
    ("textmetrics.evaluate_reasoning_s", "s"),
    ("textmetrics.pairs", "count"),
    ("dataset.parse_s", "s"),
    ("dataset.ground_truth_map_s", "s"),
    ("loop.run_s", "s"),
    ("loop.self_s", "s"),
    ("loop.iterations", "count"),
    ("loop.actions", "count"),
    *[("loop.stop.%s" % r, "count") for r in STOP_REASONS],
    ("loop.stop.other", "count"),
    ("loop.errors", "count"),
    ("trace.items", "count"),
    ("trace.items_per_s", "1/s"),
    ("trace.overhead", "share"),
    ("trace.coverage", "share"),
    ("trace.spans", "count"),
]


def closed_loop(work, phase, tracer=None, seconds=None, items=None):
    """One client runs its next item as soon as its last one returns. Stops
    after `items` items, or once `seconds` have passed and MIN_ITEMS items
    are done. Returns (results by item index, wall seconds).

    One client, not two: on a shared 2-core VM a second client thread made
    the spread between runs about 1.5x wider, as GIL hand-offs amplify every
    slow phase of the host. The checks still run two clients concurrently.
    Call it through in_client_thread."""
    results = {}
    start = time.perf_counter()
    for k in itertools.count():
        if items is not None:
            if k >= items:
                break
        else:
            elapsed = time.perf_counter() - start
            if elapsed >= TIME_CAP * seconds or (elapsed >= seconds and k >= MIN_ITEMS):
                break
        if tracer is not None:
            tracer.set_image(k)
        results[k] = work.run_item(k, phase, tracer)
    return results, time.perf_counter() - start


def in_client_thread(fn, *args):
    """fn(*args) on a fresh thread, as a client thread of run_batch runs.
    On the main thread the same loop_mock_dense work ran about 1.5x slower:
    glibc trims the main heap, so the 64 KB region masks fault their pages
    in again (600k against 40k minor faults over 20 images)."""
    out = []

    def client():
        try:
            out.append((True, fn(*args)))
        except BaseException as exc:  # re-raised in the calling thread
            out.append((False, exc))

    thread = threading.Thread(target=client)
    thread.start()
    thread.join()
    ok, value = out[0]
    if not ok:
        raise value
    return value


def set_up(cls, seed):
    """Build the workload (inputs, providers, stub) and warm it up."""
    start = time.perf_counter()
    work = cls(seed)
    try:
        for i in range(WARMUP_ITEMS):
            work.run_item(WARMUP_BASE + i, "warmup")
    except BaseException:
        work.close()
        raise
    return work, time.perf_counter() - start


def cpu_steal():
    """(steal, total) jiffies of the whole machine, from /proc/stat; (0, 0)
    where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = [int(v) for v in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def summarize(results):
    ok = [o for o in results.values() if o.ok]
    return ok, len(results) - len(ok)


def end_to_end(results, wall, setup_times, rss_mb):
    ok, failed = summarize(results)
    lat = sorted(o.latency_s for o in ok)
    if len(lat) < 2:
        raise RuntimeError("%d of %d images failed; no latency to report" % (failed, len(results)))
    v = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": len(ok) / wall,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10)[8],
        "peak_rss_mb": rss_mb,
    }
    lines = [
        "setup_s %.4f s (median of %d set-ups: %s)"
        % (v["setup_s"], len(setup_times), " ".join("%.3f" % t for t in setup_times)),
        "items_per_s %.4f 1/s (%d images completed in %.3f s)" % (v["items_per_s"], len(ok), wall),
        "latency_p50_s %.5f s (n=%d)" % (v["latency_p50_s"], len(lat)),
        "latency_p90_s %.5f s (n=%d, %d beyond)"
        % (v["latency_p90_s"], len(lat), sum(1 for t in lat if t > v["latency_p90_s"])),
        "failed_share %.6f (%d failed of %d attempted)" % (failed / len(results), failed, len(results)),
        "peak_rss_mb %.2f MB" % rss_mb,
    ]
    return v, lines


def per_layer(tracer, results, wall, stub, base_items_per_s, coverage):
    total, self_s = tracer.totals()
    c = tracer.counts
    ok, _ = summarize(results)
    stops = Counter(o.stop for o in results.values() if o.stop is not None)
    calls = c["providers.perceive_calls"] + c["providers.diagnose_calls"] + c["providers.inpaint_calls"]
    traced_ips = len(ok) / wall
    values = {
        "saliency.propose_masks_s": total.get("saliency.propose_masks", 0.0),
        "providers.perceive_s": total.get("providers.perceive", 0.0),
        "providers.diagnose_s": total.get("providers.diagnose", 0.0),
        "providers.inpaint_s": total.get("providers.inpaint", 0.0),
        "providers.requests": stub.get("requests", 0),
        "providers.retries": stub.get("requests", 0) - calls if stub else 0,
        "providers.failed": stub.get("failed", 0),
        "providers.bytes_sent": stub.get("bytes_in", 0),
        "providers.bytes_received": stub.get("bytes_out", 0),
        "providers.stub_service_s": stub.get("service_s", 0.0),
        "media_io.encode_s": total.get("media_io.encode", 0.0),
        "media_io.decode_s": total.get("media_io.decode", 0.0),
        "metrics.evaluate_all_s": total.get("metrics.evaluate_all", 0.0),
        "metrics.auc_judd_s": total.get("metrics.auc_judd", 0.0),
        "metrics.nss_s": total.get("metrics.nss", 0.0),
        "metrics.cc_s": total.get("metrics.cc", 0.0),
        "metrics.sim_s": total.get("metrics.sim", 0.0),
        "metrics.kld_s": total.get("metrics.kld", 0.0),
        "textmetrics.evaluate_reasoning_s": total.get("textmetrics.evaluate_reasoning", 0.0),
        "dataset.parse_s": total.get("dataset.parse", 0.0),
        "dataset.ground_truth_map_s": total.get("dataset.ground_truth_map", 0.0),
        "loop.run_s": total.get("loop.run", 0.0),
        "loop.self_s": self_s.get("loop.run", 0.0),
        "loop.iterations": sum(o.iterations for o in results.values()),
        "loop.actions": sum(o.actions for o in results.values()),
        "loop.stop.other": sum(n for r, n in stops.items() if r not in STOP_REASONS),
        "loop.errors": sum(1 for o in results.values() if o.error is not None),
        "trace.items": len(results),
        "trace.items_per_s": traced_ips,
        "trace.overhead": 1.0 - traced_ips / base_items_per_s,
        "trace.coverage": coverage,
        "trace.spans": len(tracer.spans),
    }
    for reason in STOP_REASONS:
        values["loop.stop.%s" % reason] = stops.get(reason, 0)
    for name, _ in PER_LAYER:
        values.setdefault(name, c.get(name, 0))
    lines = ["span %-34s total %.4f s  self %.4f s" % (n, total[n], self_s[n]) for n in sorted(total)]
    return values, lines


def same_outputs(a, b):
    """Items both result sets hold must have equal outputs."""
    bad = []
    for k in sorted(set(a) & set(b)):
        x, y = a[k], b[k]
        if (x.digest, x.report, x.reasoning) != (y.digest, y.report, y.reasoning):
            bad.append("item %d: traced output differs from untraced" % k)
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="retouchkit benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "retouchkit" / "__init__.py").is_file():
        print("perfbench: no src/retouchkit under %s" % ROOT, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads.WORKLOADS)))
    cls = workloads.WORKLOADS[args.workload]
    print("workload %s seed %d seconds %g trace %d" % (cls.name, args.seed, args.seconds, args.trace))

    if args.trace == 0:
        setup_times = []
        for i in range(SETUP_REPEATS):
            if i:
                work.close()
                del work  # so the next set-up does not run beside this one's inputs
            gc.collect()
            work, elapsed = in_client_thread(set_up, cls, args.seed)
            setup_times.append(elapsed)
        try:
            steal0 = cpu_steal()
            results, wall = in_client_thread(closed_loop, work, "timed", None, args.seconds)
            steal1 = cpu_steal()
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems = work.check(results)
        finally:
            work.close()
        values, lines = end_to_end(results, wall, setup_times, rss_mb)
        # not a metric: the share of CPU time a hypervisor stole during the
        # window, which explains most run-to-run spread on a shared VM
        stolen, total = (b - a for a, b in zip(steal0, steal1))
        lines.append("cpu_steal_share %.4f (whole machine, during the window)" % (stolen / total if total else 0.0))
        units = dict(END_TO_END)
    else:
        work, _ = in_client_thread(set_up, cls, args.seed)
        try:
            base, base_wall = in_client_thread(closed_loop, work, "timed", None, args.seconds)
            tracer = tracing.Tracer()
            before = work.stub_stats()
            with tracing.instrument(tracer):
                start = time.perf_counter()
                results, wall = in_client_thread(closed_loop, work, "traced", tracer, None, TRACED_ITEMS)
                coverage = tracer.coverage(start, start + wall)
            after = work.stub_stats()
            problems = work.check(base) + same_outputs(base, results)
        finally:
            work.close()
        stub = {k: after[k] - before[k] for k in after}
        base_ips = len(summarize(base)[0]) / base_wall
        values, lines = per_layer(tracer, results, wall, stub, base_ips, coverage)
        units = dict(PER_LAYER)
        OUT.mkdir(exist_ok=True)
        path = OUT / ("trace-%s-seed%d.json" % (cls.name, args.seed))
        path.write_text(json.dumps(dict(tracer.to_json(), workload=cls.name, seed=args.seed)))
        lines.append("spans written to %s" % path.relative_to(ROOT))

    for line in lines:
        print(line)
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    _, failed = summarize(results)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
