"""Command-line entry point.

Subcommands: run-loop, evaluate-saliency, evaluate-reasoning,
dataset-stats, grpo-check, rasterize, propose-masks.

Machine output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain error (an allocation that fails too), 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import checks, dataset as ds, loop as loop_mod, metrics, providers, textmetrics
from .media_io import ImageBuffer, check_size, read_float_grid, read_pnm, write_pnm
from .saliency import SaliencyMap, propose_masks


def _load(path, parse=ds.parse_dataset):
    """`parse` of the bytes of the input file at `path`; a ValueError names the file."""
    try:
        return parse(Path(path).read_bytes())
    except ValueError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _saliency_map(data: bytes) -> SaliencyMap:
    return SaliencyMap(read_float_grid(data))


def _cmd_dataset_stats(args) -> int:
    stats = ds.compute_stats(_load(args.file))
    if args.json:
        print(json.dumps(dataclasses.asdict(stats), sort_keys=True, indent=2))
    else:
        print("image_count:             %d" % stats.image_count)
        print("region_count:            %d" % stats.region_count)
        print("regions_per_image:       %.4f" % stats.regions_per_image)
        print("mean_description_words:  %.4f" % stats.mean_description_words)
        for cat, share in stats.category_histogram.items():
            print("share[%s]: %.4f" % (cat, share))
    return 0


def _cmd_evaluate_saliency(args) -> int:
    records = _load(args.dataset)
    if not records:
        raise ValueError("empty dataset")
    pred_dir = Path(args.pred_dir)
    # every row is computed before any is printed, so an error leaves no
    # partial table on stdout
    lines = [metrics.TSV_HEADER]
    reports = []
    for rec in records:
        pred = _load(pred_dir / ("%s.fsal" % rec.image_id), _saliency_map)
        # before ground_truth_map allocates a frame of the record's size
        check_size(
            rec.image_id + ": prediction", (pred.width, pred.height), "record", (rec.width, rec.height)
        )
        truth, fix = ds.ground_truth_map(rec, blur_sigma=args.blur_sigma)
        try:
            report = metrics.evaluate_all(pred, truth, fix)
        except ValueError as exc:  # a metric undefined for this image
            raise ValueError("%s: %s" % (rec.image_id, exc)) from None
        reports.append(report)
        lines.append("%s\t%s" % (rec.image_id, report.as_tsv_row()))
    lines.append("aggregate\t%s" % metrics.aggregate_reports(reports).as_tsv_row())
    print("\n".join(lines))
    return 0


def _prediction(obj: dict) -> textmetrics.Diagnosis:
    return textmetrics.Diagnosis(
        region_id=ds.typed(obj["region_id"], str, "region_id"),
        category=ds.DistortionCategory(obj["category"]),
        description=ds.typed(obj["description"], str, "description"),
        severity=float(ds.typed(obj.get("severity", 0.0), float, "severity")),
    )


def _truth_region(obj: dict) -> ds.RegionAnnotation:
    return ds.RegionAnnotation(
        center=(ds.typed(obj.get("x", 0), int, "x"), ds.typed(obj.get("y", 0), int, "y")),
        category=ds.DistortionCategory(obj["category"]),
        description=ds.typed(obj["description"], str, "description"),
        annotator=ds.typed(obj.get("annotator", "truth"), str, "annotator"),
        region_id=ds.typed(obj["region_id"], str, "region_id"),
    )


def _cmd_evaluate_reasoning(args) -> int:
    preds = _load(args.pred, partial(ds.read_jsonl, parse=_prediction))
    truths = _load(args.truth, partial(ds.read_jsonl, parse=_truth_region))
    report = textmetrics.evaluate_reasoning(preds, truths)
    print(report.as_tsv())
    return 0


def _cmd_grpo_check(args) -> int:
    results = checks.run_all_checks()
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _point(text: str) -> tuple[int, int]:
    """An "X,Y" pair of integers, as the type of an argparse option."""
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:  # also any count of values but two
        raise argparse.ArgumentTypeError("expected X,Y with integers X and Y, got %r" % text) from None


def _cmd_rasterize(args) -> int:
    mask = ds.rasterize_region(args.center, args.height, args.width)
    Path(args.output).write_bytes(providers.mask_to_bytes(mask))
    print("%d pixels set" % int(mask.sum()))
    return 0


def _cmd_propose_masks(args) -> int:
    smap = _load(args.map, _saliency_map)
    regions = propose_masks(smap, args.tau, args.dilation_radius, args.min_area)
    out = [
        {"bbox": list(r.bbox), "area": r.area, "peak_saliency": round(r.peak_saliency, 9)}
        for r in regions
    ]
    print(json.dumps(out, indent=2))
    return 0


# the instruction-driven tools that a text anomaly asks for, next to the
# mask-guided "mock-inpaint" and "http-inpaint"
_MOCK_INSTRUCT = providers.ToolDescriptor(name="mock-instruct", kind=providers.INSTRUCTION_DRIVEN)
_HTTP_INSTRUCT = providers.ToolDescriptor(name="http-instruct", kind=providers.INSTRUCTION_DRIVEN)


def _mock_providers_from_args(args, image: ImageBuffer) -> loop_mod.LoopProviders:
    if args.mock_field:
        field = _load(args.mock_field, read_float_grid).to_array()
    else:
        field = np.zeros((image.height, image.width), dtype=np.float32)
    scene = providers.SyntheticScene(image=image, distortion_field=field, decay=args.mock_decay)
    return loop_mod.LoopProviders(
        perception=providers.MockPerceptionProvider(scene),
        reasoning=providers.MockReasoningProvider(args.seed),
        tools=[providers.MockInpaintTool(scene), providers.MockInpaintTool(scene, _MOCK_INSTRUCT)],
    )


def _http_providers_from_env(args) -> loop_mod.LoopProviders:
    # checked before any backend URL is read, as the other options are
    timeout_s = providers.checked_timeout(args.timeout_ms / 1000.0)

    def url(role: str) -> str:
        var = "RETOUCH_BACKEND_%s_URL" % role.upper()
        value = os.environ.get(var)
        if not value:
            raise ValueError("environment variable %s is not set" % var)
        return value

    perception, reasoning, tool = (
        providers.http_provider(url(role), role, timeout_s)
        for role in ("perception", "reasoning", "inpaint")
    )
    text_tool = providers.http_provider(url("inpaint"), "inpaint", timeout_s, _HTTP_INSTRUCT)
    return loop_mod.LoopProviders(perception=perception, reasoning=reasoning, tools=[tool, text_tool])


def _cmd_run_loop(args) -> int:
    image = _load(args.image, read_pnm)
    if args.mock:
        provs = _mock_providers_from_args(args, image)
    else:
        provs = _http_providers_from_env(args)
    cfg = loop_mod.LoopConfig(
        tau_s=args.tau,
        max_iterations=args.max_iter,
        dilation_radius=args.dilation_radius,
        min_area=args.min_area,
    )
    trace = loop_mod.run_loop(image, args.prompt, provs, cfg)
    out_ref = args.output or "final.pnm"
    if args.output:
        Path(args.output).write_bytes(write_pnm(trace.final_image))
    if args.trace:
        Path(args.trace).write_text(loop_mod.trace_to_json(trace, image_ref=out_ref))
    print(json.dumps(loop_mod.trace_to_report(trace), sort_keys=True))
    return 0 if trace.error is None else 1  # stops on a fault carry their error


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="retouchkit",
        description="Perception-reasoning-action retouching loop and evaluation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dataset-stats", help="summarize a JSON-lines annotation dataset")
    p.add_argument("file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of aligned text")
    p.set_defaults(func=_cmd_dataset_stats)

    p = sub.add_parser("evaluate-saliency", help="five-metric saliency evaluation (TSV)")
    p.add_argument("dataset", help="JSON-lines annotation dataset (ground truth)")
    p.add_argument("--pred-dir", required=True, help="directory of <image_id>.fsal predictions")
    p.add_argument("--blur-sigma", type=float, default=0.0)
    p.set_defaults(func=_cmd_evaluate_saliency)

    p = sub.add_parser("evaluate-reasoning", help="accuracy / ROUGE-L / METEOR-lite (TSV)")
    p.add_argument("pred", help="JSON-lines diagnoses")
    p.add_argument("truth", help="JSON-lines truth regions with region_id")
    p.set_defaults(func=_cmd_evaluate_reasoning)

    p = sub.add_parser("grpo-check", help="policy-objective invariance and gradient suites")
    p.set_defaults(func=_cmd_grpo_check)

    p = sub.add_parser("rasterize", help="rasterize one annotation disc to a P5 mask")
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument(
        "--center",
        type=_point,
        required=True,
        metavar="X,Y",
        help="disc centre in pixels; write --center=X,Y when X is negative",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_rasterize)

    p = sub.add_parser("propose-masks", help="threshold+dilate+label an FSAL1 saliency map")
    p.add_argument("map", help="FSAL1 saliency map file")
    p.add_argument("--tau", type=float, default=loop_mod.LoopConfig.tau_s)
    p.add_argument("--dilation-radius", type=int, default=loop_mod.LoopConfig.dilation_radius)
    p.add_argument("--min-area", type=int, default=loop_mod.LoopConfig.min_area)
    p.set_defaults(func=_cmd_propose_masks)

    p = sub.add_parser("run-loop", help="run the retouching loop on one image")
    p.add_argument("--image", required=True, help="input PNM image")
    p.add_argument("--prompt", default="")
    p.add_argument("--tau", type=float, default=loop_mod.LoopConfig.tau_s)
    p.add_argument("--max-iter", type=int, default=loop_mod.LoopConfig.max_iterations)
    p.add_argument("--dilation-radius", type=int, default=loop_mod.LoopConfig.dilation_radius)
    p.add_argument("--min-area", type=int, default=loop_mod.LoopConfig.min_area)
    p.add_argument("--mock", action="store_true", help="use deterministic mock providers")
    p.add_argument("--mock-field", help="FSAL1 hidden distortion field for the mock scene")
    p.add_argument("--mock-decay", type=float, default=providers.SyntheticScene.decay)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout-ms", type=int, default=round(providers.TIMEOUT_S * 1000))
    p.add_argument("--trace", help="write the loop trace as JSON to this path")
    p.add_argument("-o", "--output", help="write the final image to this path")
    p.set_defaults(func=_cmd_run_loop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:  # a bare MemoryError() has no text
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
