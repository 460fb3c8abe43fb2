"""Command-line entry point.

Subcommands: run-loop, evaluate-saliency, evaluate-reasoning,
dataset-stats, grpo-check, rasterize, propose-masks.

Machine output goes to stdout, diagnostics to stderr. Exit codes:
0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import checks, dataset as ds, loop as loop_mod, metrics, providers, textmetrics
from .media_io import ImageBuffer, read_float_grid, read_pnm, write_pnm
from .saliency import SaliencyMap, propose_masks


def _cmd_dataset_stats(args) -> int:
    records = ds.parse_dataset(Path(args.file).read_bytes())
    if not records:
        print("empty dataset", file=sys.stderr)
        return 1
    stats = ds.compute_stats(records)
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
    records = ds.parse_dataset(Path(args.dataset).read_bytes())
    if not records:
        print("empty dataset", file=sys.stderr)
        return 1
    pred_dir = Path(args.pred_dir)
    print(metrics.TSV_HEADER)
    reports = []
    for rec in records:
        pred_path = pred_dir / ("%s.fsal" % rec.image_id)
        pred = SaliencyMap(read_float_grid(pred_path.read_bytes()))
        truth, fix = ds.ground_truth_map(rec, blur_sigma=args.blur_sigma)
        report = metrics.evaluate_all(pred, truth, fix, epsilon=args.epsilon)
        reports.append(report)
        print("%s\t%s" % (rec.image_id, report.as_tsv_row()))
    agg = metrics.aggregate_reports(reports)
    print("aggregate\t%s" % agg.as_tsv_row())
    return 0


def _load_jsonl(path: str, parse) -> list:
    try:
        return ds.read_jsonl(Path(path).read_bytes(), parse)
    except ds.DatasetError as exc:
        raise ValueError("%s: %s" % (path, exc)) from None


def _prediction(obj: dict) -> textmetrics.Diagnosis:
    return textmetrics.Diagnosis(
        region_id=str(obj["region_id"]),
        category=ds.DistortionCategory(obj["category"]),
        description=str(obj["description"]),
        severity=float(obj.get("severity", 0.0)),
    )


def _truth_region(obj: dict) -> ds.RegionAnnotation:
    return ds.RegionAnnotation(
        center=(int(obj.get("x", 0)), int(obj.get("y", 0))),
        category=ds.DistortionCategory(obj["category"]),
        description=str(obj["description"]),
        annotator=str(obj.get("annotator", "truth")),
        region_id=str(obj["region_id"]),
    )


def _cmd_evaluate_reasoning(args) -> int:
    preds = _load_jsonl(args.pred, _prediction)
    truths = _load_jsonl(args.truth, _truth_region)
    report = textmetrics.evaluate_reasoning(preds, truths)
    print(report.as_tsv())
    return 0


def _cmd_grpo_check(args) -> int:
    results = checks.run_all_checks()
    for res in results:
        print(res.line())
    return 0 if all(r.passed for r in results) else 1


def _cmd_rasterize(args) -> int:
    cx, cy = (int(v) for v in args.center.split(","))
    mask = ds.rasterize_region((cx, cy), args.height, args.width)
    img = ImageBuffer.from_array(np.where(mask, 255, 0).astype(np.uint8))
    Path(args.output).write_bytes(write_pnm(img))
    print("%d pixels set" % int(mask.sum()))
    return 0


def _cmd_propose_masks(args) -> int:
    smap = SaliencyMap(read_float_grid(Path(args.map).read_bytes()))
    regions = propose_masks(smap, args.tau, args.dilation_radius, args.min_area)
    out = [
        {
            "bbox": list(r.bbox),
            "area": r.area,
            "peak_saliency": round(r.peak_saliency, 9),
        }
        for r in regions
    ]
    print(json.dumps(out, indent=2))
    return 0


def _mock_providers_from_args(args, image: ImageBuffer) -> loop_mod.LoopProviders:
    if args.mock_field:
        field = read_float_grid(Path(args.mock_field).read_bytes()).to_array().copy()
    else:
        field = np.zeros((image.height, image.width), dtype=np.float32)
    scene = providers.SyntheticScene(image=image, distortion_field=field, decay=args.mock_decay)
    return loop_mod.LoopProviders(
        perception=providers.MockPerceptionProvider(scene),
        reasoning=providers.MockReasoningProvider(args.seed),
        tools=[providers.MockInpaintTool(scene)],
    )


def _http_providers_from_env(args) -> loop_mod.LoopProviders:
    cfg = providers.HttpConfig(timeout_s=args.timeout_ms / 1000.0)

    def url(role: str) -> str:
        var = "RETOUCH_BACKEND_%s_URL" % role.upper()
        value = os.environ.get(var)
        if not value:
            raise ValueError("environment variable %s is not set" % var)
        return value

    perception, reasoning, tool = (
        providers.http_provider(url(role), role, cfg)
        for role in ("perception", "reasoning", "inpaint")
    )
    return loop_mod.LoopProviders(perception=perception, reasoning=reasoning, tools=[tool])


def _cmd_run_loop(args) -> int:
    image = read_pnm(Path(args.image).read_bytes())
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
    p.add_argument("--epsilon", type=float, default=1e-7)
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
    p.add_argument("--center", required=True, metavar="X,Y")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_rasterize)

    p = sub.add_parser("propose-masks", help="threshold+dilate+label an FSAL1 saliency map")
    p.add_argument("map", help="FSAL1 saliency map file")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--dilation-radius", type=int, default=1)
    p.add_argument("--min-area", type=int, default=4)
    p.set_defaults(func=_cmd_propose_masks)

    p = sub.add_parser("run-loop", help="run the retouching loop on one image")
    p.add_argument("--image", required=True, help="input PNM image")
    p.add_argument("--prompt", default="")
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--max-iter", type=int, default=3)
    p.add_argument("--dilation-radius", type=int, default=1)
    p.add_argument("--min-area", type=int, default=4)
    p.add_argument("--mock", action="store_true", help="use deterministic mock providers")
    p.add_argument("--mock-field", help="FSAL1 hidden distortion field for the mock scene")
    p.add_argument("--mock-decay", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout-ms", type=int, default=30000)
    p.add_argument("--trace", help="write the loop trace as JSON to this path")
    p.add_argument("-o", "--output", help="write the final image to this path")
    p.set_defaults(func=_cmd_run_loop)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
