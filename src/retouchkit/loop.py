"""The closed perception-reasoning-action controller: iterate
perceive -> (if salient) diagnose -> act -> re-perceive until the map max
drops below the threshold, the iteration cap is hit or another typed stop
applies, producing a full audit trace. The action plan is made here: which
registered tool serves each diagnosis, what it is sent and in which calls.
Every provider, in-process or HTTP, is held to its contract here: one
diagnosis per region, and maps and edited images of the image's size.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

import numpy as np

from .dataset import DistortionCategory
from .media_io import ImageBuffer, check_size
from .providers import (
    INSTRUCTION_DRIVEN,
    MASK_GUIDED,
    InpaintTool,
    PerceptionProvider,
    ProviderError,
    ReasoningProvider,
    SchemaError,
)
from .saliency import RegionProposal, propose_masks, union_mask
from .textmetrics import Diagnosis

STOP_CONVERGED = "converged"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_PROVIDER_ERROR = "provider_error"
STOP_NO_ACTIONABLE_REGIONS = "no_actionable_regions"  # peak >= tau, but no region reaches min_area
STOP_NO_ELIGIBLE_TOOL = "no_eligible_tool"  # no tool in the registry fits a diagnosis
STOP_INTERNAL_ERROR = "internal_error"  # any other exception raised inside an iteration
STOP_NO_PROGRESS = "no_progress"  # no region the last iteration edited fell below its peak


@dataclass(frozen=True)
class LoopConfig:
    tau_s: float = 0.5
    max_iterations: int = 3
    dilation_radius: int = 1
    min_area: int = 4
    prefer: str = "auto"  # the user's tool kind: "auto", MASK_GUIDED or INSTRUCTION_DRIVEN

    def __post_init__(self):
        if not 0.0 <= self.tau_s <= 1.0:
            raise ValueError("tau_s must lie in [0, 1]")
        # each count is read with operator.index, so a float is a TypeError
        if operator.index(self.max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if operator.index(self.dilation_radius) < 0:
            raise ValueError("dilation_radius must be >= 0")
        if operator.index(self.min_area) < 1:
            raise ValueError("min_area must be >= 1")
        if self.prefer not in ("auto", MASK_GUIDED, INSTRUCTION_DRIVEN):
            raise ValueError("bad prefer value %r" % self.prefer)


@dataclass(frozen=True)
class Action:
    region_id: str
    tool: str
    instruction: Optional[str] = None


@dataclass(frozen=True)
class IterationRecord:
    t: int
    max_saliency: float
    regions: tuple[RegionProposal, ...]
    diagnoses: tuple[Diagnosis, ...]
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class LoopTrace:
    records: tuple[IterationRecord, ...]
    stop_reason: str
    final_image: ImageBuffer
    error: Optional[str] = None


@dataclass(frozen=True)
class LoopProviders:
    perception: PerceptionProvider
    reasoning: ReasoningProvider
    tools: Sequence[InpaintTool]


class NoEligibleToolError(ValueError):
    """No tool in the registry is of the kind a diagnosis wants."""


def select_tool(
    registry: Sequence[InpaintTool], category: DistortionCategory, prefer: str
) -> InpaintTool:
    """The first registered tool of the preferred kind for `category`; with
    "auto", instruction-driven for text anomalies (the instruction carries
    the semantics), mask-guided otherwise."""
    if prefer == "auto":
        prefer = INSTRUCTION_DRIVEN if category is DistortionCategory.TEXT_ANOMALY else MASK_GUIDED
    for tool in registry:
        if tool.descriptor.kind == prefer:
            return tool
    raise NoEligibleToolError("no tool satisfies policy (kind=%s)" % prefer)


def _fell(values: np.ndarray, region: RegionProposal) -> bool:
    """Whether the map `values` is below the region's peak_saliency on every
    pixel of the region."""
    x0, y0, x1, y1 = region.bbox
    return values[y0 : y1 + 1, x0 : x1 + 1][region.mask].max() < region.peak_saliency


def run_loop(
    image: ImageBuffer, prompt: str, providers: LoopProviders, cfg: LoopConfig
) -> LoopTrace:
    """Run the retouching state machine until a stop; never raises. Every
    iteration whose perception returned leaves one record, so the records
    always describe the final image, also when a fault cuts an iteration
    short."""
    records: list[IterationRecord] = []
    current = image
    stop, error = STOP_MAX_ITERATIONS, None
    for t in range(1, cfg.max_iterations + 1):
        peak = None
        regions: list[RegionProposal] = []
        diagnoses: list[Diagnosis] = []
        planned: list[Action] = []  # one per region, in region order
        done: list[int] = []  # indices of the planned actions whose call completed
        try:
            smap = providers.perception.perceive(current, prompt)
            check_size(
                "saliency map", (smap.width, smap.height), "image", (current.width, current.height), SchemaError
            )
            values = smap.to_array()
            peak = float(values.max())
            if peak < cfg.tau_s:
                stop = STOP_CONVERGED
            # an iteration that does not stop has acted on all its regions;
            # `any` reads their crops only until one has fallen
            elif records and not any(_fell(values, r) for r in records[-1].regions):
                stop = STOP_NO_PROGRESS
            elif not (regions := propose_masks(smap, cfg.tau_s, cfg.dilation_radius, cfg.min_area)):
                stop = STOP_NO_ACTIONABLE_REGIONS
            else:
                diagnosed = providers.reasoning.diagnose(current, prompt, regions)
                if len(diagnosed) != len(regions):  # a rejected list is not recorded
                    raise SchemaError(
                        "reasoning returned %d diagnoses for %d regions"
                        % (len(diagnosed), len(regions))
                    )
                diagnoses = diagnosed
                # every tool is chosen before the first edit, once per category
                # in the order of its first region (regions come in peak order):
                # with the registry and the preference fixed, nothing else matters
                tools = {
                    c: select_tool(providers.tools, c, cfg.prefer)
                    for c in dict.fromkeys(d.category for d in diagnoses)
                }
                # one call per (tool, instruction), in the order of each group's
                # first region, on the union of the group's regions: one
                # labelling leaves them disjoint and not 8-adjacent
                groups: dict[tuple[int, Optional[str]], tuple[InpaintTool, list[int]]] = {}
                for i, d in enumerate(diagnoses):
                    tool = tools[d.category]
                    instruction = None
                    if tool.descriptor.kind == INSTRUCTION_DRIVEN:
                        instruction = "fix %s: %s" % (d.category.value, d.description)
                    planned.append(Action(d.region_id, tool.descriptor.name, instruction))
                    groups.setdefault((id(tool), instruction), (tool, []))[1].append(i)
                for (_, instruction), (tool, members) in groups.items():
                    mask = union_mask([regions[i] for i in members], current.height, current.width)
                    edited = tool.inpaint(current, mask=mask, instruction=instruction)
                    check_size(
                        "edited image",
                        (edited.width, edited.height, edited.channels),
                        "image",
                        (current.width, current.height, current.channels),
                        SchemaError,
                    )
                    current = edited
                    done.extend(members)
        except NoEligibleToolError as exc:
            stop, error = STOP_NO_ELIGIBLE_TOOL, str(exc)
        except ProviderError as exc:
            stop, error = STOP_PROVIDER_ERROR, str(exc)
        except Exception as exc:
            stop, error = STOP_INTERNAL_ERROR, "%s: %s" % (type(exc).__name__, exc)
        if peak is not None:
            actions = tuple(planned[i] for i in sorted(done))  # the completed calls' actions
            records.append(IterationRecord(t, peak, tuple(regions), tuple(diagnoses), actions))
        if stop != STOP_MAX_ITERATIONS:
            break
    return LoopTrace(tuple(records), stop, current, error)


def run_batch(
    items: Sequence[tuple[ImageBuffer, str, LoopProviders]], cfg: LoopConfig, parallelism: int = 1
) -> list[LoopTrace]:
    """Order-preserving batch of independent loop runs over `(image, prompt,
    providers)` items; each item carries its own providers so mock scene
    state never crosses items. run_loop never raises, so one failing item
    never aborts the others."""
    if operator.index(parallelism) < 1:  # a float is a TypeError
        raise ValueError("parallelism must be >= 1")
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(lambda item: run_loop(*item, cfg), items))


def trace_to_report(trace: LoopTrace) -> dict:
    """Flat summary of a trace, JSON-serializable."""
    return {
        "iterations": len(trace.records),
        "actions_total": sum(len(r.actions) for r in trace.records),
        "initial_max_saliency": trace.records[0].max_saliency if trace.records else None,
        "final_max_saliency": trace.records[-1].max_saliency if trace.records else None,
        "converged": trace.stop_reason == STOP_CONVERGED,
        "stop_reason": trace.stop_reason,
    }


# The trace is written with its fixed schema, not by json.dumps(indent=2),
# which gives up json's C encoder for a pure-Python one. Each object has one
# `%`-template, built once from its keys at its nesting level; keys are in
# sorted order and strings go through json's own ASCII escaper, so the bytes
# are those of json.dumps(..., sort_keys=True, indent=2) on the same dict.
_string = encode_basestring_ascii


def _nullable(text: Optional[str]) -> str:
    return "null" if text is None else _string(text)


def _number(x: float) -> str:
    """round(x, 9) as json writes it: an int by int.__repr__, a float by
    float.__repr__, with json's NaN, Infinity and -Infinity."""
    x = round(x, 9)
    if isinstance(x, int):
        return int.__repr__(x)
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _list(items: list[str], level: int) -> str:
    """A JSON list of laid-out items whose closing bracket sits at `level`."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def _object(fields: dict[str, str], level: int) -> str:
    """An object's `%`-template, laid out as `_list` lays out a list: one
    `"key": value-template` item per key of `fields`, in sorted order."""
    items = ["%s: %s" % (_string(key), fields[key]) for key in sorted(fields)]
    return "{%s}" % _list(items, level)[1:-1]


# the trace sits at level 0, its records at 2, their actions, diagnoses
# and regions at 4 and a region's bbox at 5
_TRACE = _object({"error": "%s", "final_image": "%s", "records": "%s", "stop_reason": "%s"}, 0)
_RECORD = _object(
    {"actions": "%s", "diagnoses": "%s", "max_saliency": "%s", "regions": "%s", "t": "%d"}, 2
)
_ACTION = _object({"instruction": "%s", "region_id": "%s", "tool": "%s"}, 4)
_DIAGNOSIS = _object(
    {"category": "%s", "description": "%s", "region_id": "%s", "severity": "%s"}, 4
)
_REGION = _object({"area": "%d", "bbox": _list(["%d"] * 4, 5), "peak_saliency": "%s"}, 4)


def _record_json(rec: IterationRecord) -> str:
    actions = [
        _ACTION % (_nullable(a.instruction), _string(a.region_id), _string(a.tool))
        for a in rec.actions
    ]
    diagnoses = [
        _DIAGNOSIS
        % (_string(d.category.value), _string(d.description), _string(d.region_id), _number(d.severity))
        for d in rec.diagnoses
    ]
    regions = [_REGION % (r.area, *r.bbox, _number(r.peak_saliency)) for r in rec.regions]
    return _RECORD % (
        _list(actions, 3),
        _list(diagnoses, 3),
        _number(rec.max_saliency),
        _list(regions, 3),
        rec.t,
    )


def trace_to_json(trace: LoopTrace, image_ref: str = "final.pnm") -> str:
    """Serialize a trace as deterministic JSON; images appear as file refs."""
    return _TRACE % (
        _nullable(trace.error),
        _string(image_ref),
        _list([_record_json(rec) for rec in trace.records], 1),
        _string(trace.stop_reason),
    )
