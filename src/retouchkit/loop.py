"""The closed perception-reasoning-action controller: iterate
perceive -> (if salient) diagnose -> act -> re-perceive until the map max
drops below the threshold, the iteration cap is hit or another typed stop
applies, producing a full audit trace.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .media_io import ImageBuffer
from .providers import (
    INSTRUCTION_DRIVEN,
    InpaintTool,
    NoEligibleToolError,
    PerceptionProvider,
    ProviderError,
    ReasoningProvider,
    SchemaError,
    ToolPolicy,
    select_tool,
)
from .saliency import RegionProposal, propose_masks
from .textmetrics import Diagnosis

STOP_CONVERGED = "converged"
STOP_MAX_ITERATIONS = "max_iterations"
STOP_PROVIDER_ERROR = "provider_error"
STOP_NO_ACTIONABLE_REGIONS = "no_actionable_regions"  # peak >= tau, but no region reaches min_area
STOP_NO_ELIGIBLE_TOOL = "no_eligible_tool"  # no tool in the registry fits a diagnosis
STOP_INTERNAL_ERROR = "internal_error"  # an unexpected exception escaped run_loop


@dataclass(frozen=True)
class LoopConfig:
    tau_s: float = 0.5
    max_iterations: int = 3
    dilation_radius: int = 1
    min_area: int = 4
    tool_policy: ToolPolicy = field(default_factory=ToolPolicy)

    def __post_init__(self):
        if not 0.0 <= self.tau_s <= 1.0:
            raise ValueError("tau_s must lie in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


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


@dataclass(frozen=True)
class LoopInput:
    """One item of a batch run; each item carries its own providers so
    mock scene state never crosses items."""

    image: ImageBuffer
    prompt: str
    providers: LoopProviders


def run_loop(
    image: ImageBuffer, prompt: str, providers: LoopProviders, cfg: LoopConfig
) -> LoopTrace:
    """Run the retouching state machine until a stop. Every iteration whose
    perception returned leaves one record, so the records always describe
    the final image, also when a fault cuts an iteration short."""
    records: list[IterationRecord] = []
    current = image
    stop, error = STOP_MAX_ITERATIONS, None
    for t in range(1, cfg.max_iterations + 1):
        peak = None
        regions: list[RegionProposal] = []
        diagnoses: list[Diagnosis] = []
        actions: list[Action] = []
        try:
            smap = providers.perception.perceive(current, prompt)
            peak = float(smap.to_array().max())
            if peak < cfg.tau_s:
                stop = STOP_CONVERGED
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
                # regions come back in peak-saliency order already; every tool
                # is chosen before the first edit
                tools = [select_tool(providers.tools, d, cfg.tool_policy) for d in diagnoses]
                for region, diagnosis, tool in zip(regions, diagnoses, tools):
                    instruction = None
                    if tool.descriptor.kind == INSTRUCTION_DRIVEN:
                        instruction = "fix %s: %s" % (diagnosis.category.value, diagnosis.description)
                    current = tool.inpaint(current, mask=region.mask, instruction=instruction)
                    actions.append(Action(diagnosis.region_id, tool.descriptor.name, instruction))
        except NoEligibleToolError as exc:
            stop, error = STOP_NO_ELIGIBLE_TOOL, str(exc)
        except ProviderError as exc:
            stop, error = STOP_PROVIDER_ERROR, str(exc)
        if peak is not None:
            records.append(
                IterationRecord(t, peak, tuple(regions), tuple(diagnoses), tuple(actions))
            )
        if stop != STOP_MAX_ITERATIONS:
            break
    return LoopTrace(tuple(records), stop, current, error)


def run_batch(items: Sequence[LoopInput], cfg: LoopConfig, parallelism: int = 1) -> list[LoopTrace]:
    """Order-preserving batch of independent loop runs; one failing item
    never aborts the others. An exception that escapes run_loop (never a
    ProviderError, which run_loop turns into a stop) becomes an
    internal_error stop named after its type."""
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")

    def one(item: LoopInput) -> LoopTrace:
        try:
            return run_loop(item.image, item.prompt, item.providers, cfg)
        except Exception as exc:  # isolate unexpected per-item failures
            return LoopTrace(
                (), STOP_INTERNAL_ERROR, item.image, error="%s: %s" % (type(exc).__name__, exc)
            )

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(one, items))


def trace_to_report(trace: LoopTrace) -> dict:
    """Flat summary of a trace, JSON-serializable."""
    return {
        "iterations": len(trace.records),
        "actions_total": sum(len(r.actions) for r in trace.records),
        "initial_max_saliency": trace.records[0].max_saliency if trace.records else None,
        "final_max_saliency": trace.records[-1].max_saliency if trace.records else None,
        "converged": trace.stop_reason == STOP_CONVERGED,
    }


def trace_to_json(trace: LoopTrace, image_ref: str = "final.pnm") -> str:
    """Serialize a trace as deterministic JSON; images appear as file refs."""
    obj = {
        "stop_reason": trace.stop_reason,
        "error": trace.error,
        "final_image": image_ref,
        "records": [
            {
                "t": rec.t,
                "max_saliency": round(rec.max_saliency, 9),
                "regions": [
                    {
                        "bbox": list(r.bbox),
                        "area": r.area,
                        "peak_saliency": round(r.peak_saliency, 9),
                    }
                    for r in rec.regions
                ],
                "diagnoses": [
                    {
                        "region_id": d.region_id,
                        "category": d.category.value,
                        "description": d.description,
                        "severity": round(d.severity, 9),
                    }
                    for d in rec.diagnoses
                ],
                "actions": [
                    {"region_id": a.region_id, "tool": a.tool, "instruction": a.instruction}
                    for a in rec.actions
                ],
            }
            for rec in trace.records
        ],
    }
    return json.dumps(obj, sort_keys=True, indent=2)
