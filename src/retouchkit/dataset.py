"""Annotation schema, parsing, region geometry, majority-vote
reconciliation and statistics for distortion-region datasets.

Dataset files are JSON-lines: one record per line with fields
``image_id, image, prompt, width, height, regions`` where each region is
``{x, y, category, description, annotator}``.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

from .metrics import FixationSet
from .saliency import SaliencyMap

T = TypeVar("T")


class DistortionCategory(Enum):
    """12 fine-grained categories under 6 high-level dimensions.

    Declaration order is the fixed category-code order used for vote
    tiebreaks.
    """

    # human anatomical distortion
    LIMB_HAND_DEFORMITY = "limb_hand_deformity"
    FACE_DISTORTION = "face_distortion"
    # attribute inconsistency
    COLOR_ATTRIBUTE_MISMATCH = "color_attribute_mismatch"
    COUNT_MISMATCH = "count_mismatch"
    # spatial errors
    PERSPECTIVE_ERROR = "perspective_error"
    OCCLUSION_ERROR = "occlusion_error"
    # object deformation or redundancy
    OBJECT_DEFORMATION = "object_deformation"
    OBJECT_REDUNDANCY = "object_redundancy"
    # action and interaction distortion
    ACTION_IMPLAUSIBILITY = "action_implausibility"
    INTERACTION_ERROR = "interaction_error"
    # miscellaneous
    TEXT_ANOMALY = "text_anomaly"
    OTHER_ARTIFACT = "other_artifact"

    @property
    def code_order(self) -> int:
        return _CATEGORY_ORDER[self]


_CATEGORY_ORDER = {c: i for i, c in enumerate(DistortionCategory)}

DIMENSION_OF = {
    DistortionCategory.LIMB_HAND_DEFORMITY: "human anatomical distortion",
    DistortionCategory.FACE_DISTORTION: "human anatomical distortion",
    DistortionCategory.COLOR_ATTRIBUTE_MISMATCH: "attribute inconsistency",
    DistortionCategory.COUNT_MISMATCH: "attribute inconsistency",
    DistortionCategory.PERSPECTIVE_ERROR: "spatial errors",
    DistortionCategory.OCCLUSION_ERROR: "spatial errors",
    DistortionCategory.OBJECT_DEFORMATION: "object deformation or redundancy",
    DistortionCategory.OBJECT_REDUNDANCY: "object deformation or redundancy",
    DistortionCategory.ACTION_IMPLAUSIBILITY: "action and interaction distortion",
    DistortionCategory.INTERACTION_ERROR: "action and interaction distortion",
    DistortionCategory.TEXT_ANOMALY: "miscellaneous",
    DistortionCategory.OTHER_ARTIFACT: "miscellaneous",
}


class DatasetError(ValueError):
    """Parse/validation failure, carrying the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__("line %s: %s" % (line, message) if line else message)


@dataclass(frozen=True)
class RegionAnnotation:
    center: tuple[int, int]  # (x, y)
    category: DistortionCategory
    description: str
    annotator: str
    region_id: str | None = None

    def __post_init__(self):
        if not self.description:
            raise ValueError("description must be non-empty")


@dataclass(frozen=True)
class AnnotationRecord:
    image_id: str
    image_ref: str
    prompt: str
    width: int
    height: int
    regions: tuple[RegionAnnotation, ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("width/height must be >= 1")
        for r in self.regions:
            x, y = r.center
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(
                    "region center (%d, %d) outside %dx%d image" % (x, y, self.width, self.height)
                )


@dataclass(frozen=True)
class DatasetStats:
    image_count: int
    region_count: int
    regions_per_image: float
    mean_description_words: float
    category_histogram: dict[str, float] = field(default_factory=dict)


def read_jsonl(data: bytes, parse: Callable[[dict], T]) -> list[T]:
    """Build one item per non-blank line of a JSON-lines byte string with
    `parse`, which receives the line's object. Any failure, in the JSON or
    in `parse`, becomes a DatasetError carrying the 1-based line number.
    The bytes are split into lines before decoding, so a raw U+2028, U+2029
    or U+0085 in a string is not a line break, and a line that is not UTF-8
    is reported with its number."""
    items = []
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DatasetError("not UTF-8: %s" % exc, lineno)
        if not text.strip():
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError("malformed JSON: %s" % exc, lineno)
        if not isinstance(obj, dict):
            raise DatasetError("record is not a JSON object", lineno)
        try:
            items.append(parse(obj))
        except KeyError as exc:
            raise DatasetError("missing field %s" % exc, lineno)
        except (TypeError, ValueError, OverflowError) as exc:  # float() of a huge int overflows
            raise DatasetError(str(exc), lineno)
    return items


def _parse_record(obj: dict) -> AnnotationRecord:
    regions = []
    for reg in obj.get("regions", []):
        try:
            category = DistortionCategory(reg["category"])
        except ValueError:
            raise ValueError("unknown category code %r" % reg.get("category"))
        regions.append(
            RegionAnnotation(
                center=(int(reg["x"]), int(reg["y"])),
                category=category,
                description=str(reg["description"]),
                annotator=str(reg["annotator"]),
                region_id=str(reg["id"]) if "id" in reg else None,
            )
        )
    return AnnotationRecord(
        image_id=str(obj["image_id"]),
        image_ref=str(obj["image"]),
        prompt=str(obj["prompt"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
        regions=tuple(regions),
    )


def parse_dataset(data: bytes) -> list[AnnotationRecord]:
    """Parse a JSON-lines dataset; errors carry the offending line number."""
    return read_jsonl(data, _parse_record)


def serialize_dataset(records: Iterable[AnnotationRecord]) -> bytes:
    """Inverse of parse_dataset (unknown input fields are not preserved)."""
    lines = []
    for rec in records:
        regions = []
        for r in rec.regions:
            reg = {
                "x": r.center[0],
                "y": r.center[1],
                "category": r.category.value,
                "description": r.description,
                "annotator": r.annotator,
            }
            if r.region_id is not None:
                reg["id"] = r.region_id
            regions.append(reg)
        obj = {
            "image_id": rec.image_id,
            "image": rec.image_ref,
            "prompt": rec.prompt,
            "width": rec.width,
            "height": rec.height,
            "regions": regions,
        }
        lines.append(json.dumps(obj, ensure_ascii=False, sort_keys=True))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def region_radius(image_height: int) -> float:
    """Annotation disc radius: 1/20 of the image height."""
    return image_height / 20.0


def _window(c: int, k: int, dim: int) -> tuple[int, int]:
    """[c - k, c + k + 1) clamped to [0, dim] at both ends, so a centre off
    the frame gives an empty window."""
    return min(max(c - k, 0), dim), min(max(c + k + 1, 0), dim)


def _disc(
    center: tuple[int, int], image_height: int, image_width: int
) -> tuple[tuple[slice, slice], np.ndarray]:
    """The disc of radius height/20 around `center`, computed only inside
    its window of half-width floor(r), as (rows, cols) slices of the frame
    and the bool disc over them. Pixel (i, j) is set iff its squared
    distance from the center is <= r^2; no pixel outside the window is."""
    r = region_radius(image_height)
    k = int(r)
    cx, cy = center
    y0, y1 = _window(cy, k, image_height)
    x0, x1 = _window(cx, k, image_width)
    ys = np.arange(y0 - cy, y1 - cy)[:, None]
    xs = np.arange(x0 - cx, x1 - cx)[None, :]
    return (slice(y0, y1), slice(x0, x1)), xs**2 + ys**2 <= r * r


def rasterize_region(center: tuple[int, int], image_height: int, image_width: int) -> np.ndarray:
    """Disc mask of radius height/20 around `center`, clipped at borders.

    Pixel (i, j) is set iff its squared distance from the center is <= r^2.
    The center may lie off the frame.
    """
    if image_height < 1 or image_width < 1:
        raise ValueError("image dimensions must be >= 1")
    mask = np.zeros((image_height, image_width), dtype=bool)
    window, disc = _disc(center, image_height, image_width)
    mask[window] = disc
    return mask


def reconcile_majority(
    per_annotator: Sequence[Sequence[RegionAnnotation]], match_radius: float
) -> list[RegionAnnotation]:
    """Cluster regions across annotators (single linkage on center distance
    <= match_radius); keep clusters backed by a strict majority of
    annotators. Category = modal (ties to the lower category-code), center =
    coordinate-wise median, description = longest contributed."""
    n_annotators = len(per_annotator)
    if n_annotators < 2:
        raise ValueError("need at least 2 annotators")
    items = [
        (ann_idx, region)
        for ann_idx, regions in enumerate(per_annotator)
        for region in regions
    ]
    # single-linkage clustering via union-find
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            (x1, y1), (x2, y2) = items[i][1].center, items[j][1].center
            if math.hypot(x1 - x2, y1 - y2) <= match_radius:
                parent[find(i)] = find(j)

    clusters: dict[int, list[tuple[int, RegionAnnotation]]] = {}
    for idx, item in enumerate(items):
        clusters.setdefault(find(idx), []).append(item)

    survivors = []
    for members in clusters.values():
        voters = {ann_idx for ann_idx, _ in members}
        if len(voters) * 2 <= n_annotators:  # strict majority required
            continue
        regions = [r for _, r in members]
        counts: dict[DistortionCategory, int] = {}
        for r in regions:
            counts[r.category] = counts.get(r.category, 0) + 1
        best = max(counts.values())
        category = min(
            (c for c, k in counts.items() if k == best), key=lambda c: c.code_order
        )
        cx = statistics.median(r.center[0] for r in regions)
        cy = statistics.median(r.center[1] for r in regions)
        description = max((r.description for r in regions), key=len)
        survivors.append(
            RegionAnnotation(
                center=(int(round(cx)), int(round(cy))),
                category=category,
                description=description,
                annotator="consensus",
            )
        )
    survivors.sort(key=lambda r: (r.center[1], r.center[0], r.category.code_order))
    return survivors


def compute_stats(records: Sequence[AnnotationRecord]) -> DatasetStats:
    """Exact means and category shares over a non-empty record list."""
    if not records:
        raise ValueError("empty dataset")
    region_count = sum(len(r.regions) for r in records)
    word_total = sum(len(reg.description.split()) for r in records for reg in r.regions)
    histogram: dict[str, int] = {}
    for rec in records:
        for reg in rec.regions:
            histogram[reg.category.value] = histogram.get(reg.category.value, 0) + 1
    shares = {
        cat: count / region_count for cat, count in sorted(histogram.items())
    } if region_count else {}
    return DatasetStats(
        image_count=len(records),
        region_count=region_count,
        regions_per_image=region_count / len(records),
        mean_description_words=word_total / region_count if region_count else 0.0,
        category_histogram=shares,
    )


def ground_truth_map(
    record: AnnotationRecord, blur_sigma: float = 0.0
) -> tuple[SaliencyMap, FixationSet]:
    """Union of rasterized region discs as a {0,1} saliency map plus the
    region centers as fixations. With blur_sigma > 0 the union mask is
    Gaussian-blurred and renormalized to peak 1."""
    if not blur_sigma >= 0.0:  # also rejects NaN
        raise ValueError("blur_sigma must be >= 0, got %r" % blur_sigma)
    mask = np.zeros((record.height, record.width), dtype=bool)
    for reg in record.regions:
        window, disc = _disc(reg.center, record.height, record.width)
        mask[window] |= disc
    dense = mask.astype(np.float32)
    if blur_sigma > 0.0 and mask.any():
        from scipy.ndimage import gaussian_filter

        dense = gaussian_filter(dense, sigma=blur_sigma)
        dense = dense / dense.max()
    fixations = FixationSet(reg.center for reg in record.regions)
    return SaliencyMap.from_array(dense), fixations
