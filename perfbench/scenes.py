"""Deterministic input generators for the benchmark workloads.

Everything here is a pure function of the seed (and the item index), so the
benchmark process, the loopback stub process and the in-process reference
runs all see the same scenes without shipping them between processes.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from retouchkit.dataset import DistortionCategory
from retouchkit.media_io import FloatGrid, write_float_grid
from retouchkit.textmetrics import Diagnosis

SCENE_SIZE = 256
POOL_SIZE = 64
CORPUS_SIZE = 256
CORPUS_SIDES = tuple(range(64, 97, 4))  # 9 square sizes, 64^2 .. 96^2
DECAY = 0.5  # SyntheticScene.decay of every loop scene

_WORDS = (
    "hand finger face eye mouth color shade count extra missing angle shadow "
    "edge blur warp melt text glyph letter limb pose grip object seam"
).split()


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) & 0xFFFFFFFF for k in key])


def bump_field(
    rng: np.random.Generator,
    size: int,
    count: int,
    radius: tuple[float, float],
    peak: tuple[float, float],
) -> np.ndarray:
    """Hidden distortion field: the max of `count` parabolic bumps, float32
    in [0, 1]. Each bump is computed on its own window, so cost grows with
    the bumps' area, not with count x pixels."""
    field = np.zeros((size, size), dtype=np.float32)
    radii = rng.uniform(*radius, count)
    peaks = rng.uniform(*peak, count)
    centers = rng.uniform(0, size, (count, 2))
    for r, p, (cy, cx) in zip(radii, peaks, centers):
        y0, y1 = max(0, int(cy - r)), min(size, int(cy + r) + 1)
        x0, x1 = max(0, int(cx - r)), min(size, int(cx + r) + 1)
        yy, xx = np.ogrid[y0:y1, x0:x1]
        d2 = ((yy - cy) ** 2 + (xx - cx) ** 2) / (r * r)
        bump = (p * np.clip(1.0 - d2, 0.0, None)).astype(np.float32)
        np.maximum(field[y0:y1, x0:x1], bump, out=field[y0:y1, x0:x1])
    return field


@dataclass(frozen=True)
class ScenePool:
    """POOL_SIZE base scenes; item k is base scene k % POOL_SIZE rolled by a
    per-item offset, so no two items in a run share their pixels."""

    seed: int
    images: tuple[np.ndarray, ...]  # uint8, (h, w) or (h, w, 3)
    fields: tuple[np.ndarray, ...]  # float32, (h, w)

    def item(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(image array, fresh writable field) of item k."""
        base = k % len(self.images)
        dy, dx = (int(v) for v in _rng(self.seed, k, 7).integers(0, SCENE_SIZE, 2))
        image = np.roll(self.images[base], (dy, dx), axis=(0, 1))
        field = np.roll(self.fields[base], (dy, dx), axis=(0, 1))
        return image, field


def dense_pool(seed: int) -> ScenePool:
    """loop_mock_dense: 256^2 grayscale, ~150 small bumps (radius 2-6, peak
    0.55-1.0) per field, about 100 components per first perception."""
    images, fields = [], []
    for i in range(POOL_SIZE):
        rng = _rng(seed, i, 1)
        images.append(rng.integers(0, 256, (SCENE_SIZE, SCENE_SIZE), dtype=np.uint8))
        fields.append(bump_field(rng, SCENE_SIZE, 150, (2.0, 6.0), (0.55, 1.0)))
    return ScenePool(seed, tuple(images), tuple(fields))


def rgb_pool(seed: int) -> ScenePool:
    """loop_http: 256^2 RGB, 6-10 large bumps (radius 6-20) per field. The
    bump count cycles over the pool, so every seed gets the same mix."""
    images, fields = [], []
    for i in range(POOL_SIZE):
        rng = _rng(seed, i, 2)
        images.append(rng.integers(0, 256, (SCENE_SIZE, SCENE_SIZE, 3), dtype=np.uint8))
        fields.append(bump_field(rng, SCENE_SIZE, 6 + i % 5, (6.0, 20.0), (0.55, 1.0)))
    return ScenePool(seed, tuple(images), tuple(fields))


def fault_phase(seed: int, k: int) -> int:
    """The stub answers scene k's request number n (0-based) with 503 iff
    n % 50 == fault_phase(seed, k): one request in 50, never two in a row.
    Any 50 consecutive scenes take each phase once, so the share of images
    that meet a fault does not depend on the seed."""
    return (zlib.crc32(b"%d" % seed) + 17 * k) % 50


@dataclass(frozen=True)
class CorpusItem:
    line: bytes  # one JSON-lines annotation record
    image_id: str
    pred_fsal: bytes  # FSAL1 prediction map
    diagnoses: tuple[Diagnosis, ...]  # predicted, one per annotated region


def _description(rng: np.random.Generator) -> list[str]:
    return [_WORDS[int(i)] for i in rng.integers(0, len(_WORDS), int(rng.integers(4, 17)))]


def corpus(seed: int) -> tuple[CorpusItem, ...]:
    """eval_corpus: CORPUS_SIZE images shaped like tests/data/synthetic50.jsonl
    (3-7 regions, mean 5) with continuous float32 predictions. Sides come in
    blocks that hold each of CORPUS_SIDES once, in seeded order, so every
    prefix of the walk has nearly the same size mix whatever the seed."""
    cats = list(DistortionCategory)
    items = []
    sides: list[int] = []
    for i in range(CORPUS_SIZE):
        rng = _rng(seed, i, 3)
        if not sides:
            sides = [int(s) for s in _rng(seed, i, 4).permutation(CORPUS_SIDES)]
        side = sides.pop()
        regions, diagnoses = [], []
        for j in range(int(rng.integers(3, 8))):
            x, y = (int(v) for v in rng.integers(0, side, 2))
            cat = cats[int(rng.integers(0, len(cats)))]
            words = _description(rng)
            regions.append(
                {
                    "annotator": "a%d" % (j % 3),
                    "category": cat.value,
                    "description": " ".join(words),
                    "id": "r%d" % j,
                    "x": x,
                    "y": y,
                }
            )
            # a noisy prediction: right category 70% of the time, about a
            # quarter of the words replaced
            pred_cat = cat if rng.random() < 0.7 else cats[int(rng.integers(0, len(cats)))]
            pred_words = [
                w if rng.random() < 0.75 else _WORDS[int(rng.integers(0, len(_WORDS)))]
                for w in words
            ]
            diagnoses.append(
                Diagnosis(
                    region_id="r%d" % j,
                    category=pred_cat,
                    description=" ".join(pred_words),
                    severity=float(rng.random()),
                )
            )
        image_id = "img%05d" % i
        record = {
            "height": side,
            "image": "images/%s.pnm" % image_id,
            "image_id": image_id,
            "prompt": "prompt %d" % i,
            "regions": regions,
            "width": side,
        }
        # continuous map: noise plus a bump near each region, all values distinct
        pred = 0.5 * rng.random((side, side))
        yy, xx = np.mgrid[0:side, 0:side]
        for reg in regions:
            jx, jy = rng.normal(0.0, 2.0, 2)
            d2 = (xx - reg["x"] - jx) ** 2 + (yy - reg["y"] - jy) ** 2
            pred += 0.5 * np.exp(-d2 / (2.0 * (side / 20.0) ** 2))
        pred = (pred - pred.min()) / (pred.max() - pred.min())
        items.append(
            CorpusItem(
                line=json.dumps(record, sort_keys=True).encode(),
                image_id=image_id,
                pred_fsal=write_float_grid(FloatGrid.from_array(pred.astype(np.float32))),
                diagnoses=tuple(diagnoses),
            )
        )
    return tuple(items)
