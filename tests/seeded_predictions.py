"""The seeded FSAL1 predictions that the `evaluate-saliency` goldens were
computed from. It needs numpy and retouchkit but not pytest, so a runtime
install can write them too:

    python tests/seeded_predictions.py PRED_DIR
"""

import json
import sys
from pathlib import Path

import numpy as np

from retouchkit.media_io import FloatGrid, write_float_grid

DATASET = Path(__file__).parent / "data" / "synthetic50.jsonl"


def write_seeded_predictions(pred_dir):
    """One FSAL1 prediction per image of synthetic50.jsonl, seeded by its
    line number: continuous float32 values for even lines; for odd lines
    4 levels (heavy ties) with a first row of -0.0."""
    for i, line in enumerate(DATASET.read_text().splitlines()):
        rec = json.loads(line)
        arr = np.random.default_rng(i).random((rec["height"], rec["width"]), dtype=np.float32)
        if i % 2:
            arr = np.floor(arr * 4) / 4
            arr[0] = -0.0
        grid = FloatGrid.from_array(arr)
        (Path(pred_dir) / ("%s.fsal" % rec["image_id"])).write_bytes(write_float_grid(grid))


if __name__ == "__main__":
    write_seeded_predictions(sys.argv[1])
