"""The scene that the `run-loop` golden trace was computed from. It needs
numpy and retouchkit but not pytest, so a runtime install can write it too:

    python tests/multi_bump_scene.py IMAGE.pnm FIELD.fsal
"""

import sys
from pathlib import Path

import numpy as np

from retouchkit.media_io import FloatGrid, ImageBuffer, write_float_grid, write_pnm


def write_multi_bump_scene(image_path, field_path):
    """A 24x24 gray ramp whose hidden field has bumps of 0.95, 0.8 and 0.65."""
    ramp = np.add.outer(np.arange(24) * 7, np.arange(24) * 3) % 251
    Path(image_path).write_bytes(write_pnm(ImageBuffer.from_array(ramp.astype(np.uint8))))
    field = np.zeros((24, 24), dtype=np.float32)
    field[2:5, 3:7] = 0.95
    field[10:14, 15:18] = 0.8
    field[18:21, 4:6] = 0.65
    Path(field_path).write_bytes(write_float_grid(FloatGrid.from_array(field)))


if __name__ == "__main__":
    write_multi_bump_scene(sys.argv[1], sys.argv[2])
