"""Minimal binary PPM (P6) image writing."""

from __future__ import annotations

import numpy as np


def write_ppm(path, image):
    """Write an (H, W, 3) image as binary PPM; floats are taken as [0, 1]."""
    img = np.asarray(image)
    if img.dtype != np.uint8:
        img = (np.clip(img, 0.0, 1.0) * 255.0).round().astype(np.uint8)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
