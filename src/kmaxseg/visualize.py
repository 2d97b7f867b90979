"""Rendering of per-stage pixel-cluster assignments and panoptic results.

Cluster colors are a deterministic function of the cluster index (golden
angle hue walk), so two renderings of the same model state are identical.
Stage maps show which cluster each pixel's features were assigned to at
that decoder stage; the final image colors ``metrics.label_image``'s map.
"""

from __future__ import annotations

import colorsys
import os

import numpy as np

from .metrics import label_image
from .panoptic import VOID
from .ppm import write_ppm

_GOLDEN_ANGLE = 0.6180339887498949


def cluster_color(index):
    """Deterministic distinct-ish RGB color for a cluster or instance index."""
    hue = (index * _GOLDEN_ANGLE) % 1.0
    sat = 0.55 + 0.35 * ((index * 7919) % 3) / 2.0
    val = 0.95 - 0.25 * ((index * 104729) % 2)
    return np.array(colorsys.hsv_to_rgb(hue, sat, val))


def assignment_image(affinity, height, width, upscale):
    """Color the per-pixel argmax cluster of an (N, HW) affinity, ``upscale``-fold."""
    labels = np.asarray(affinity).argmax(axis=0).reshape(height, width)
    img = np.zeros((height, width, 3))
    for cluster in np.unique(labels):
        img[labels == cluster] = cluster_color(int(cluster))
    return np.repeat(np.repeat(img, upscale, 0), upscale, 1)


def panoptic_image(pmap):
    """Color a panoptic labeling; things vary by instance, stuff by class."""
    index, keys = pmap.segment_index()
    colors = np.array([np.zeros(3) if cls == VOID else cluster_color(cls * 31 + inst)
                       for cls, inst in keys.tolist()]).reshape(-1, 3)
    return colors[index].reshape(pmap.height, pmap.width, 3)


def render_stages(model, image, infer_cfg, thing_ids, out_dir):
    """Write one assignment PPM per decoder stage plus the final panoptic map.

    The image is labelled by ``metrics.label_image`` on a float32 copy of
    ``model`` cast for this call, the function and copy ``evaluate_model``
    labels with, so the maps drawn are the maps evaluated.
    Returns the list of written paths (stage images in order, final last).
    """
    os.makedirs(out_dir, exist_ok=True)
    merged, aux = label_image(model.astype(np.float32), image, infer_cfg, thing_ids)
    side = image.shape[0]
    images = {f"stage_{stage:02d}.ppm": assignment_image(a.affinity, a.height, a.width,
                                                         upscale=side // a.height)
              for stage, a in enumerate(aux)}
    images["final_panoptic.ppm"] = panoptic_image(merged.upsample(side // merged.height))
    paths = [os.path.join(out_dir, name) for name in images]
    for path, img in zip(paths, images.values()):
        write_ppm(path, img)
    return paths
