"""Rendering of per-stage pixel-cluster assignments and panoptic results.

Cluster colors are a deterministic function of the cluster index (golden
angle hue walk), so two renderings of the same model state are identical.
Stage maps show which cluster each pixel's features were assigned to at
that decoder stage; the final image colors the merged panoptic prediction.
"""

from __future__ import annotations

import colorsys
import os

import numpy as np

from .metrics import merge_masks
from .panoptic import VOID
from .ppm import write_ppm
from .tensor import no_grad

_GOLDEN_ANGLE = 0.6180339887498949


def cluster_color(index):
    """Deterministic distinct-ish RGB color for a cluster or instance index."""
    hue = (index * _GOLDEN_ANGLE) % 1.0
    sat = 0.55 + 0.35 * ((index * 7919) % 3) / 2.0
    val = 0.95 - 0.25 * ((index * 104729) % 2)
    return np.array(colorsys.hsv_to_rgb(hue, sat, val))


def assignment_image(affinity, height, width, upscale=1):
    """Color the per-pixel argmax cluster of an (N, HW) affinity matrix."""
    labels = np.asarray(affinity).argmax(axis=0).reshape(height, width)
    img = np.zeros((height, width, 3))
    for cluster in np.unique(labels):
        img[labels == cluster] = cluster_color(int(cluster))
    if upscale > 1:
        img = np.repeat(np.repeat(img, upscale, 0), upscale, 1)
    return img


def panoptic_image(pmap):
    """Color a panoptic labeling; things vary by instance, stuff by class."""
    index, keys = pmap.segment_index()
    colors = np.array([np.zeros(3) if cls == VOID else cluster_color(cls * 31 + inst)
                       for cls, inst in keys.tolist()]).reshape(-1, 3)
    return colors[index].reshape(pmap.height, pmap.width, 3)


def render_stages(model, image, infer_cfg, thing_ids, out_dir):
    """Write one assignment PPM per decoder stage plus the final panoptic map.

    The forward pass runs on a float32 copy of ``model`` cast for this
    call, as ``evaluate_model``'s is, so the maps drawn are the maps
    evaluated.
    Returns the list of written paths (stage images in order, final last).
    """
    os.makedirs(out_dir, exist_ok=True)
    with no_grad():
        pred, aux, _ = model.astype(np.float32).forward(image)
    side = image.shape[0]
    paths = []
    for stage, a in enumerate(aux):
        img = assignment_image(a.affinity, a.height, a.width,
                               upscale=side // a.height)
        path = os.path.join(out_dir, f"stage_{stage:02d}.ppm")
        write_ppm(path, img)
        paths.append(path)
    merged = merge_masks(pred, conf_thresh=infer_cfg.conf_thresh,
                         overlap_thresh=infer_cfg.overlap_thresh,
                         thing_ids=thing_ids,
                         mask_binarize=infer_cfg.mask_binarize)
    final = panoptic_image(merged.upsample(side // pred.height))
    final_path = os.path.join(out_dir, "final_panoptic.ppm")
    write_ppm(final_path, final)
    paths.append(final_path)
    return paths
