"""Toy-scale mask-transformer panoptic segmentation on a numpy autodiff core.

Importing it sets the BLAS thread counts to 1 unless set, before numpy loads.
The package groups into:

* ``tensor`` / ``gradcheck`` - dtype-preserving tensors with reverse-mode
  autodiff over only the ops the model runs (float64 for training, float32
  for evaluation) and float64 finite-difference verification,
* ``layers`` - the parameter registry (naming, initialization, weight-decay
  policy) and the affine and layer-norm layers built on it; ``Params.qkv``
  declares the three projections of an attention sublayer,
* ``decoder`` / ``model`` - decoder blocks with deep-supervision heads,
  the hard-assignment (k-means) kernel they run in place of
  ``tensor.softmax_attention`` and the ``PixelFeatures`` they read, and
  the full encoder/pyramid/cluster-path model, all of whose widths derive
  from ``d``, which validates its config,
  runs its blocks over the pyramid strides its schedule names, and has
  ``astype`` for the float32 copy that evaluation and rendering cast per
  call and run,
* ``checkpoint`` - a model's exact float64 parameters on disk, behind a
  checksummed header of its config and a digest of its parameter layout,
  which one function builds for saving and loading compares byte for byte,
* ``training`` - bipartite matching, the whole loss as one tape node, AdamW
  and the train loop. ``total_loss`` takes the full-resolution ground
  truth, samples it to the prediction's grid and matches inside the loss.
  ``AdamW.step(loss, lr)`` runs the backward pass and updates each parameter
  block from inside it (``Tensor.backward(on_final)``) as soon as its
  gradients are final, and frees them,
* ``panoptic`` - the per-pixel panoptic labeling and the set prediction,
* ``metrics`` - mask-wise merging, ``label_image`` (a float32 copy's forward
  and merge of one image, for evaluation and rendering alike), ``PQStat``
  (panoptic quality with its SQ and RQ split, and dataset-level mIoU, all
  read from one segment histogram per image), ``run_in_shares`` (a list's
  contiguous shares, one per usable CPU, run in forked children; a call
  nested in a share runs in place), and ``evaluate_model``, which labels
  images through both and scores them with ``PQStat`` in order in one
  process, so results are bitwise those of one share,
* ``acceptance`` - the release criteria and their oracles, among them one
  Lloyd step (``lloyd_step``) for criterion 2's k-means check;
  ``train_grid`` trains the runs of criteria 7-9 and ``kmaxseg ablate``
  through ``run_in_shares``,
* ``data`` - deterministic synthetic panoptic scenes and their fixed class
  table, ``CLASS_TABLE``,
* ``config`` / ``cli`` - configuration files, with the one check of each
  validated section in ``ModelConfig.validate`` and ``InferConfig.validate``,
  and the command-line tools.
"""

import os

# 2-core VM: two forked train shares ran at 1.77-2.01x serial speed with one BLAS thread
# each, 0.44-0.58x with OpenBLAS's default two; a lone run stepped 3-20 % faster with one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .config import Config, ModelConfig, load_config, parse_config, serialize_config
from .data import CLASS_TABLE, SceneSpec, SyntheticDataset, augment_flip, generate
from .decoder import KMaxDecoderBlock, PixelFeatures
from .gradcheck import grad_check
from .layers import Affine, LayerNorm, Params
from .metrics import evaluate_model, evaluation_report, merge_masks, panoptic_quality
from .model import KMaxModel
from .panoptic import VOID, PanopticMap, PredictionSet
from .tensor import GradTape, Tensor, argmax_onehot, no_grad
from .training import AdamW, hungarian_match, matching_cost, total_loss, train_loop

__version__ = "0.1.0"
