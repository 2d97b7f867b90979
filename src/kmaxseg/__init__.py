"""Toy-scale mask-transformer panoptic segmentation on a numpy autodiff core.

The package groups into:

* ``tensor`` / ``gradcheck`` - dtype-preserving tensors with reverse-mode
  autodiff (float64 for training, float32 for evaluation) and float64
  finite-difference verification,
* ``layers`` - the parameter registry (naming, initialization, weight-decay
  policy) and the affine and layer-norm layers built on it,
* ``kernels`` - the softmax attention path, the hard-assignment (k-means)
  map the decoder runs, and Lloyd k-means as its oracle,
* ``decoder`` / ``model`` - decoder blocks with deep-supervision heads and
  the full encoder/pyramid/cluster-path model, which validates its config,
  runs its blocks over the pyramid strides its schedule names, and has
  ``astype`` for a float32 copy and ``twin`` for the kept float32 copy
  that evaluation and rendering refill and run,
* ``training`` - bipartite matching, the loss suite, AdamW and the train
  loop. ``AdamW.step(loss, lr)`` runs the backward pass and updates each
  parameter block from inside it (``Tensor.backward(on_final)``) as soon as
  its gradients are final, and frees them,
* ``panoptic`` - the per-pixel panoptic labeling and the set prediction,
* ``metrics`` - mask-wise merging, panoptic quality, mIoU, and
  ``evaluate_model``, which scores the model's float32 twin. It runs the
  forward passes and merges in contiguous shares, one per usable CPU and
  none under ``MIN_SHARE`` images (a forked child costs about two images of
  work), with forked children on Linux and in one share where ``os.fork``
  is missing or the images are too few. It then scores every image in its
  original order in one process, so results are bitwise those of one share,
* ``data`` - deterministic synthetic panoptic scenes and their fixed class
  table, ``CLASS_TABLE``,
* ``config`` / ``cli`` - configuration files, with the one model-section
  check in ``ModelConfig.validate``, and the command-line tools.
"""

from .config import Config, ModelConfig, load_config, parse_config, serialize_config
from .data import CLASS_TABLE, SceneSpec, SyntheticDataset, augment_flip, generate
from .decoder import KMaxDecoderBlock
from .gradcheck import grad_check
from .kernels import PixelFeatures, ProjectionWeights, lloyd_kmeans
from .layers import Affine, LayerNorm, Params
from .metrics import evaluate_model, evaluation_report, merge_masks, panoptic_quality
from .model import KMaxModel
from .panoptic import VOID, PanopticMap, PredictionSet
from .tensor import GradTape, Tensor, argmax_onehot, no_grad, softmax
from .training import (AdamW, Matching, hungarian_match, matching_cost, total_loss,
                       train_loop)

__version__ = "0.1.0"
