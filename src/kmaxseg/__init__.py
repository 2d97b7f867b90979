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
  ``astype`` for the float32 copy evaluation runs,
* ``training`` - bipartite matching, the loss suite, AdamW, the train loop,
* ``panoptic`` - the per-pixel panoptic labeling and the set prediction,
* ``metrics`` - mask-wise merging, panoptic quality, mIoU, and
  ``evaluate_model``, which scores a float32 copy of the model,
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
