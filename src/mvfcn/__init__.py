"""Foreground segmentation engine: a hand-built multi-view receptive-field
fully convolutional encoder-decoder with manual backpropagation, plus the
thresholding, cleanup, and figure-of-merit tooling around it."""

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    EngineError,
    ShapeError,
)
from .graph import (
    LayerSpec,
    ModelGraph,
    backward,
    build_mvfcn,
    count_params,
    forward,
    infer_shapes,
    summary,
)
from .metrics import ConfusionCounts, confusion, evaluate_sequence, fom
from .postproc import otsu_threshold, remove_small_regions, threshold_global
from .rng import EngineRng
from .tensor import (
    BatchNormState,
    ConvSpec,
    TransposeConvSpec,
    batchnorm_backward,
    batchnorm_forward,
    concat_channels,
    conv2d_backward,
    conv2d_forward,
    convT2d_backward,
    convT2d_forward,
    dropout,
    dropout_backward,
    relu,
    relu_backward,
    resize_nearest,
    sigmoid,
    sigmoid_backward,
)
from .train import (
    AdamState,
    Sample,
    TrainConfig,
    adam_step,
    bce_loss,
    lr_at,
    ordered_split,
    train_loop,
)

__version__ = "0.1.0"
