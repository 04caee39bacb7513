"""Neuromorphic-network substrate: layer/network descriptions and inference.

The simulator consumes *descriptions* of networks (shapes, precisions,
layer kinds) rather than trained weights — the performance and accuracy
models only need the structure (Sec. III).  This package provides:

* :mod:`~repro.nn.layers` — fully-connected and convolutional layer specs
  with the derived quantities the mapper needs (weight-matrix shape,
  compute passes per sample, output geometry).
* :mod:`~repro.nn.networks` — the :class:`~repro.nn.networks.Network`
  container plus the built-in topologies used in the paper's evaluation:
  the 3-layer validation MLP, the 64-16-64 JPEG autoencoder, the
  2048x1024 large-bank layer, CaffeNet, and VGG-16.
* :mod:`~repro.nn.quantize` — fixed-point quantization and the
  weight-to-conductance-level mapping.
* :mod:`~repro.nn.inference` — numpy reference inference with crossbar
  error injection, used to validate the accuracy model end to end.
"""

from repro.nn.layers import ConvLayer, FullyConnectedLayer, LayerSpec
from repro.nn.networks import (
    Network,
    caffenet,
    jpeg_autoencoder,
    large_bank_layer,
    mlp,
    validation_mlp,
    vgg16,
)
from repro.nn.quantize import (
    dequantize,
    quantize,
    weight_to_cell_levels,
)
from repro.nn.inference import MlpInference
from repro.nn.snn import SnnOperatingPoint, SnnTimingModel
from repro.nn.trainer import (
    MlpTrainer,
    TrainResult,
    classification_accuracy,
    make_cluster_dataset,
)
from repro.nn.workloads import (
    crossbar_workload,
    image_blocks,
    random_inputs,
    random_weights,
)

__all__ = [
    "LayerSpec",
    "FullyConnectedLayer",
    "ConvLayer",
    "Network",
    "mlp",
    "validation_mlp",
    "jpeg_autoencoder",
    "large_bank_layer",
    "caffenet",
    "vgg16",
    "quantize",
    "dequantize",
    "weight_to_cell_levels",
    "MlpInference",
    "SnnTimingModel",
    "SnnOperatingPoint",
    "MlpTrainer",
    "TrainResult",
    "classification_accuracy",
    "make_cluster_dataset",
    "random_weights",
    "random_inputs",
    "image_blocks",
    "crossbar_workload",
]
