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

from repro._lazy import lazy_exports

__all__ = lazy_exports(globals(), {
    "repro.nn.layers": ["ConvLayer", "FullyConnectedLayer", "LayerSpec"],
    "repro.nn.networks": [
        "Network",
        "caffenet",
        "jpeg_autoencoder",
        "large_bank_layer",
        "mlp",
        "validation_mlp",
        "vgg16",
    ],
    "repro.nn.quantize": ["dequantize", "quantize", "weight_to_cell_levels"],
    "repro.nn.inference": ["MlpInference"],
    "repro.nn.snn": ["SnnOperatingPoint", "SnnTimingModel"],
    "repro.nn.trainer": [
        "MlpTrainer",
        "TrainResult",
        "classification_accuracy",
        "make_cluster_dataset",
    ],
    "repro.nn.workloads": [
        "crossbar_workload",
        "image_blocks",
        "random_inputs",
        "random_weights",
    ],
})
