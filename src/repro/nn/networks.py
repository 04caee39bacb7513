"""Network container and the built-in topologies of the evaluation.

A :class:`Network` is an ordered chain of weight-bearing layers
(:class:`~repro.nn.layers.FullyConnectedLayer` /
:class:`~repro.nn.layers.ConvLayer`), validated for shape consistency at
construction.  Builders cover every workload the paper evaluates:

* :func:`validation_mlp` — the 3-layer NN with two 128x128 weight layers
  used for the Table II SPICE validation;
* :func:`jpeg_autoencoder` — the 64-16-64 approximate-computing network
  used to validate the accuracy model (Sec. VII.A);
* :func:`large_bank_layer` — the 2048x1024 fully-connected layer of the
  large-computation-bank case study (Tables IV/V, Figs. 7-9a);
* :func:`caffenet` — the AlexNet/CaffeNet CNN the hierarchy discussion
  references (Sec. III.A);
* :func:`vgg16` — the deep-CNN case study (Table VI, Fig. 9b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigError
from repro.nn.layers import ConvLayer, FullyConnectedLayer, LayerSpec


@dataclass(frozen=True)
class Network:
    """An ordered, shape-checked chain of weight-bearing layers.

    Attributes
    ----------
    name:
        Display name.
    layers:
        The layer specs, first to last.
    network_type:
        ``DNN`` / ``SNN`` / ``CNN`` — selects the reference neuron.
    """

    name: str
    layers: Tuple[LayerSpec, ...]
    network_type: str = "DNN"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ConfigError("a network needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        self._validate_chain()

    def _validate_chain(self) -> None:
        for index in range(1, len(self.layers)):
            prev, cur = self.layers[index - 1], self.layers[index]
            if isinstance(cur, ConvLayer):
                if not isinstance(prev, ConvLayer):
                    raise ConfigError(
                        f"layer {index}: conv after non-conv is unsupported"
                    )
                if cur.in_channels != prev.out_channels:
                    raise ConfigError(
                        f"layer {index}: channel mismatch "
                        f"({cur.in_channels} != {prev.out_channels})"
                    )
                if cur.input_size != prev.output_size:
                    raise ConfigError(
                        f"layer {index}: feature-map mismatch "
                        f"({cur.input_size} != {prev.output_size})"
                    )
            else:
                if cur.weight_shape[1] != prev.output_values:
                    raise ConfigError(
                        f"layer {index}: input mismatch "
                        f"({cur.weight_shape[1]} != {prev.output_values})"
                    )

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of computation banks (``Network_Depth`` in Table I)."""
        return len(self.layers)

    @property
    def input_values(self) -> int:
        """Values per sample entering the accelerator."""
        return self.layers[0].input_values

    @property
    def output_values(self) -> int:
        """Values per sample leaving the accelerator."""
        return self.layers[-1].output_values

    @property
    def total_weights(self) -> int:
        """Total weights across all layers."""
        return sum(layer.weight_count for layer in self.layers)

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def describe(self) -> str:
        """Human-readable per-layer summary table."""
        from repro.report import format_table

        rows = []
        for index, layer in enumerate(self.layers):
            out_features, in_features = layer.weight_shape
            rows.append([
                index,
                layer.kind,
                f"{out_features}x{in_features}",
                f"{layer.weight_count:,}",
                f"{layer.compute_passes:,}",
                f"{layer.output_values:,}",
            ])
        table = format_table(
            ["layer", "kind", "weights", "params", "passes/sample",
             "outputs"],
            rows,
        )
        return (
            f"{self.name} ({self.network_type}, {self.depth} layers, "
            f"{self.total_weights:,} weights)\n{table}"
        )


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------
def mlp(
    sizes: Sequence[int],
    name: str = "mlp",
    activation: str = "sigmoid",
    network_type: str = "DNN",
) -> Network:
    """A fully-connected network with the given neuron counts per level.

    ``sizes = [a, b, c]`` builds two weight layers ``a -> b -> c`` (the
    paper counts neuron levels, so it would call this a "3-layer NN").
    """
    if len(sizes) < 2:
        raise ConfigError("an MLP needs at least two neuron levels")
    layers: List[LayerSpec] = [
        FullyConnectedLayer(sizes[i], sizes[i + 1], activation=activation)
        for i in range(len(sizes) - 1)
    ]
    return Network(name=name, layers=tuple(layers), network_type=network_type)


def validation_mlp() -> Network:
    """The Table II validation workload: two 128x128 weight layers."""
    return mlp([128, 128, 128], name="validation-mlp-128")


def jpeg_autoencoder() -> Network:
    """The 64-16-64 JPEG-encoding network of the accuracy validation."""
    return mlp([64, 16, 64], name="jpeg-autoencoder-64-16-64")


def large_bank_layer() -> Network:
    """The 2048x1024 fully-connected layer of the Table IV/V case study."""
    return mlp([2048, 1024], name="large-bank-2048x1024")


def caffenet() -> Network:
    """CaffeNet/AlexNet with non-overlapping pooling approximations.

    The paper's Sec. III.A counts CaffeNet as seven computation banks by
    its layer-merging convention; this builder keeps all eight weight
    layers of the canonical topology (5 conv + 3 FC) — the extra bank
    only adds to the totals and does not change any trend.
    """
    layers: Tuple[LayerSpec, ...] = (
        ConvLayer(3, 96, kernel=11, input_size=227, stride=4, pooling=2),
        ConvLayer(96, 256, kernel=5, input_size=27, padding=2, pooling=2),
        ConvLayer(256, 384, kernel=3, input_size=13, padding=1),
        ConvLayer(384, 384, kernel=3, input_size=13, padding=1),
        ConvLayer(384, 256, kernel=3, input_size=13, padding=1, pooling=2),
        FullyConnectedLayer(256 * 6 * 6, 4096, activation="relu"),
        FullyConnectedLayer(4096, 4096, activation="relu"),
        FullyConnectedLayer(4096, 1000, activation="none"),
    )
    return Network(name="caffenet", layers=layers, network_type="CNN")


def vgg16() -> Network:
    """VGG-16 on 224x224 inputs (Table VI / Fig. 9b case study)."""
    conv_plan = [
        # (in_ch, out_ch, input_size, pool_after)
        (3, 64, 224, False),
        (64, 64, 224, True),
        (64, 128, 112, False),
        (128, 128, 112, True),
        (128, 256, 56, False),
        (256, 256, 56, False),
        (256, 256, 56, True),
        (256, 512, 28, False),
        (512, 512, 28, False),
        (512, 512, 28, True),
        (512, 512, 14, False),
        (512, 512, 14, False),
        (512, 512, 14, True),
    ]
    layers: List[LayerSpec] = [
        ConvLayer(
            in_ch, out_ch, kernel=3, input_size=size, padding=1,
            pooling=2 if pool else 1,
        )
        for in_ch, out_ch, size, pool in conv_plan
    ]
    layers.extend(
        [
            FullyConnectedLayer(512 * 7 * 7, 4096, activation="relu"),
            FullyConnectedLayer(4096, 4096, activation="relu"),
            FullyConnectedLayer(4096, 1000, activation="none"),
        ]
    )
    return Network(name="vgg16", layers=tuple(layers), network_type="CNN")


#: The built-in topologies by their CLI and service spelling; ``mlp:a,b``
#: is the one parametric network besides them.
BUILTIN_NETWORKS = {
    "validation-mlp": validation_mlp,
    "jpeg": jpeg_autoencoder,
    "large-bank": large_bank_layer,
    "caffenet": caffenet,
    "vgg16": vgg16,
}
