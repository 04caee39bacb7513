"""Network container and built-in topologies."""

import pytest

from repro.errors import ConfigError
from repro.nn.layers import ConvLayer, FullyConnectedLayer
from repro.nn.networks import (
    Network,
    caffenet,
    jpeg_autoencoder,
    large_bank_layer,
    mlp,
    validation_mlp,
    vgg16,
)


class TestNetwork:
    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Network(name="empty", layers=())

    def test_fc_chain_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="input mismatch"):
            Network(
                "bad",
                (FullyConnectedLayer(10, 20), FullyConnectedLayer(21, 5)),
            )

    def test_conv_channel_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="channel mismatch"):
            Network(
                "bad",
                (
                    ConvLayer(3, 16, kernel=3, input_size=32, padding=1),
                    ConvLayer(8, 16, kernel=3, input_size=32, padding=1),
                ),
                network_type="CNN",
            )

    def test_conv_feature_map_mismatch_rejected(self):
        with pytest.raises(ConfigError, match="feature-map mismatch"):
            Network(
                "bad",
                (
                    ConvLayer(3, 16, kernel=3, input_size=32, padding=1,
                              pooling=2),
                    ConvLayer(16, 16, kernel=3, input_size=32, padding=1),
                ),
                network_type="CNN",
            )

    def test_conv_after_fc_rejected(self):
        with pytest.raises(ConfigError, match="conv after non-conv"):
            Network(
                "bad",
                (
                    FullyConnectedLayer(10, 27),
                    ConvLayer(3, 4, kernel=3, input_size=3),
                ),
            )

    def test_iteration_and_len(self):
        net = mlp([4, 3, 2])
        assert len(net) == 2
        assert [l.weight_shape for l in net] == [(3, 4), (2, 3)]


class TestBuilders:
    def test_mlp_layer_count(self):
        assert mlp([10, 20, 30]).depth == 2

    def test_mlp_needs_two_levels(self):
        with pytest.raises(ConfigError):
            mlp([10])

    def test_validation_mlp_matches_table2_workload(self):
        net = validation_mlp()
        assert net.depth == 2
        assert all(l.weight_shape == (128, 128) for l in net)

    def test_jpeg_autoencoder_shape(self):
        net = jpeg_autoencoder()
        assert [l.weight_shape for l in net] == [(16, 64), (64, 16)]

    def test_large_bank_layer_shape(self):
        net = large_bank_layer()
        assert net.depth == 1
        assert net.layers[0].weight_shape == (1024, 2048)

    def test_caffenet_structure(self):
        net = caffenet()
        assert net.network_type == "CNN"
        assert net.depth == 8
        conv_layers = [l for l in net if isinstance(l, ConvLayer)]
        assert len(conv_layers) == 5
        # conv5 output (256 x 6 x 6) feeds fc6.
        assert net.layers[5].weight_shape == (4096, 9216)

    def test_vgg16_structure(self):
        net = vgg16()
        assert net.depth == 16
        conv_layers = [l for l in net if isinstance(l, ConvLayer)]
        assert len(conv_layers) == 13
        assert net.layers[13].weight_shape == (4096, 25088)
        assert net.output_values == 1000
        assert net.input_values == 3 * 224 * 224

    def test_vgg16_feature_map_chain(self):
        """Every conv layer's input matches its predecessor's output."""
        net = vgg16()
        convs = [l for l in net if isinstance(l, ConvLayer)]
        for prev, cur in zip(convs, convs[1:]):
            assert cur.input_size == prev.output_size
            assert cur.in_channels == prev.out_channels

    def test_total_weights_vgg16(self):
        # VGG-16 has ~138 M parameters (ex biases).
        assert 130e6 < vgg16().total_weights < 140e6


class TestDescribe:
    def test_describe_lists_every_layer(self):
        text = validation_mlp().describe()
        assert "validation-mlp-128" in text
        assert text.count("fc") >= 2
        assert "128x128" in text

    def test_describe_vgg_totals(self):
        text = vgg16().describe()
        assert "16 layers" in text
        assert "conv" in text and "fc" in text
