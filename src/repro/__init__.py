"""MNSIM reproduction: a behavior-level simulator for memristor-based
neuromorphic computing accelerators.

Reimplementation of *MNSIM: Simulation Platform for Memristor-based
Neuromorphic Computing System* (Xia et al., DATE 2016): the three-level
accelerator hierarchy, area/power/latency models, the behavior-level
computing-accuracy model, a circuit-level crossbar solver for
validation, and design-space exploration.

Quickstart
----------
>>> from repro import SimConfig, Accelerator, mlp
>>> config = SimConfig(crossbar_size=128, cmos_tech=45)
>>> accelerator = Accelerator(config, mlp([784, 256, 10], name="demo"))
>>> summary = accelerator.summary()     # area/energy/latency/accuracy
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = lazy_exports(globals(), {
    "repro.config": ["SimConfig"],
    "repro.report": ["Performance", "ReportNode"],
    "repro.arch.accelerator": ["Accelerator", "AcceleratorSummary"],
    "repro.arch.bank": ["ComputationBank"],
    "repro.arch.unit": ["ComputationUnit"],
    "repro.arch.mapping": ["LayerMapping"],
    "repro.arch.isa": ["Controller", "Instruction", "Opcode", "assemble"],
    "repro.accuracy.model": ["AccuracyModel"],
    "repro.circuits.base": ["CustomModule"],
    "repro.circuits.registry": ["ModuleRegistry"],
    "repro.nn.networks": [
        "Network",
        "mlp",
        "validation_mlp",
        "jpeg_autoencoder",
        "large_bank_layer",
        "caffenet",
        "vgg16",
    ],
    "repro.nn.layers": ["FullyConnectedLayer", "ConvLayer"],
    "repro.dse.space": ["DesignSpace"],
    "repro.dse.explorer": [
        "DesignPoint",
        "explore",
        "optimal",
        "optimal_table",
        "pentagon_factors",
    ],
    "repro.errors": [
        "MnsimError",
        "ConfigError",
        "TechnologyError",
        "MappingError",
        "SolverError",
        "ExplorationError",
    ],
}) + ["__version__"]
