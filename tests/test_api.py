"""Public API facade: everything advertised in ``repro.__all__`` works."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_version_string():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_quickstart_docstring_flow():
    """The module docstring's quickstart must actually run."""
    config = repro.SimConfig(crossbar_size=128, cmos_tech=45)
    accelerator = repro.Accelerator(
        config, repro.mlp([784, 256, 10], name="demo")
    )
    summary = accelerator.summary()
    assert summary.area > 0
    assert 0 <= summary.worst_error_rate <= 1


@pytest.mark.parametrize(
    "module",
    [
        "repro.tech",
        "repro.circuits",
        "repro.spice",
        "repro.accuracy",
        "repro.nn",
        "repro.arch",
        "repro.dse",
        "repro.related",
        "repro.functional",
        "repro.cli",
    ],
)
def test_subpackages_importable(module):
    mod = importlib.import_module(module)
    assert mod.__doc__, f"{module} needs a module docstring"


def test_subpackage_alls_resolve():
    for name in (
        "repro.tech", "repro.circuits", "repro.spice", "repro.accuracy",
        "repro.nn", "repro.arch", "repro.dse", "repro.related",
        "repro.functional",
    ):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert hasattr(module, symbol), f"{name}.{symbol}"


def test_exceptions_form_a_hierarchy():
    for exc in (repro.ConfigError, repro.TechnologyError,
                repro.MappingError, repro.SolverError,
                repro.ExplorationError):
        assert issubclass(exc, repro.MnsimError)


def test_doctests_in_documented_modules():
    """Docstring examples must stay executable."""
    import doctest

    from repro import units
    from repro.arch import isa

    for module in (units, isa):
        failures, _tests = doctest.testmod(module)
        assert failures == 0, f"doctest failures in {module.__name__}"


def _cli(*argv):
    return f"import repro.cli\nassert repro.cli.main({list(argv)!r}) == 0"


@pytest.mark.parametrize(
    "statement, required, forbidden, max_repro",
    [
        pytest.param("import repro", (), "scipy", 71, id="import-repro"),
        pytest.param("import repro.cli", (), "scipy", 72, id="import-cli"),
        pytest.param(
            "import repro.service.server", (), "scipy", 80,
            id="import-server",
        ),
        pytest.param(
            _cli("simulate", "validation-mlp"), (), "scipy", 77,
            id="simulate",
        ),
        pytest.param(
            _cli("explore", "mlp:32,16", "--sizes", "32", "64",
                 "--degrees", "1", "--wires", "45"),
            (), "scipy", 77, id="explore",
        ),
        pytest.param(
            _cli("campaign", "validate",
                 str(REPO_ROOT / "examples/campaigns/fault-sweep.json")),
            (), "scipy", 86, id="campaign-validate",
        ),
        pytest.param(
            _cli("montecarlo", "--size", "8", "--trials", "2"),
            ("scipy.sparse",), "scipy.optimize", 89, id="montecarlo",
        ),
    ],
)
def test_scipy_loaded_only_where_called(
    statement, required, forbidden, max_repro
):
    """Solver-free entry points must not pay scipy's import cost.

    Each case runs in a fresh interpreter, then lists the scipy and
    ``repro`` modules it ended up holding.  Only the circuit solver
    (``repro.spice``) and the calibration fit need scipy.  The ``repro``
    count is capped at what each entry point loads today, so a package
    re-export that drags a module into every cold command fails here.
    """
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('scipy', 'repro'))))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = json.loads(result.stdout.splitlines()[-1])
    for module in required:
        assert module in loaded
    offending = [
        m for m in loaded
        if m == forbidden or m.startswith(forbidden + ".")
    ]
    assert offending == []
    repro_modules = [m for m in loaded if m.split(".")[0] == "repro"]
    assert len(repro_modules) <= max_repro, repro_modules
