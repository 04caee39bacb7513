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
    return (
        "import repro.cli\n"
        "try:\n"
        f"    code = repro.cli.main({list(argv)!r})\n"
        "except SystemExit as exit_:  # --help\n"
        "    code = exit_.code\n"
        "assert code == 0, code"
    )


#: What a cold command without ``--cache-dir`` or ``--jobs`` never needs:
#: the solver stack, the cache's database, the process pool, and lint.
_LEAN = ("scipy", "sqlite3", "multiprocessing", "repro.analysis")
#: What a cold solver run never needs: the calibration fit, the cache,
#: the pool and lint.
_SOLVER = ("scipy.optimize", "sqlite3", "multiprocessing", "repro.analysis")
#: A cold sweep (Monte Carlo, faults) calls ``run_jobs`` directly and
#: never loads the campaign package either.
_SOLVER_SWEEP = _SOLVER + ("repro.campaign",)


@pytest.mark.parametrize(
    "statement, required, forbidden, max_repro",
    [
        pytest.param(
            "import repro", (), _LEAN + ("numpy",), 2, id="import-repro",
        ),
        pytest.param(
            "import repro.cli", (), _LEAN + ("numpy",), 4, id="import-cli",
        ),
        pytest.param(
            _cli("--help"), (), _LEAN + ("numpy",), 9, id="help",
        ),
        pytest.param(
            "import repro.service.server", (), ("scipy",), 33,
            id="import-server",
        ),
        pytest.param(
            _cli("simulate", "validation-mlp"), (),
            _LEAN + ("repro.campaign",), 50, id="simulate",
        ),
        pytest.param(
            _cli("explore", "mlp:32,16", "--sizes", "32", "64",
                 "--degrees", "1", "--wires", "45"),
            (), _LEAN + ("repro.campaign",), 50, id="explore",
        ),
        pytest.param(
            _cli("campaign", "validate",
                 str(REPO_ROOT / "examples/campaigns/fault-sweep.json")),
            (), _LEAN, 31, id="campaign-validate",
        ),
        pytest.param(
            _cli("campaign", "run",
                 str(REPO_ROOT / "examples/campaigns/fault-sweep.json"),
                 "--no-cache", "-o", "report.json"),
            ("scipy.sparse",), _SOLVER + ("repro.campaign.dag",), 39,
            id="campaign-run",
        ),
        pytest.param(
            _cli("montecarlo", "--size", "8", "--trials", "2"),
            ("scipy.sparse",), _SOLVER_SWEEP, 37, id="montecarlo",
        ),
        pytest.param(
            _cli("faults", "--size", "8", "--trials", "2"),
            ("scipy.sparse",), _SOLVER_SWEEP, 31, id="faults",
        ),
    ],
)
def test_scipy_loaded_only_where_called(
    statement, required, forbidden, max_repro, tmp_path
):
    """Entry points load only the modules their work needs.

    Each case runs in a fresh interpreter, then lists the modules it
    ended up holding.  Only the circuit solver (``repro.spice``) and the
    calibration fit need scipy; only a cache needs ``sqlite3``, only a
    process pool ``multiprocessing``, and only ``repro lint`` the
    analysis package.  The ``repro`` count is capped at what each entry
    point loads today, so a package re-export or a module-top import
    that drags a layer into every cold command fails here.
    """
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr[-2000:]
    loaded = json.loads(result.stdout.splitlines()[-1])
    for module in required:
        assert module in loaded
    offending = [
        m for m in loaded
        if any(m == f or m.startswith(f + ".") for f in forbidden)
    ]
    assert offending == []
    repro_modules = [m for m in loaded if m.split(".")[0] == "repro"]
    assert len(repro_modules) <= max_repro, repro_modules


#: Packages whose ``__init__`` re-exports lazily (repro._lazy).
LAZY_PACKAGES = [
    "repro", "repro.arch", "repro.nn", "repro.dse", "repro.runtime",
    "repro.campaign", "repro.service", "repro.faults", "repro.accuracy",
    "repro.spice", "repro.analysis",
]


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_reexports_behave_like_eager_ones(name):
    package = importlib.import_module(name)
    for symbol in package.__all__:
        value = getattr(package, symbol)
        if symbol == "__version__":
            continue
        # The very object of the defining module, not a copy.
        holders = [
            module for module_name, module in list(sys.modules.items())
            if module_name.startswith(name + ".")
            and vars(module).get(symbol) is value
        ]
        assert holders, f"{name}.{symbol}"
        home = getattr(value, "__module__", None)
        if home is not None and not isinstance(value, type(sys)):
            assert getattr(sys.modules[home], symbol) is value
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_lazy_reexport_identity():
    import repro.config
    import repro.dse.explorer

    assert repro.SimConfig is repro.config.SimConfig
    assert repro.explore is repro.dse.explorer.explore
