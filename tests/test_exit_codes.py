"""One exit-code rule for every command.

Each :class:`~repro.errors.ReproError` class carries its exit code: 2 when
the request itself is bad, 1 when a well-formed run fails.
:func:`repro.cli.main` is the only place that maps an error to a code.
"""

import argparse

import pytest

from repro import cli, errors
from repro.serve import errors as serve_errors

EXIT_CODES = {
    "ReproError": 1,
    "ConfigurationError": 2,
    "GridError": 2,
    "DataflowError": 1,
    "StreamError": 1,
    "GraphError": 1,
    "ShiftBufferError": 1,
    "PortConflictError": 1,
    "ChunkingError": 2,
    "ResourceError": 1,
    "CapacityError": 1,
    "ScheduleError": 1,
    "CalibrationError": 1,
    "ExperimentError": 2,
    "LintError": 2,
    "AnalyzeError": 1,
    "FaultError": 1,
    "TransferError": 1,
    "RetryExhaustedError": 1,
    "WatchdogTimeout": 1,
    "ReplicaLostError": 1,
    "CheckpointError": 1,
    "TuneError": 2,
    "BackendError": 2,
    "ServeError": 1,
    "AdmissionError": 1,
    "OverloadError": 1,
    "DeadlineExceededError": 1,
    "FleetDownError": 1,
    "ReshardExhaustedError": 1,
    "SchedulerStallError": 1,
}

CLASSES = ([getattr(errors, name) for name in errors.__all__]
           + [getattr(serve_errors, name) for name in serve_errors.__all__])


def test_every_error_class_is_pinned():
    assert set(EXIT_CODES) == {cls.__name__ for cls in CLASSES}


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_of_each_class(cls):
    assert cls.exit_code == EXIT_CODES[cls.__name__]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_main_prints_one_line_and_returns_the_class_code(cls, monkeypatch,
                                                         capsys):
    def handler(args):
        raise cls("boom")

    monkeypatch.setitem(cli._COMMANDS, "devices", handler)
    assert cli.main(["devices"]) == EXIT_CODES[cls.__name__]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: boom\n"


# -- numeric-flag sweep ------------------------------------------------------

#: Small, fast base arguments per command; a swept flag replaces its own
#: entry here.
BASE = {
    "run": ["--cells", "16M"],
    "validate": ["--nx", "4", "--ny", "5", "--nz", "4"],
    "simulate": ["--nx", "4", "--ny", "5", "--nz", "4"],
    "scenarios": ["pw-advection", "--conformance"],
    "lint": ["--nx", "8", "--ny", "8", "--nz", "8"],
    "analyze": ["--nx", "6", "--ny", "9", "--nz", "5"],
    "chaos": ["--families", "fifo-corrupt", "--seeds", "1",
              "--nx", "6", "--ny", "9", "--nz", "5"],
    "trace": ["--nx", "6", "--ny", "9", "--nz", "5"],
    "metrics": ["--nx", "6", "--ny", "9", "--nz", "5"],
    "tune": ["--nx", "8", "--ny", "8", "--nz", "8", "--budget", "4"],
    "serve": ["--jobs", "4", "--nx", "6", "--ny", "9", "--nz", "5",
              "--chaos"],
}

#: Legal values: seeds of 0, Python-``random`` seeds (any integer), an
#: all-functional load and no measured refinement.
ACCEPTED = {
    ("validate", "--seed", "0"),
    ("simulate", "--seed", "0"),
    ("scenarios", "--seed", "0"),
    ("chaos", "--seed-base", "0"),
    ("trace", "--seed", "0"),
    ("metrics", "--seed", "0"),
    ("tune", "--seed", "0"),
    ("tune", "--seed", "-1"),
    ("tune", "--measure", "0"),
    ("serve", "--seed", "0"),
    ("serve", "--exact-fraction", "0"),
    ("serve", "--chaos-seed", "0"),
    ("serve", "--chaos-seed", "-1"),
}

#: Legal values whose run fails its check: a verdict, exit 1.
VERDICTS = {
    ("tune", "--expect-kernels", "0"),
    ("tune", "--expect-kernels", "-1"),
    ("scorecard", "--tolerance", "0"),
}


def _numeric_flags(types, values):
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    for command, sub in commands.choices.items():
        for action in sub._actions:
            if action.type in types:
                for value in values:
                    yield command, action.option_strings[-1], value


CASES = list(_numeric_flags((int, float), ("0", "-1")))
#: argparse's ``float`` also accepts the non-finite values; no float
#: option has a use for them.
NON_FINITE = list(_numeric_flags((float,), ("nan", "inf")))


def test_sweep_covers_every_numeric_flag():
    assert len(CASES) == 116
    assert ACCEPTED | VERDICTS <= set(CASES)
    assert len(NON_FINITE) == 12


def _exits(command, flag, value, tmp_path, capsys, expected):
    base = list(BASE.get(command, []))
    if flag in base:
        index = base.index(flag)
        del base[index:index + 2]
    if command == "trace":
        base += ["--out", str(tmp_path / "trace.json")]

    assert cli.main([command, *base, flag, value]) == expected
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if expected == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(("command", "flag", "value"), CASES,
                         ids=[" ".join(case) for case in CASES])
def test_zero_and_negative_values(command, flag, value, tmp_path, capsys):
    expected = (0 if (command, flag, value) in ACCEPTED
                else 1 if (command, flag, value) in VERDICTS else 2)
    _exits(command, flag, value, tmp_path, capsys, expected)


@pytest.mark.parametrize(("command", "flag", "value"), NON_FINITE,
                         ids=[" ".join(case) for case in NON_FINITE])
def test_non_finite_values(command, flag, value, tmp_path, capsys):
    _exits(command, flag, value, tmp_path, capsys, 2)


#: Flags that a path would ignore, and one non-finite rate that used to
#: end in a traceback: each is a bad request.
REJECTED_ARGV = {
    "scenario-kernels": ["simulate", "--scenario", "diffusion",
                         "--kernels", "2"],
    "scenario-chunk-width": ["simulate", "--scenario", "diffusion",
                             "--chunk-width", "4"],
    "scenario-read-ii": ["simulate", "--scenario", "diffusion",
                         "--read-ii", "2"],
    "cpu-kernels": ["run", "--device", "cpu", "--kernels", "0"],
    "multi-kernel-nan-memory-rate": [
        "simulate", "--kernels", "2", "--memory-rate", "nan",
        "--nx", "8", "--ny", "8", "--nz", "8"],
}


@pytest.mark.parametrize("name", list(REJECTED_ARGV))
def test_ignored_or_non_finite_flags_exit_2(name, capsys):
    assert cli.main(REJECTED_ARGV[name]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# -- library entry points -----------------------------------------------------

def _rejections():
    from repro.backend import get_backend
    from repro.core.grid import Grid
    from repro.core.wind import random_wind
    from repro.experiments.summary import build_scorecard
    from repro.faults.chaos import run_chaos
    from repro.hardware import XEON_8260M
    from repro.kernel.config import KernelConfig
    from repro.kernel.simulate import simulate_kernel
    from repro.kernel.stages import MemoryArbiter
    from repro.kernel.builder import build_structural_graph
    from repro.observe.opscycle import check_clock_mhz
    from repro.runtime.session import AdvectionSession
    from repro.serve import PoissonLoad

    grid = Grid(nx=4, ny=5, nz=4)
    config = KernelConfig(grid=grid)
    return {
        "random_wind-seed": (lambda: random_wind(grid, seed=-1), "seed"),
        "run_chaos-seed_base": (
            lambda: run_chaos(seeds=1, seed_base=-1), "seed_base"),
        "PoissonLoad-grid": (lambda: PoissonLoad(ny=0), "ny must be"),
        "PoissonLoad-seed": (lambda: PoissonLoad(seed=-1), "seed"),
        "PoissonLoad-deadline": (
            lambda: PoissonLoad(deadline_seconds=0.0), "deadline_seconds"),
        "simulate_kernel-read_ii": (
            lambda: simulate_kernel(config, random_wind(grid), read_ii=0),
            "read_ii"),
        "build_structural_graph-read_ii": (
            lambda: build_structural_graph(config, read_ii=0), "read_ii"),
        "versal_aie-read_ii": (
            lambda: get_backend("versal_aie").structural_graph(
                grid, read_ii=0), "read_ii"),
        "build_scorecard-tolerance": (
            lambda: build_scorecard(tolerance_pct=-1.0), "tolerance"),
        "PoissonLoad-rate-nan": (
            lambda: PoissonLoad(rate_hz=float("nan")), "rate_hz"),
        "PoissonLoad-deadline-inf": (
            lambda: PoissonLoad(deadline_seconds=float("inf")),
            "deadline_seconds"),
        "MemoryArbiter-rate-nan": (
            lambda: MemoryArbiter(float("nan")), "arbiter rate"),
        "MemoryArbiter-rate-inf": (
            lambda: MemoryArbiter(float("inf")), "arbiter rate"),
        "build_scorecard-tolerance-nan": (
            lambda: build_scorecard(tolerance_pct=float("nan")),
            "tolerance"),
        "clock_mhz-nan": (lambda: check_clock_mhz(float("nan")), "clock"),
        "AdvectionSession-cpu-kernels": (
            lambda: AdvectionSession(XEON_8260M, config, num_kernels=2),
            "not an FPGA"),
    }


REJECTIONS = _rejections()


@pytest.mark.parametrize("name", list(REJECTIONS))
def test_library_rejects_bad_input_as_an_input_error(name):
    call, match = REJECTIONS[name]
    with pytest.raises(errors.ConfigurationError, match=match) as excinfo:
        call()
    assert excinfo.value.exit_code == 2
