"""Every runtime check that claims bit-identity compares bytes.

A ``-0.0`` where the reference holds ``+0.0`` is equal by value and by
``max_abs_difference``, but not bit-identical.  Each site below is fed
exactly that mismatch and must report it.  The advection source ``sw``
is exactly ``0.0`` on the top level, which gives every site a zero to
flip.
"""

import numpy as np

from repro.cli import main
from repro.core import reference as core_reference
from repro.core.fields import SourceSet
from repro.core.grid import Grid
from repro.faults.chaos import run_chaos
from repro.kernel import simulate as kernel_simulate
from repro.scenarios import get
from repro.scenarios.base import Scenario
from repro.scenarios.conformance import run_conformance


def flip_a_zero(sources: SourceSet) -> SourceSet:
    """``sources`` with its first top-level ``sw`` zero negated."""
    assert sources.sw[0, 0, -1] == 0.0
    sources.sw[0, 0, -1] = -sources.sw[0, 0, -1]
    return sources


def test_same_bits_tells_signed_zeros_apart():
    grid = Grid(nx=2, ny=2, nz=3)
    zeros = SourceSet.zeros(grid)
    flipped = flip_a_zero(SourceSet.zeros(grid))
    assert zeros.max_abs_difference(flipped) == 0.0
    assert np.array_equal(zeros.sw, flipped.sw)
    assert not zeros.same_bits(flipped)
    assert zeros.same_bits(SourceSet.zeros(grid))


def test_validate_fails_a_signed_zero(monkeypatch, capsys):
    original = kernel_simulate.simulate_kernel

    def flipped(*args, **kwargs):
        result = original(*args, **kwargs)
        flip_a_zero(result.sources)
        return result

    monkeypatch.setattr(kernel_simulate, "simulate_kernel", flipped)
    assert main(["validate", "--nx", "4", "--ny", "5", "--nz", "4"]) == 1
    out = capsys.readouterr().out
    assert out.count("OK (bitwise)") == 2
    assert out.count("FAIL (bytes differ at max diff 0)") == 2


def flip_scenario_references(monkeypatch):
    original = Scenario.reference

    def flipped(self, *args, **kwargs):
        return tuple(flip_a_zero(ref) for ref in original(self, *args,
                                                           **kwargs))

    monkeypatch.setattr(Scenario, "reference", flipped)


def test_simulate_scenario_fails_a_signed_zero(monkeypatch, capsys):
    flip_scenario_references(monkeypatch)
    assert main(["simulate", "--scenario", "pw-advection-open"]) == 1
    out = capsys.readouterr().out
    assert "reference: FAIL (bytes differ at max diff 0)" in out


def test_conformance_fails_a_signed_zero(monkeypatch):
    flip_scenario_references(monkeypatch)
    entry = run_conformance(get("pw-advection-open"))
    failed = [result.check for result in entry.results if not result.ok]
    assert failed == ["reference"]


def test_chaos_calls_a_signed_zero_silent_corruption(monkeypatch):
    original = core_reference.advect_reference

    def flipped(*args, **kwargs):
        return flip_a_zero(original(*args, **kwargs))

    monkeypatch.setattr(core_reference, "advect_reference", flipped)
    report = run_chaos(families=("fifo-drop",), seeds=1)
    (outcome,) = report.outcomes
    assert outcome.status == "silent-corruption"
    assert "bytes differ" in outcome.detail
    assert not report.ok
