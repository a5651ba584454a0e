"""Failure injection: the simulator must *detect* broken designs, not hang.

A dataflow design can be wrong in ways the numerics never show — an
undersized FIFO that deadlocks on the column-top double emission, a
mis-ordered stream.  These tests build such designs deliberately and
check the engine diagnoses them.
"""

import numpy as np
import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SinkStage, SourceStage, Stage
from repro.errors import DataflowError
from repro.kernel.stages import ShiftBufferStage


def fig2_blocks():
    """Three 4x4x4 field blocks: a labelled u, zero v and w."""
    return (np.arange(64.0).reshape(4, 4, 4), np.zeros((4, 4, 4)),
            np.zeros((4, 4, 4)))


class TestUndersizedFifoDeadlock:
    def test_depth1_stream_deadlocks_on_double_emission(self):
        """The shift buffer emits TWO windows at each column top; a
        depth-1 FIFO can never accept them, so the design deadlocks —
        which is exactly why KernelConfig refuses stream_depth < 2."""
        graph = DataflowGraph("broken")
        graph.add(SourceStage("read", iter(range(64))))
        shift = graph.add(ShiftBufferStage("shift", fig2_blocks()))
        graph.add(SinkStage("sink"))
        graph.connect("read", "out", shift, "in", depth=4)
        graph.connect(shift, "out", "sink", "in", depth=1)  # too shallow

        with pytest.raises(DataflowError, match="deadlock"):
            DataflowEngine(graph).run()

    def test_depth2_stream_is_sufficient(self):
        nx = ny = nz = 4
        graph = DataflowGraph("ok")
        graph.add(SourceStage("read", iter(range(nx * ny * nz))))
        shift = graph.add(ShiftBufferStage("shift", fig2_blocks()))
        sink = graph.add(SinkStage("sink"))
        graph.connect("read", "out", shift, "in", depth=4)
        graph.connect(shift, "out", sink, "in", depth=2)
        DataflowEngine(graph).run()
        assert len(sink.collected) == (nx - 2) * (ny - 2) * (nz - 1)


class TestMisbehavingStages:
    def test_stage_raising_mid_run_propagates(self):
        class Exploding(Stage):
            input_ports = ("in",)
            output_ports: tuple[str, ...] = ()

            def fire(self, cycle, inputs):
                raise RuntimeError("component fault")

        graph = DataflowGraph("fault")
        graph.add(SourceStage("src", [1, 2, 3]))
        graph.add(Exploding("bad"))
        graph.connect("src", "out", "bad", "in")
        with pytest.raises(RuntimeError, match="component fault"):
            DataflowEngine(graph).run()


class TestAdvectStageValidation:
    def test_unknown_field_rejected(self):
        from repro.kernel.stages import AdvectStage

        grid_nz = 4
        coeffs = AdvectionCoefficients.uniform(
            __import__("repro.core.grid", fromlist=["Grid"]).Grid(
                nx=4, ny=4, nz=grid_nz))
        with pytest.raises(DataflowError):
            AdvectStage("a", "q", coeffs, grid_nz)
