"""Failure injection: the simulator must *detect* broken designs, not hang.

A dataflow design can be wrong in ways the numerics never show — an
undersized FIFO that deadlocks on the column-top double emission, a
mis-ordered stream.  These tests build such designs deliberately and
check the engine diagnoses them.
"""

import pytest

from repro.core.coefficients import AdvectionCoefficients
from repro.dataflow.engine import DataflowEngine
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.stage import SinkStage, SourceStage, Stage
from repro.errors import DataflowError
from repro.kernel.stages import ShiftBufferStage


class TestUndersizedFifoDeadlock:
    def test_depth1_stream_deadlocks_on_double_emission(self):
        """The shift buffer emits TWO windows at each column top; a
        depth-1 FIFO can never accept them, so the design deadlocks —
        which is exactly why KernelConfig refuses stream_depth < 2."""
        nx = ny = nz = 4
        cells = [(float(i), 0.0, 0.0) for i in range(nx * ny * nz)]

        graph = DataflowGraph("broken")
        graph.add(SourceStage("read", iter(cells)))
        shift = graph.add(ShiftBufferStage("shift", nx, ny, nz))
        graph.add(SinkStage("sink"))
        graph.connect("read", "out", shift, "in", depth=4)
        graph.connect(shift, "out", "sink", "in", depth=1)  # too shallow

        with pytest.raises(DataflowError, match="deadlock"):
            DataflowEngine(graph).run()

    def test_depth2_stream_is_sufficient(self):
        nx = ny = nz = 4
        cells = [(float(i), 0.0, 0.0) for i in range(nx * ny * nz)]
        graph = DataflowGraph("ok")
        graph.add(SourceStage("read", iter(cells)))
        shift = graph.add(ShiftBufferStage("shift", nx, ny, nz))
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

    def test_desynchronised_shift_buffers_detected(self):
        """If one field's buffer somehow emits a different window count
        the stage must fail loudly rather than pair mismatched stencils."""
        stage = ShiftBufferStage("s", 4, 4, 4)
        # Feed the u buffer one extra value out of band to desync it.
        stage.buffers[0].feed(0.0)
        from repro.dataflow.stream import Stream

        ins = Stream("i", depth=4)
        outs = Stream("o", depth=4)
        stage.bind_input("in", ins)
        stage.bind_output("out", outs)
        # Feed enough synchronised cells that the u buffer (one ahead)
        # reaches an emitting position while v/w have not.
        with pytest.raises(DataflowError, match="desynchronised"):
            for i in range(4 * 4 * 4 - 1):
                ins.push((1.0, 2.0, 3.0))
                stage.tick(i)
                while outs.can_pop():
                    outs.pop()


class TestAdvectStageValidation:
    def test_unknown_field_rejected(self):
        from repro.kernel.stages import AdvectStage

        grid_nz = 4
        coeffs = AdvectionCoefficients.uniform(
            __import__("repro.core.grid", fromlist=["Grid"]).Grid(
                nx=4, ny=4, nz=grid_nz))
        with pytest.raises(DataflowError):
            AdvectStage("a", "q", coeffs, grid_nz)
