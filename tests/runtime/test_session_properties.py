"""Property-based tests of end-to-end sessions across parameters."""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grid import Grid
from repro.hardware import ALVEO_U280, STRATIX10_GX2800
from repro.kernel.config import KernelConfig
from repro.runtime.session import AdvectionSession

DEVICES = {"u280": ALVEO_U280, "stratix": STRATIX10_GX2800}


@settings(max_examples=30, deadline=None)
@given(
    device_key=st.sampled_from(sorted(DEVICES)),
    cells_m=st.sampled_from([1, 4, 16, 67]),
    x_chunks=st.integers(1, 32),
    overlapped=st.booleans(),
    chunk_width=st.sampled_from([16, 64, 256]),
    word_bytes=st.sampled_from([4, 8]),
    stream_depth=st.integers(2, 64),
)
def test_session_invariants(device_key, cells_m, x_chunks, overlapped,
                            chunk_width, word_bytes, stream_depth):
    """Any legal session parameterisation yields a self-consistent run."""
    device = DEVICES[device_key]
    grid = Grid.from_cells(cells_m * 1024 * 1024)
    config = KernelConfig(grid=grid, chunk_width=chunk_width,
                          word_bytes=word_bytes)
    session = AdvectionSession(device, config, x_chunks=x_chunks)
    result = session.run(grid, overlapped=overlapped)

    # The session and the invocation model never read the FIFO depth:
    # the tuner's cost model prices every depth with one run.
    deep = dataclasses.replace(config, stream_depth=stream_depth)
    assert AdvectionSession(device, deep, x_chunks=x_chunks).run(
        grid, overlapped=overlapped) == result
    assert device.invocation(
        deep, grid, num_kernels=result.num_kernels, memory=result.memory,
    ) == device.invocation(
        config, grid, num_kernels=result.num_kernels, memory=result.memory)

    # Basic sanity.
    assert result.runtime_seconds > 0
    assert result.gflops > 0
    assert result.average_watts > 0
    assert result.num_kernels >= 1
    assert result.memory in ("hbm2", "ddr")

    # Busy times never exceed the makespan per engine.
    schedule = result.schedule
    assert schedule is not None
    for resource in schedule.busy:
        assert schedule.busy[resource] <= schedule.makespan + 1e-12

    # Kernel-only time bounds the end-to-end time from below.
    assert result.runtime_seconds >= result.kernel_seconds / max(
        1, result.num_kernels) - 1e-12

    # Energy is watts x runtime, and efficiency is consistent.
    assert result.energy_joules > 0
    assert abs(result.gflops_per_watt
               - result.gflops / result.average_watts) < 1e-12


@settings(max_examples=15, deadline=None)
@given(cells_m=st.sampled_from([4, 16, 67]),
       x_chunks=st.integers(2, 24))
def test_overlap_never_loses(cells_m, x_chunks):
    """The overlapped schedule never performs worse than the sequential
    one for the same configuration."""
    grid = Grid.from_cells(cells_m * 1024 * 1024)
    session = AdvectionSession(ALVEO_U280, KernelConfig(grid=grid),
                               x_chunks=x_chunks)
    sequential = session.run(grid, overlapped=False)
    overlapped = session.run(grid, overlapped=True)
    assert overlapped.gflops >= sequential.gflops


@settings(max_examples=10, deadline=None)
@given(chunk_width=st.sampled_from([2, 8, 32, 128]))
def test_wider_chunks_never_slower(chunk_width):
    """Kernel-only time is monotone non-increasing in chunk width (less
    halo re-read, fewer pipeline fills, longer bursts)."""
    grid = Grid.from_cells(16 * 1024 * 1024)
    narrow = ALVEO_U280.invocation(
        KernelConfig(grid=grid, chunk_width=chunk_width), grid,
        num_kernels=1, memory="hbm2")
    wide = ALVEO_U280.invocation(
        KernelConfig(grid=grid, chunk_width=chunk_width * 2), grid,
        num_kernels=1, memory="hbm2")
    assert wide.seconds <= narrow.seconds + 1e-12
