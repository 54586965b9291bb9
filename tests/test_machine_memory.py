"""Unit tests for memory modules and page frames."""

import numpy as np
import pytest

from repro.machine import MachineParams, MemoryModule, OutOfFramesError


@pytest.fixture
def module():
    params = MachineParams(n_processors=2, frames_per_module=8).validated()
    return MemoryModule(0, params)


def test_allocate_returns_zeroed_frame(module):
    frame = module.allocate()
    assert frame.allocated
    assert np.all(frame.data == 0)
    assert frame.module_index == 0
    assert module.n_allocated == 1


def test_allocation_is_exhaustible(module):
    for _ in range(8):
        module.allocate()
    with pytest.raises(OutOfFramesError):
        module.allocate()


def test_release_recycles(module):
    frame = module.allocate()
    frame.data[:] = 99
    module.release(frame)
    assert not frame.allocated
    assert module.n_free == 8
    again = module.allocate()
    assert np.all(again.data == 0)  # zeroed on reuse


def test_double_free_detected(module):
    frame = module.allocate()
    module.release(frame)
    with pytest.raises(RuntimeError):
        module.release(frame)


def test_release_wrong_module_rejected():
    params = MachineParams(n_processors=2, frames_per_module=4).validated()
    m0, m1 = MemoryModule(0, params), MemoryModule(1, params)
    frame = m0.allocate()
    with pytest.raises(ValueError):
        m1.release(frame)


def test_frame_copy(module):
    a = module.allocate()
    b = module.allocate()
    a.data[:] = 7
    b.copy_from(a)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ValueError):
        a.copy_from(a)


def test_frame_pfn_unique(module):
    frames = [module.allocate() for _ in range(3)]
    assert len({f.pfn for f in frames}) == 3


def test_counters(module):
    f = module.allocate()
    module.release(f)
    module.allocate()
    assert module.alloc_count == 2
    assert module.free_count == 1


def test_bus_occupancy(module):
    start, end = module.occupy_bus(0, 1000)
    assert (start, end) == (0, 1000)
    start2, _ = module.occupy_bus(500, 100)
    assert start2 == 1000  # queued behind the first


# -- lazily built frames ---------------------------------------------------------


def _built(lazy) -> int:
    """Elements a LazyList has materialized (read without building)."""
    return sum(x is not None for x in list.__iter__(lazy))


def test_machine_build_materializes_no_frames():
    from repro.machine import Machine

    machine = Machine(MachineParams(n_processors=16))
    for module, ipt in zip(machine.modules, machine.ipts):
        assert _built(module.frames) == 0
        assert _built(ipt._entries) == 0
        assert module.n_free == len(module.frames)


def test_reallocated_frame_reads_back_zeros(module):
    frame = module.allocate()
    frame.data[:] = 7
    module.release(frame)
    again = module.allocate()
    assert again is frame  # the free list is LIFO
    assert np.all(again.data == 0)


def test_frames_get_their_own_arrays(module):
    a, b = module.allocate(), module.allocate()
    a.data[0] = 1
    assert b.data[0] == 0


def test_small_gauss_materializes_only_frames_it_uses():
    from repro.runtime.run import make_kernel, run_program
    from repro.workloads.gauss import GaussianElimination

    kernel = make_kernel(16)
    run_program(kernel, GaussianElimination(n=32))
    modules = kernel.machine.modules
    built = sum(_built(m.frames) for m in modules)
    assert 0 < built <= sum(m.alloc_count for m in modules)
    assert built < len(modules) * modules[0].params.frames_per_module // 20


def test_lazy_list_is_index_only():
    from repro.machine.memory import LazyList

    lazy = LazyList(4, lambda i: i * 10)
    assert lazy[2] == 20
    assert lazy[-1] == 30  # negative indices build the right element
    assert _built(lazy) == 2
    for misuse in (iter, list, reversed, lambda x: x[1:3]):
        with pytest.raises(TypeError, match="index-only"):
            misuse(lazy)
