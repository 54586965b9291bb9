"""The thread executor: drives user generators on simulated processors.

One :class:`ThreadProcess` runs each kernel thread.  It translates the
operations of ``runtime.ops`` into machine and kernel activity:

* memory operations are split into per-page runs.  A run whose page sits
  in the processor's ATC with sufficient rights -- the common case --
  costs one dictionary lookup, a plain-int rights check and one
  :meth:`Machine.charge`, as the MC68851 charges nothing beyond the
  memory reference.  Anything else takes the real ``MMU.translate`` ->
  PLATINUM fault -> retry loop and :meth:`Machine.access`.  Either way
  the real data moves between the simulated page frames;
* the entire chain of a memory operation is computed in a single
  simulation event -- shared resources are reserved into the future (see
  ``repro.sim.resource``) -- and the generator resumes when the final
  completion time arrives;
* a per-processor ``cpu`` resource serializes threads that share a
  processor, and interprocessor-interrupt penalties accumulated by
  shootdowns are paid at the start of the next operation.

The trace replayer's threads subclass :class:`ThreadProcess` and cost
their runs through the same :meth:`ThreadProcess._run`.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

from ..kernel.kernel import Kernel
from ..kernel.threads import Thread
from ..machine.machine import AccessOutcome
from ..machine.memory import WORD_DTYPE, Frame
from ..machine.pmap import PmapEntry
from ..sim.process import Delay, Op, Process, WaitFor
from ..sim.resource import FifoResource
from . import ops


class ExecutionError(RuntimeError):
    """A user thread issued an operation the executor cannot perform."""


class ThreadProcess(Process):
    """Runs one user thread's generator in simulated time."""

    __slots__ = ("kernel", "thread", "cpu", "_wake", "_wpp")

    def __init__(
        self,
        kernel: Kernel,
        thread: Thread,
        body: Generator[Op, Any, Any],
        cpu: FifoResource,
    ) -> None:
        super().__init__(kernel.engine, body, name=thread.name)
        self.kernel = kernel
        self.thread = thread
        self.cpu = cpu
        # one reusable callback for every value-less resume
        self._wake = lambda: self._resume(None)
        self._wpp = kernel.params.words_per_page
        self.on_finish(lambda _p: self.kernel.threads.exit(self.thread))

    # -- operation dispatch -------------------------------------------------

    def interpret(self, op: Op) -> None:
        try:
            handler = _HANDLERS.get(type(op))
            if handler is None:
                handler = _handler_for(op)
            handler(self, op)
        except Exception as exc:  # noqa: BLE001 - becomes a thread crash
            # any executor or kernel error (protection fault, wild access,
            # out of memory) kills the simulated thread, not the engine
            self._throw(exc)

    # -- timing helpers --------------------------------------------------------

    def _begin(self) -> int:
        """Start time of the next op: after CPU availability and any
        pending interrupt penalty (which it collects)."""
        st = self.kernel.machine.interrupts.state[self.thread.processor]
        penalty = st.pending_penalty
        now = self.engine.now
        busy = self.cpu.busy_until
        start = now if now > busy else busy
        if penalty:
            st.pending_penalty = 0.0
            start = int(round(start + penalty))
        return start

    def _commit(self, end: int, value: Any = None) -> None:
        """Occupy the CPU until integral time ``end`` (or now, if that
        is later) and resume the generator then."""
        engine = self.engine
        now = engine.now
        if end < now:
            end = now
        cpu = self.cpu
        if end > cpu.busy_until:
            cpu.busy_until = end
        engine.schedule_at(
            end,
            self._wake if value is None else (lambda: self._resume(value)),
        )

    # -- compute -----------------------------------------------------------------

    def _do_compute(self, op: ops.Compute) -> None:
        if op.ns < 0:
            raise ExecutionError(f"negative compute time {op.ns}")
        start = self._begin()
        self._commit(int(round(start + op.ns)))

    # -- memory access -------------------------------------------------------------

    def _run(
        self, vpage: int, n: int, write: bool, t: int
    ) -> tuple[int, Frame]:
        """Translate and cost one ``n``-word run on ``vpage`` at time
        ``t``.  Returns (completion time, frame holding the page).

        An ATC hit with sufficient rights is handled here: the same LRU
        touch, hit count and reference/modify bits as ``MMU.translate``,
        then :meth:`Machine.charge`.  Everything else goes through
        :meth:`_run_slow`.
        """
        machine = self.kernel.machine
        proc = self.thread.processor
        atc = machine.mmus[proc].atc
        entries = atc._entries
        key = (self.thread.aspace_id, vpage)
        entry = entries.get(key)
        # Rights are only NONE=0, READ=1, WRITE=3 (which includes READ)
        if entry is not None and (
            entry.rights == 3 or (entry.rights == 1 and not write)
        ):
            entries.move_to_end(key)
            atc.hits += 1
            entry.referenced = True
            if write:
                entry.modified = True
            t, queue_delay = machine.charge(
                proc, entry.frame.module_index, n, write, t
            )
        else:
            entry, outcome = self._run_slow(vpage, n, write, t)
            t = outcome.completion
            queue_delay = outcome.queue_delay
        cpage_index = entry.cpage_index
        if cpage_index is not None:
            coherent = self.kernel.coherent
            remote = entry.frame.module_index != proc
            if remote and coherent.reference_counting:
                coherent.note_remote_access(cpage_index, proc, n)
            probe = coherent.access_probe
            if probe is not None:
                probe.note(
                    cpage_index, proc, write,
                    AccessOutcome(t, queue_delay, remote, n),
                )
        return t, entry.frame

    def _run_slow(
        self, vpage: int, n: int, write: bool, t: int
    ) -> tuple[PmapEntry, AccessOutcome]:
        """:meth:`_run` on an ATC miss or rights fault: ``MMU.translate``,
        faulting into the PLATINUM fault path and retrying until the
        translation holds, then :meth:`Machine.access`."""
        kernel = self.kernel
        machine = kernel.machine
        proc = self.thread.processor
        mmu = machine.mmus[proc]
        aspace_id = self.thread.aspace_id
        for _attempt in range(3):
            result = mmu.translate(aspace_id, vpage, write)
            t += int(round(result.cost))
            entry = result.entry
            if entry is not None:
                return entry, machine.access(proc, entry.frame, n, write, t)
            fault = kernel.fault(proc, aspace_id, vpage, write, t)
            t = fault.completion
        raise ExecutionError(
            f"cpu{proc} could not obtain a translation for vpage {vpage} "
            f"(aspace {aspace_id}, write={write}) after repeated faults"
        )

    def _split_runs(self, va: int, n: int) -> list[tuple[int, int, int]]:
        """``[va, va + n)`` as within-page (vpage, offset, words) runs."""
        if n <= 0:
            raise ExecutionError(f"access of {n} words at va {va}")
        if va < 0:
            raise ExecutionError(f"negative address {va}")
        wpp = self._wpp
        vpage, offset = divmod(va, wpp)
        if offset + n <= wpp:
            return [(vpage, offset, n)]
        runs = []
        while n > 0:
            take = min(n, wpp - offset)
            runs.append((vpage, offset, take))
            vpage += 1
            offset = 0
            n -= take
        return runs

    def _do_read(self, op: ops.Read) -> None:
        t = self._begin()
        runs = self._split_runs(op.va, op.n)
        if len(runs) == 1:
            vpage, offset, n = runs[0]
            t, frame = self._run(vpage, n, False, t)
            self._commit(t, frame.data[offset: offset + n].copy())
            return
        out = np.empty(op.n, dtype=WORD_DTYPE)
        pos = 0
        for vpage, offset, take in runs:
            t, frame = self._run(vpage, take, False, t)
            out[pos: pos + take] = frame.data[offset: offset + take]
            pos += take
        self._commit(t, out)

    def _do_write(self, op: ops.Write) -> None:
        t = self._begin()
        if np.isscalar(op.value) or isinstance(op.value, (int, np.integer)):
            values = np.full(1, op.value, dtype=WORD_DTYPE)
        else:
            values = np.asarray(op.value, dtype=WORD_DTYPE)
        pos = 0
        for vpage, offset, take in self._split_runs(op.va, len(values)):
            t, frame = self._run(vpage, take, True, t)
            frame.data[offset: offset + take] = values[pos: pos + take]
            pos += take
        self._commit(t)

    def _rmw_word(self, va: int) -> tuple[int, np.ndarray, int]:
        """Begin an atomic one-word op: (completion, frame data, offset)."""
        t = self._begin()
        vpage, offset = divmod(va, self._wpp)
        t, frame = self._run(vpage, 1, True, t)
        return t, frame.data, offset

    def _do_test_and_set(self, op: ops.TestAndSet) -> None:
        t, data, i = self._rmw_word(op.va)
        old = int(data[i])
        data[i] = op.value
        self._commit(t, old)

    def _do_fetch_add(self, op: ops.FetchAdd) -> None:
        t, data, i = self._rmw_word(op.va)
        data[i] += op.delta
        self._commit(t, int(data[i]))

    # -- thread migration --------------------------------------------------------------

    def _do_migrate(self, op: ops.Migrate) -> None:
        start = self._begin()
        cost = self.kernel.threads.migrate(self.thread, op.processor)
        # after migration the thread competes for the new processor
        self.cpu = _cpu_resource(self.kernel, op.processor)
        self._commit(int(round(start + cost)))

    # -- ports -------------------------------------------------------------------------

    def _do_send(self, op: ops.SendPort) -> None:
        t = self._begin()
        data = np.asarray(op.data, dtype=WORD_DTYPE)
        end = op.port.send(data, self.thread.tid, self.thread.processor, t)
        self._commit(end)

    def _do_recv(self, op: ops.RecvPort) -> None:
        t = self._begin()
        result = op.port.try_receive(self.thread.processor, t)
        if result is None:
            # no message: sleep until an arrival, then retry.  Registration
            # happens in this same event, so no arrival can be missed.
            op.port.arrival.wait(lambda _v: self.interpret(op))
            return
        message, end = result
        self._commit(end, message.data)

    # -- broadcast wait -------------------------------------------------------------------

    def _do_wait_newer(self, op: ops.WaitNewer) -> None:
        if op.channel.version > op.seen:
            self._resume(None)
            return
        op.channel.event.wait(self._resume)

    def _do_get_time(self, _op: ops.GetTime) -> None:
        self._resume(self.engine.now)


#: op type -> handler; ``interpret`` dispatches on the exact type and
#: falls back to ``isinstance`` (``_handler_for``) for op subclasses
_HANDLERS = {
    ops.Compute: ThreadProcess._do_compute,
    ops.Read: ThreadProcess._do_read,
    ops.Write: ThreadProcess._do_write,
    ops.TestAndSet: ThreadProcess._do_test_and_set,
    ops.FetchAdd: ThreadProcess._do_fetch_add,
    ops.Migrate: ThreadProcess._do_migrate,
    ops.SendPort: ThreadProcess._do_send,
    ops.RecvPort: ThreadProcess._do_recv,
    ops.WaitNewer: ThreadProcess._do_wait_newer,
    ops.GetTime: ThreadProcess._do_get_time,
    Delay: Process.interpret,
    WaitFor: Process.interpret,
}


def _handler_for(op: Op):
    for op_type, handler in _HANDLERS.items():
        if isinstance(op, op_type):
            return handler
    raise ExecutionError(f"unsupported operation {op!r}")


def _cpu_resource(kernel: Kernel, processor: int) -> FifoResource:
    """The resource serializing threads on ``processor``, built on
    first use and kept in ``kernel.cpu_resources``."""
    res = kernel.cpu_resources.get(processor)
    if res is None:
        res = kernel.cpu_resources[processor] = FifoResource(
            f"cpu[{processor}]"
        )
    return res
