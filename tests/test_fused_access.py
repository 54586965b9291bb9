"""The executor's fused ATC-hit path against translate + access.

``ThreadProcess._run`` serves an ATC hit with sufficient rights without
calling ``MMU.translate`` or ``Machine.access``.  These tests drive one
run sequence through it on one kernel and, on an identical second
kernel, through ``MMU.translate`` followed by either ``Machine.access``
or an independent restatement of the DESIGN.md section 5 cost
arithmetic, and require every observable counter to agree.
"""

import random

import pytest

from repro.kernel.kernel import Kernel
from repro.machine.machine import AccessOutcome
from repro.machine.params import MachineParams
from repro.machine.pmap import Rights
from repro.policy.registry import make_policy
from repro.profile import AccessProbe
from repro.runtime.executor import ThreadProcess, _cpu_resource

N_PROC = 4
N_PAGES = 5


def _formula_access(machine, src, frame, n, write, now):
    """The pre-fusion ``Machine.access`` cost model, written out."""
    p = machine.params
    dst = frame.module_index
    remote = src != dst
    module = machine.modules[dst]
    t = now
    n_hops = 0
    t_word = p.t_local
    if remote:
        route = machine.topology.route(src, dst)
        n_hops = len(route)
        for port in route:
            _, t = port.occupy(t, n * p.t_switch_service)
        t_word = p.t_remote_write if write else p.t_remote_read
    _, t = module.bus.occupy(t, n * p.t_module_service)
    service = p.t_module_service + n_hops * p.t_switch_service
    extra = max(0.0, t_word - service)
    completion = int(round(t + n * extra))
    queue_delay = max(0, t - (now + int(round(n * service))))
    if remote:
        machine.remote_words[src] += n
        if write:
            machine.remote_write_words[src] += n
    else:
        machine.local_words[src] += n
    machine.queue_delay_ns[src] += queue_delay
    module.words_served += n
    module.accesses_served += 1
    return AccessOutcome(completion, queue_delay, remote, n)


def _reference_run(kernel, proc, aspace_id, vpage, n, write, t, costing):
    """translate -> fault -> retry, then the chosen costing."""
    machine = kernel.machine
    mmu = machine.mmus[proc]
    for _attempt in range(3):
        result = mmu.translate(aspace_id, vpage, write)
        t += int(round(result.cost))
        entry = result.entry
        if entry is not None:
            if costing == "access":
                outcome = machine.access(proc, entry.frame, n, write, t)
            else:
                outcome = _formula_access(
                    machine, proc, entry.frame, n, write, t)
            coherent = kernel.coherent
            if outcome.remote and coherent.reference_counting:
                coherent.note_remote_access(entry.cpage_index, proc, n)
            if coherent.access_probe is not None:
                coherent.access_probe.note(
                    entry.cpage_index, proc, write, outcome)
            return outcome.completion, entry.frame
        t = kernel.fault(proc, aspace_id, vpage, write, t).completion
    raise AssertionError("no translation after repeated faults")


def _kernel(policy, refcount, probe):
    # a 2-entry ATC over 5 pages exercises LRU eviction on every pass
    params = MachineParams(n_processors=N_PROC, atc_entries=2)
    kernel = Kernel(params=params, policy=make_policy(policy),
                    defrost_enabled=False)
    obj = kernel.vm.create_object(N_PAGES, label="shared")
    for i, cpage in enumerate(obj.cpages):
        cpage.placement_module = i % N_PROC
    aspace = kernel.vm.create_address_space()
    kernel.vm.bind(aspace, 0, obj, rights=Rights.WRITE, n_pages=N_PAGES)
    threads = [
        kernel.threads.spawn(aspace.asid, proc) for proc in range(N_PROC)
    ]
    kernel.coherent.reference_counting = refcount
    if probe:
        AccessProbe.install(kernel.coherent)
    return kernel, aspace.asid, threads


def _sequence(seed=7, length=400):
    rng = random.Random(seed)
    runs = []
    for i in range(length):
        # start times overlap heavily, so buses and ports queue
        t = i * 300 + rng.randrange(0, 5000)
        runs.append((
            rng.randrange(N_PROC), rng.randrange(N_PAGES),
            rng.choice((1, 3, 64, 256)), rng.random() < 0.3, t,
        ))
    return runs


def _observe(kernel, asid):
    machine = kernel.machine
    coherent = kernel.coherent
    state = {
        "atc": [(m.atc.hits, m.atc.misses, m.atc.flushes)
                for m in machine.mmus],
        "pmap": [
            sorted((e.vpage, int(e.rights), e.referenced, e.modified)
                   for e in m.pmap_for(asid).entries())
            for m in machine.mmus
        ],
        "resources": [
            (r.name, r.busy_until, r.busy_time, r.wait_time, r.requests)
            for r in [m.bus for m in machine.modules]
            + machine.topology.all_resources()
        ],
        "words": (machine.local_words, machine.remote_words,
                  machine.remote_write_words),
        "queue_delay_ns": machine.queue_delay_ns,
        "modules": [(m.words_served, m.accesses_served)
                    for m in machine.modules],
        "remote_counts": {
            c.index: (dict(c.remote_counts), c.stats.remote_access_words)
            for c in coherent.cpages
        },
        "probe": (dict(coherent.access_probe.counts)
                  if coherent.access_probe is not None else None),
    }
    return state


@pytest.mark.parametrize("costing", ["access", "formula"])
@pytest.mark.parametrize("policy", ["always", "never"])
@pytest.mark.parametrize("refcount,probe", [
    (False, False), (True, False), (False, True), (True, True),
])
def test_fused_hit_path_matches_translate_and_access(
    policy, refcount, probe, costing
):
    fused, asid, threads = _kernel(policy, refcount, probe)
    ref, ref_asid, _ = _kernel(policy, refcount, probe)
    procs = [
        ThreadProcess(fused, th, None, _cpu_resource(fused, th.processor))
        for th in threads
    ]
    hits_with_rights = 0
    read_only_writes = 0
    for i, (proc, vpage, n, write, t) in enumerate(_sequence()):
        if i % 40 == 0:
            # clear the reference/modify bits, as a page scanner would,
            # so hits must set them again
            for kernel in (fused, ref):
                for mmu in kernel.machine.mmus:
                    for e in mmu.pmap_for(asid).entries():
                        e.referenced = e.modified = False
        entry = fused.machine.mmus[proc].atc._entries.get((asid, vpage))
        if entry is not None:
            if entry.rights.allows(write):
                hits_with_rights += 1
            elif write and entry.rights == Rights.READ:
                read_only_writes += 1
        got_t, got_frame = procs[proc]._run(vpage, n, write, t)
        want_t, want_frame = _reference_run(
            ref, proc, ref_asid, vpage, n, write, t, costing)
        assert got_t == want_t
        assert got_frame.pfn == want_frame.pfn
    assert _observe(fused, asid) == _observe(ref, ref_asid)
    # the sequence covers what it claims to
    assert hits_with_rights > 100
    assert read_only_writes > 0
    machine = fused.machine
    assert sum(machine.local_words) > 0
    assert sum(machine.remote_words) > 0
    assert sum(machine.remote_write_words) > 0
    assert sum(machine.queue_delay_ns) > 0
    assert any(r.wait_time for r in machine.topology.all_resources())
    if refcount:
        assert any(c.remote_counts for c in fused.coherent.cpages)
    if probe:
        assert fused.coherent.access_probe.counts
