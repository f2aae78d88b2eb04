"""The credit-batch discipline vets credited rounds on the lean path.

With ``batch_rounds > 0`` a strict-key round runs on the device first
and joins its attachment's pending queue; ``GuestVM._flush_batch``
vets the queue later, one ``check_io(..., report_clean=False)`` per
round, at four flush points: a full batch, a sync-key round, a
``DeviceFault`` on a credited round, and the op boundary
(``GuardedInstance.apply`` flushes before it reports an outcome).

The certificate drives every device profile (composites included), the
nine seeded CVE PoCs and the generated corpus PoCs through
``GuardedInstance.apply`` with ``batch_rounds=8``, in protection and in
enhancement mode, with every strategy on and with the conditional-jump
strategy off.  Each case runs twice: once as the VM runs, and once with
``_flush_batch`` replaced by :func:`reference_flush_batch`, the body it
had when a flush was one ``check_batch`` call with full reports.  Both
runs must keep identical halts and warnings (with ``final_state``),
checked-round and flush counts, checker cycles, shadow and device
state bytes, ``IOStats`` and op outcomes.
"""

import sys
from collections import Counter
from typing import Optional

import pytest

from repro.checker import ALL_STRATEGIES, Action, CheckReport, Mode, Strategy
from repro.errors import DeviceFault
from repro.exploits.corpus import generate_corpus, trained_spec
from repro.exploits.pocs import EXPLOITS, exploit_by_cve
from repro.fleet.instance import GuardedInstance
from repro.fleet.loadgen import OpRequest
from repro.vm.machine import GuestVM, SEDSpecHalt
from repro.workloads.profiles import profile

ALL_DEVICES = ("fdc", "ehci", "pcnet", "sdhci", "scsi",
               "virtio-net", "virtio-blk")
COMPOSITES = ("virtio-net+virtio-blk", "fdc+sdhci")
CORPUS = generate_corpus()
MODES = {"protection": Mode.PROTECTION, "enhancement": Mode.ENHANCEMENT}
STRATEGY_SETS = {
    "all": ALL_STRATEGIES,
    "no-conditional": ALL_STRATEGIES - {Strategy.CONDITIONAL_JUMP},
}
BATCH_ROUNDS = 8
FLUSH_POINTS = {"full-batch", "sync-key", "device-fault", "op-boundary"}


def reference_flush_batch(self, attachment, device) -> None:
    """``GuestVM._flush_batch`` as it was when a flush was one
    ``check_batch`` call returning every round's full report."""
    pending = attachment.pending
    if not pending:
        return
    rounds = list(pending)
    pending.clear()
    checker = attachment.checker
    before = checker.cycles
    reports = checker.check_batch(rounds, oracle=attachment.oracle)
    self.stats.checker_cycles += checker.cycles - before
    attachment.batch_flushes += 1
    resync = False
    halt: Optional[CheckReport] = None
    checked = 0
    for report in reports:
        checked += 1
        if report.action is Action.HALT:
            halt = report
            attachment.halts.append(report)
            break
        if report.action is Action.WARN:
            attachment.warnings.append(report)
            resync = True
        if report.incomplete:
            resync = True
    attachment.checked_rounds += checked
    if resync:
        checker.resync(device.state)
    if halt is not None:
        raise SEDSpecHalt(halt)


def _flush_point() -> str:
    """Which flush point the running ``_flush_batch`` was called from
    (read off the call stack: the wrapper, then the VM's caller)."""
    caller = sys._getframe(2).f_code.co_name
    if caller == "_io":
        return "sync-key"
    if caller == "_credit_io":
        fault = sys.exc_info()[1]
        return ("device-fault" if isinstance(fault, DeviceFault)
                else "full-batch")
    assert caller == "flush_batches", caller
    # GuardedInstance construction is an op boundary too.
    assert sys._getframe(3).f_code.co_name in ("apply", "__init__")
    return "op-boundary"


def _observed_flushes(monkeypatch, body, points: Counter,
                      lean: list) -> None:
    """Run every flush through *body*, counting the flush points that
    had rounds to vet, and record what ``check_io`` hands back to the
    lean flush (so it cannot pass vacuously)."""

    def flush(self, attachment, device):
        if attachment.pending:
            points[_flush_point()] += 1
        checker = attachment.checker
        check_io = checker.check_io

        def counted(key, args=(), oracle=None, report_clean=True):
            report = check_io(key, args, oracle=oracle,
                              report_clean=report_clean)
            lean.append(report is None)
            return report

        checker.check_io = counted
        try:
            return body(self, attachment, device)
        finally:
            del checker.check_io

    monkeypatch.setattr(GuestVM, "_flush_batch", flush)


def _reports(reports):
    return [(report, report.final_state) for report in reports]


def _outcome(outcome):
    report = outcome.report
    return (outcome, None if report is None else report.final_state)


def _instance(name, qemu_version, mode, strategies) -> GuardedInstance:
    specs = {part: trained_spec(part, qemu_version)
             for part in name.split("+")}
    instance = GuardedInstance("t0", name, qemu_version,
                               specs if len(specs) > 1 else specs[name],
                               mode=mode, batch_rounds=BATCH_ROUNDS)
    # The prepare step ran, and its credited rounds were vetted when
    # the instance was built, under every strategy; the ops run under
    # these.
    for attachment in instance.attachments.values():
        attachment.checker.strategies = strategies
    return instance


def _observables(instance, outcomes):
    vm = instance.vm
    parts = {
        name: (att.checked_rounds, att.batch_flushes, list(att.pending),
               _reports(att.warnings), _reports(att.halts),
               att.checker.cycles,
               bytes(att.checker.device_state.memory.data),
               bytes(vm.devices[name].state.data))
        for name, att in vm.attachments.items()}
    return ([_outcome(o) for o in outcomes], _reports(instance.reports),
            instance.quarantined, instance.quarantine_reason, parts,
            vm.stats)


def _benign(name, mode, strategies):
    instance = _instance(name, "99.0.0", mode, strategies)
    prof = profile(name)
    ops = ([OpRequest("common", i, seed=7 + i)
            for i in range(len(prof.common_ops))] * 2
           + [OpRequest("rare", i, seed=101 + i)
              for i in range(len(prof.rare_ops))])
    return _observables(instance, [instance.apply(op) for op in ops])


def _attack(attack, mode, strategies):
    instance = _instance(attack.device, attack.qemu_version, mode,
                         strategies)
    outcome = instance.apply(OpRequest("exploit", cve=attack.cve))
    return _observables(instance, [outcome])


def _both(monkeypatch, run, *args):
    """*run* as the VM runs and with the reference flush; returns both
    observables, the lean run's flush points and its clean-round
    count."""
    points, lean = Counter(), []
    _observed_flushes(monkeypatch, GuestVM.__dict__["_flush_batch"],
                      points, lean)
    observed = run(*args)
    monkeypatch.undo()
    _observed_flushes(monkeypatch, reference_flush_batch, Counter(), [])
    reference = run(*args)
    monkeypatch.undo()
    return observed, reference, points, sum(lean)


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALL_DEVICES + COMPOSITES)
def test_benign_credit_batches_identical(monkeypatch, name, mode,
                                         strategies):
    observed, reference, _, clean = _both(
        monkeypatch, _benign, name, MODES[mode], STRATEGY_SETS[strategies])
    assert observed == reference
    assert clean, f"{name}: no credited round came back clean"


@pytest.mark.parametrize("strategies", STRATEGY_SETS)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("attack", EXPLOITS + tuple(CORPUS),
                         ids=lambda a: a.cve)
def test_attack_credit_batches_identical(monkeypatch, attack, mode,
                                         strategies):
    observed, reference, _, _ = _both(
        monkeypatch, _attack, attack, MODES[mode], STRATEGY_SETS[strategies])
    assert observed == reference


def test_every_flush_point_is_reached(monkeypatch):
    """The sweeps above reach all four flush points with rounds to
    vet: pcnet's benign traffic fills batches, meets sync keys and ends
    ops with rounds pending, and in enhancement mode VENOM's overflow
    faults the device on a credited round."""
    venom = exploit_by_cve("CVE-2015-3456")
    points = Counter()
    for run, subject, mode in ((_benign, "pcnet", Mode.PROTECTION),
                               (_attack, venom, Mode.ENHANCEMENT)):
        observed, reference, reached, _ = _both(
            monkeypatch, run, subject, mode, ALL_STRATEGIES)
        assert observed == reference
        points += reached
    assert set(points) == FLUSH_POINTS, points
