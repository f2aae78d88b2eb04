"""Degradation policies: infra failures get explicit, safe outcomes."""

import pytest

from repro.checker import Action, gap_report
from repro.checker.degrade import INFRA_EXCEPTIONS
from repro.errors import DecodeError, InfraError, TraceError
from repro.fleet.instance import run_attempts
from repro.policy.model import DEFAULT_POLICY, TenantPolicy


class TestConfig:
    def test_default_is_fail_closed_single_attempt(self):
        assert DEFAULT_POLICY.degradation == "fail-closed"
        assert DEFAULT_POLICY.attempts == 1

    def test_retry_grants_extra_attempts(self):
        policy = TenantPolicy(degradation="retry", max_retries=3)
        assert policy.attempts == 4
        # the retry budget means nothing under the other two modes
        for mode in ("fail-closed", "fail-open"):
            assert TenantPolicy(degradation=mode,
                                max_retries=3).attempts == 1

    def test_infra_exceptions_cover_the_machinery_failures(self):
        for exc in (InfraError("x"), DecodeError("y", offset=3),
                    TraceError("z")):
            assert isinstance(exc, INFRA_EXCEPTIONS)


class TestGapReport:
    def test_fail_closed_gap_is_trace_gap_action(self):
        report = gap_report("io", "fail-closed", "pkt loss")
        assert report.action is Action.TRACE_GAP
        assert report.trace_gap
        assert report.gap_reason == "pkt loss"
        assert not report.anomalies   # emphatically not a detection

    def test_fail_open_gap_allows_but_stays_marked(self):
        report = gap_report("io", "fail-open", "pkt loss")
        assert report.action is Action.ALLOW
        assert report.trace_gap


class TestRunAttempts:
    """The one attempt loop a guarded instance runs its fault arms in."""

    def test_retry_clears_a_transient_fault(self):
        keys = []

        def arm(key):
            keys.append(key)
            if len(keys) < 3:
                raise InfraError("transient step fault", kind="step")
        policy = TenantPolicy(degradation="retry", max_retries=2)
        assert run_attempts(arm, policy.attempts, "io") == ""
        assert keys == ["io:0", "io:1", "io:2"]

    def test_exhaustion_returns_the_last_failure(self):
        keys = []

        def arm(key):
            keys.append(key)
            raise DecodeError(f"bad magic at {key}", offset=12)
        policy = TenantPolicy(degradation="retry", max_retries=1)
        failure = run_attempts(arm, policy.attempts, "io")
        assert keys == ["io:0", "io:1"]
        assert failure.startswith("DecodeError: bad magic at io:1")
        # an exhausted retry budget falls back to fail-closed
        report = gap_report("io", policy.degradation, failure)
        assert report.action is Action.TRACE_GAP

    def test_non_infra_exceptions_stay_loud(self):
        def arm(key):
            raise ValueError("a genuine bug")
        with pytest.raises(ValueError, match="genuine bug"):
            run_attempts(arm, DEFAULT_POLICY.attempts, "io")
