"""Tests for the public trace-invariant validator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import CwcScheduler
from repro.core.model import Job, JobKind, PhoneSpec
from repro.core.prediction import RuntimePredictor, TaskProfile
from repro.sim.entities import FleetGroundTruth
from repro.sim.failures import FailurePlan, PlannedFailure
from repro.sim.server import CentralServer, RunResult
from repro.sim.trace import Span, SpanKind, TimelineTrace
from repro.sim.validation import TraceInvariantError, check_run_invariants

PROFILES = {"primes": TaskProfile("primes", 10.0, 800.0)}


def run_simulation(plan=None, n_phones=3, n_jobs=4):
    phones = tuple(
        PhoneSpec(phone_id=f"p{i}", cpu_mhz=800.0 + 100.0 * i)
        for i in range(n_phones)
    )
    jobs = tuple(
        Job(f"j{i}", "primes", JobKind.BREAKABLE, 30.0, 400.0 + 50.0 * i)
        for i in range(n_jobs)
    )
    server = CentralServer(
        phones,
        FleetGroundTruth(PROFILES),
        RuntimePredictor(PROFILES),
        CwcScheduler(),
        {p.phone_id: 2.0 for p in phones},
        failure_plan=plan or FailurePlan.none(),
    )
    return jobs, server.run(jobs)


class TestCleanRuns:
    def test_failure_free_run_validates(self):
        jobs, result = run_simulation()
        check_run_invariants(result, jobs)

    def test_online_failure_run_validates(self):
        plan = FailurePlan([PlannedFailure("p1", 2_000.0, online=True)])
        jobs, result = run_simulation(plan=plan)
        check_run_invariants(result, jobs)

    def test_offline_failure_run_validates(self):
        plan = FailurePlan([PlannedFailure("p1", 2_000.0, online=False)])
        jobs, result = run_simulation(plan=plan)
        check_run_invariants(result, jobs)

    def test_rejoin_run_validates(self):
        plan = FailurePlan(
            [PlannedFailure("p1", 2_000.0, online=True, rejoin_after_ms=5_000.0)]
        )
        jobs, result = run_simulation(plan=plan)
        check_run_invariants(result, jobs)

    @settings(max_examples=15, deadline=None)
    @given(
        time_ms=st.floats(min_value=1.0, max_value=100_000.0),
        online=st.booleans(),
    )
    def test_random_single_failures_validate(self, time_ms, online):
        plan = FailurePlan([PlannedFailure("p0", time_ms, online=online)])
        jobs, result = run_simulation(plan=plan)
        check_run_invariants(result, jobs)


class TestViolationsDetected:
    def corrupt_result(self, spans):
        trace = TimelineTrace()
        for span in spans:
            trace.add_span(span)
        return RunResult(trace=trace, rounds=[])

    def test_overlapping_spans_detected(self):
        result = self.corrupt_result(
            [
                Span("p", "j", SpanKind.COPY, 0.0, 100.0, input_kb=1.0),
                Span("p", "j", SpanKind.EXECUTE, 50.0, 150.0, input_kb=1.0),
            ]
        )
        with pytest.raises(TraceInvariantError, match="overlaps"):
            check_run_invariants(result, ())

    def test_execute_without_copy_detected(self):
        result = self.corrupt_result(
            [Span("p", "j", SpanKind.EXECUTE, 0.0, 10.0, input_kb=1.0)]
        )
        with pytest.raises(TraceInvariantError, match="without ever copying"):
            check_run_invariants(result, ())

    def test_lost_input_detected(self):
        jobs = (Job("j", "primes", JobKind.BREAKABLE, 10.0, 500.0),)
        result = RunResult(trace=TimelineTrace(), rounds=[])
        with pytest.raises(TraceInvariantError, match="not conserved"):
            check_run_invariants(result, jobs)

    def test_clean_empty_run(self):
        result = RunResult(trace=TimelineTrace(), rounds=[])
        check_run_invariants(result, ())

    def test_duplicate_credit_detected(self):
        """A ghost credit that conservation alone would balance."""
        from repro.sim.trace import CompletionRecord

        job = Job("j", "primes", JobKind.BREAKABLE, 10.0, 100.0)
        trace = TimelineTrace()
        trace.add_completion(
            CompletionRecord("p", "j", 10.0, 100.0, 5.0), at_ms=10.0
        )
        trace.add_completion(
            CompletionRecord("q", "ghost", 11.0, 0.0, 5.0), at_ms=11.0
        )
        result = RunResult(trace=trace, rounds=[])
        with pytest.raises(TraceInvariantError, match="unknown job"):
            check_run_invariants(result, (job,))


class TestCompatibility:
    def test_error_type_is_aliased(self):
        from repro.verify.invariants import InvariantViolation

        assert TraceInvariantError is InvariantViolation
        assert issubclass(TraceInvariantError, AssertionError)

    def test_sim_package_reexports_alias(self):
        import repro.sim
        from repro.verify.invariants import InvariantViolation

        assert repro.sim.TraceInvariantError is InvariantViolation
