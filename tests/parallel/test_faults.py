"""Unit + property tests for the deterministic fault-injection plans."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel import (FAULT_PLANS, FaultDecision, FaultPlan,
                            InjectedTaskError, SimulatedCrash, SimulatedHang,
                            apply_fault, available_fault_plans,
                            build_fault_plan)


class TestFaultPlanValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(exception_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(crash_rate=1.5)

    def test_fault_rates_must_sum_to_at_most_one(self):
        with pytest.raises(ValueError):
            FaultPlan(exception_rate=0.5, crash_rate=0.4, hang_rate=0.2)

    def test_seconds_must_be_non_negative(self):
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=-1.0)

    def test_default_plan_is_fault_free(self):
        plan = FaultPlan()
        decisions = [plan.decide(r, c, a)
                     for r in range(3) for c in range(8) for a in range(2)]
        assert all(d.kind == "none" for d in decisions)


class TestNamedPlans:
    def test_registry_names_are_sorted_and_stable(self):
        assert available_fault_plans() == sorted(FAULT_PLANS)
        assert {"chaos", "crashy", "hang-prone",
                "poison-task"} <= set(FAULT_PLANS)

    def test_build_fault_plan_seeds_the_plan(self):
        plan = build_fault_plan("crashy", seed=7)
        assert plan.seed == 7
        assert plan.crash_rate > 0

    def test_unknown_plan_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan"):
            build_fault_plan("meteor-strike")

    def test_poison_plan_fails_every_attempt(self):
        """Poisoned tasks draw without the attempt: retries never save them."""
        plan = build_fault_plan("poison-task", seed=0)
        poisoned = [(r, c) for r in range(20) for c in range(8)
                    if plan.decide(r, c, 0).kind == "exception"
                    and plan.decide(r, c, 50).kind == "exception"]
        # the poison_rate makes at least some (round, client) pairs sticky
        sticky = [key for key in poisoned
                  if all(plan.decide(key[0], key[1], a).kind == "exception"
                         for a in range(6))]
        assert sticky, "poison-task must produce retry-proof exceptions"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), round_index=st.integers(0, 10_000),
       client_id=st.integers(0, 10**6), attempt=st.integers(0, 16))
def test_decide_is_pure(seed, round_index, client_id, attempt):
    """Decisions are a pure function of (seed, round, client, attempt)."""
    plan = FaultPlan(seed=seed, exception_rate=0.2, crash_rate=0.2,
                     hang_rate=0.2, slow_rate=0.2)
    first = plan.decide(round_index, client_id, attempt)
    again = FaultPlan(seed=seed, exception_rate=0.2, crash_rate=0.2,
                      hang_rate=0.2, slow_rate=0.2).decide(
        round_index, client_id, attempt)
    assert first == again
    assert first.kind in ("none", "exception", "crash", "hang", "slow")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_neighbouring_coordinates_draw_independently(seed):
    """Different (round, client, attempt) coordinates get their own draws."""
    plan = FaultPlan(seed=seed, exception_rate=0.25, crash_rate=0.25,
                     hang_rate=0.25, slow_rate=0.25)
    kinds = {(r, c, a): plan.decide(r, c, a).kind
             for r in range(4) for c in range(4) for a in range(2)}
    # a constant mapping would mean the coordinates are ignored
    assert len(set(kinds.values())) > 1


class TestApplyFault:
    def test_none_is_a_no_op(self):
        assert apply_fault(FaultDecision()) is None

    def test_exception_raises_injected_task_error(self):
        with pytest.raises(InjectedTaskError):
            apply_fault(FaultDecision(kind="exception"))

    def test_simulated_crash_raises_instead_of_exiting(self):
        with pytest.raises(SimulatedCrash):
            apply_fault(FaultDecision(kind="crash"), real=False)

    def test_simulated_hang_raises_immediately(self):
        with pytest.raises(SimulatedHang):
            apply_fault(FaultDecision(kind="hang", seconds=30.0), real=False)

    def test_real_hang_sleep_is_budget_capped(self):
        import time

        start = time.perf_counter()
        with pytest.raises(SimulatedHang):
            apply_fault(FaultDecision(kind="hang", seconds=30.0),
                        real=True, budget=0.2)
        assert time.perf_counter() - start < 5.0

    def test_slow_decision_just_delays(self):
        assert apply_fault(FaultDecision(kind="slow", seconds=0.0),
                           real=True) is None
