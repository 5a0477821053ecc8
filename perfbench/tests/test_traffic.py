"""Open-loop schedule and rate-ladder logic of the serve workloads."""

import pytest

import traffic
from traffic import Outcome, StepResult


def test_poisson_schedule_is_deterministic_per_seed():
    a = traffic.poisson_schedule(50.0, 4.0, seed=3)
    b = traffic.poisson_schedule(50.0, 4.0, seed=3)
    c = traffic.poisson_schedule(50.0, 4.0, seed=4)
    assert a == b
    assert a != c
    assert all(0.0 < t < 4.0 for t in a)
    assert a == sorted(a)
    # the count of a Poisson process at 50/s over 4 s: 200 +- a few sigma
    assert 150 < len(a) < 250


def test_request_plan_is_deterministic_and_in_bounds():
    tenants = ["a", "b", "c"]
    plan = traffic.request_plan(500, tenants, (1, 8), 40, seed=9)
    assert plan == traffic.request_plan(500, tenants, (1, 8), 40, seed=9)
    assert plan != traffic.request_plan(500, tenants, (1, 8), 40, seed=10)
    for tenant, first, n in plan:
        assert tenant in tenants
        assert 1 <= n <= 8
        assert 0 <= first and first + n <= 40
    assert {t for t, _, _ in plan} == set(tenants)


def test_request_plan_rejects_rows_beyond_the_pool():
    with pytest.raises(ValueError):
        traffic.request_plan(10, ["a"], (1, 50), 40, seed=0)


def _step(rate, latencies, *, planned=None, stopped=False, failed=0):
    outcomes = [Outcome(i, "t", 0.0, 0.0, lat, True)
                for i, lat in enumerate(latencies)]
    outcomes += [Outcome(len(outcomes) + i, "t", 0.0, 0.0, 0.001, False)
                 for i in range(failed)]
    return StepResult(rate=rate, outcomes=outcomes, stopped_early=stopped,
                      planned=len(outcomes) if planned is None else planned)


def test_step_passes_at_exactly_99_percent_within_the_limit():
    assert traffic.step_passes(_step(10, [0.01] * 99 + [0.5]), 0.025)
    assert not traffic.step_passes(_step(10, [0.01] * 98 + [0.5] * 2), 0.025)


def test_failed_and_unsent_requests_count_as_misses():
    assert not traffic.step_passes(_step(10, [0.01] * 98, failed=2), 0.025)
    # 99 fast answers, but 101 were planned: one never went out
    assert not traffic.step_passes(_step(10, [0.01] * 99, planned=101),
                                   0.025)


def test_a_step_that_stopped_early_never_passes():
    assert not traffic.step_passes(_step(10, [0.001] * 100, stopped=True),
                                   0.025)


def test_max_rate_is_the_top_of_the_unbroken_passing_run():
    fast, slow = [0.005] * 200, [0.05] * 200
    steps = [_step(20, fast), _step(40, fast), _step(80, slow),
             _step(160, fast)]
    assert traffic.max_rate(steps, 0.025) == 40
    assert traffic.max_rate([_step(20, slow), _step(40, fast)], 0.025) == 0.0
    assert traffic.max_rate([], 0.025) == 0.0
    early = [_step(20, fast), _step(40, fast[:10], planned=200, stopped=True)]
    assert traffic.max_rate(early, 0.025) == 20


def test_poisson_count_is_deterministic_and_exact():
    a = traffic.poisson_count(10.0, 90, seed=5)
    assert a == traffic.poisson_count(10.0, 90, seed=5)
    assert a != traffic.poisson_count(10.0, 90, seed=6)
    assert len(a) == 90
    assert all(x < y for x, y in zip(a, a[1:]))
    assert 4.0 < a[-1] < 18.0  # about 9 s at 10/s
