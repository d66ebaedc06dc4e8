"""Self-checks for the benchmark's own helpers.

Run from the repository root:

    python3 -m pytest -q perfbench/test_selfcheck.py
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- tail percentile ------------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    value, percentile, beyond = metrics.tail(values)
    assert (value, percentile, beyond) == (90, 90.0, 10)
    assert sum(v > value for v in values) == 10


def test_tail_is_the_highest_such_percentile():
    values = [5.0] * 30 + [7.0]
    value, percentile, beyond = metrics.tail(values)
    assert beyond == 10 and percentile == pytest.approx(100 * 21 / 31)
    assert value == 5.0


def test_tail_needs_eleven_samples():
    assert metrics.tail(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        metrics.tail(list(range(10)))


# -- spans and self time ------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_operator_time():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def op():
        clock.now += 1.0

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 3.0
        traced_leaf()
        traced_op()
        traced_leaf()

    def outer():
        clock.now += 4.0
        traced_middle()

    traced_op = tracer.wrap_operator("mul", op)
    traced_leaf = tracer.wrap_span("leaf", leaf)
    traced_middle = tracer.wrap_span("middle", middle)
    tracer.wrap_span("outer", outer)()

    by_name = {rec[spans.NAME]: rec for rec in tracer.spans}
    own = dict(zip((rec[spans.NAME] for rec in tracer.spans), spans.self_times(tracer.spans)))
    assert by_name["outer"][spans.END] - by_name["outer"][spans.START] == 12.0
    assert own == {"outer": 4.0, "middle": 3.0, "leaf": 2.0}
    assert tracer.ops["mul"] == [1, 1.0]
    assert by_name["middle"][spans.OP_S] == 1.0


def test_nested_operators_count_once():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)

    def inner():
        clock.now += 1.0

    traced_inner = tracer.wrap_operator("mul", inner)

    def power():
        traced_inner()
        traced_inner()

    tracer.wrap_operator("pow", power)()
    assert tracer.ops["pow"] == [1, 2.0]
    assert tracer.ops["mul"] == [0, 0.0]


def test_install_patches_by_name_imports_and_restores():
    from finiverse import fields, geometry

    original = fields.element_index
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geometry.element_index is fields.element_index is not original
        space = geometry.AffineSpace(fields.make_prime_field(3), 2)
        geometry.find_degenerate_pair(space)
    finally:
        tracer.uninstall()
    assert fields.element_index is original and geometry.element_index is original
    names = {rec[spans.NAME] for rec in tracer.spans}
    assert {"fields.make_prime_field", "geometry.points", "geometry.find_degenerate_pair",
            "geometry.squared_distance"} <= names
    assert tracer.ops["mul"][0] > 0 and tracer.ops["add"][0] > 0


# -- traced and untraced runs agree -------------------------------------------------


@pytest.mark.parametrize("workload", ["axioms", "field_sweep", "spaces"])
def test_traced_and_untraced_outputs_identical(workload):
    cycle = workloads.job_list(workload, seed=7)[0]
    jobs = sorted(cycle, key=lambda job: len(str(job)))[:4]  # a few cheap ones
    plain = [workloads.summarize(job, workloads.run_job(job)) for job in jobs]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [workloads.summarize(job, workloads.run_job(job)) for job in jobs]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans
    for job, out in zip(jobs, plain):
        assert oracles.check(job, out) is None


# -- job lists and oracles --------------------------------------------------------------


def test_job_list_is_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.job_hash(workloads.job_list(workload, 11))
        assert a == workloads.job_hash(workloads.job_list(workload, 11))
        assert a != workloads.job_hash(workloads.job_list(workload, 12))


def test_cycles_share_one_composition():
    for workload in workloads.WORKLOADS:
        cycles = workloads.job_list(workload, 3)
        kinds = [sorted(job["kind"] for job in cycle) for cycle in cycles]
        assert all(k == kinds[0] for k in kinds)


def test_field_sweep_respects_the_construction_bound():
    for cycle in workloads.job_list("field_sweep", 5)[:8]:
        for job in cycle:
            if job["k"] == 1:
                assert job["p"] < workloads.PRIME_FIELD_MAX
            else:
                assert workloads.search_cost(job["p"], job["k"]) <= workloads.SEARCH_BOUND


def test_oracles_reject_wrong_outputs():
    job = {"kind": "ring_axioms", "n": 12}
    good = {"order": 12, "checks": {"commutativity": [True, None],
                                    "inverses": [False, ["2", "multiplicative"]]}}
    assert oracles.check(job, good) is None
    bad = {"order": 12, "checks": {"commutativity": [True, None],
                                   "inverses": [False, ["3", "multiplicative"]]}}
    assert oracles.check(job, bad) is not None

    job = workloads.job_list("field_sweep", 2)[0][0]
    out = workloads.summarize(job, workloads.run_job(job))
    assert oracles.check(job, out) is None
    out["mul"][0] = [(c + 1) % job["p"] for c in out["mul"][0]]
    assert oracles.check(job, out) is not None


def test_cli_goldens_cover_every_command():
    assert set(oracles.goldens()) == {json.dumps(argv) for argv in workloads.CLI_COMMANDS}
    exits = [g["exit"] for g in oracles.goldens().values()]
    assert exits.count(2) == 1
