"""Engine differential testing: reference vs batch vs SQLite.

The reference interpreter (`repro.datalog.engine`) is the oracle.  The batch
runtime (`repro.datalog.exec`) and the SQL translation executed on SQLite
must agree with it — identical target instances up to LabeledNull
isomorphism (`repro.model.diff.diff_up_to_invented`) — on:

* every bundled scenario's canonical instances (the frozen per-rule source
  instances the semantic verifier builds),
* a sample of seeded generated scenarios with their paired random source
  instances (``repro.scenarios.generator``), and
* the synthetic CARS workloads the scaling benchmarks sweep.

The batch engine must also reproduce the reference engine's intermediate
relations and per-rule counts.
"""

from __future__ import annotations

import pytest

from repro.analysis.semantic.verifier import canonical_instances
from repro.core.pipeline import MappingSystem
from repro.datalog.engine import evaluate
from repro.datalog.exec import evaluate_batch
from repro.model.diff import diff_up_to_invented
from repro.scenarios import bundled_problems
from repro.scenarios.cars import figure1_problem, figure12_problem, figure14_problem
from repro.scenarios.generator import generate_scenario
from repro.scenarios.synthetic import cars2_instance, cars3_instance, cars4_instance
from repro.sqlgen.executor import duckdb_available, run_on_duckdb, run_on_sqlite


def _scenario_names():
    return sorted(bundled_problems())


def _assert_agreement(program, source, context):
    reference = evaluate(program, source)
    batch = evaluate_batch(program, source)

    target_diff = diff_up_to_invented(reference.target, batch.target)
    assert target_diff.empty, (
        f"batch engine disagrees with reference on {context}:\n"
        + target_diff.to_text()
    )
    assert reference.rule_counts == batch.rule_counts, context
    assert set(reference.intermediates) == set(batch.intermediates), context
    for name, rows in reference.intermediates.items():
        assert set(rows) == set(batch.intermediates[name]), (context, name)

    sqlite_target = run_on_sqlite(program, source)
    sqlite_diff = diff_up_to_invented(reference.target, sqlite_target)
    assert sqlite_diff.empty, (
        f"SQLite disagrees with reference on {context}:\n" + sqlite_diff.to_text()
    )

    if duckdb_available():  # optional dependency: checked when installed
        duckdb_target = run_on_duckdb(program, source)
        duckdb_diff = diff_up_to_invented(reference.target, duckdb_target)
        assert duckdb_diff.empty, (
            f"DuckDB disagrees with reference on {context}:\n"
            + duckdb_diff.to_text()
        )
    return reference


class TestBundledScenarios:
    """All three engines agree on every scenario's canonical instances."""

    @pytest.mark.parametrize("name", _scenario_names())
    def test_canonical_instances_agree(self, name):
        problem = bundled_problems()[name]
        program = MappingSystem(problem).transformation
        checked = 0
        for label, instance in canonical_instances(program):
            _assert_agreement(program, instance, f"{name} / {label}")
            checked += 1
        assert checked > 0, f"no canonical instance for {name!r}"


class TestGeneratedScenarios:
    """All engines agree on generated scenarios' paired random instances."""

    @pytest.mark.parametrize("seed", range(12))
    def test_generated_scenarios_agree(self, seed):
        scenario = generate_scenario(seed)
        program = MappingSystem(scenario.problem).transformation
        _assert_agreement(program, scenario.source_instance, scenario.name)


#: (label, problem factory, instance factory) — the scaling workloads.
SYNTHETIC_WORKLOADS = [
    (
        "figure1-cars3",
        figure1_problem,
        lambda n: cars3_instance(
            n_persons=n // 2, n_cars=n, ownership=0.6, seed=n
        ),
    ),
    (
        "figure12-cars4",
        figure12_problem,
        lambda n: cars4_instance(n_persons=n // 2, n_cars=n, seed=n),
    ),
    (
        "figure14-cars2",
        figure14_problem,
        lambda n: cars2_instance(n_persons=n // 2, n_cars=n, seed=n),
    ),
]


class TestSyntheticWorkloads:
    @pytest.mark.parametrize("size", [40, 200])
    @pytest.mark.parametrize(
        "label,problem_factory,instance_factory",
        SYNTHETIC_WORKLOADS,
        ids=[w[0] for w in SYNTHETIC_WORKLOADS],
    )
    def test_cars_workloads_agree(self, label, problem_factory, instance_factory, size):
        program = MappingSystem(problem_factory()).transformation
        source = instance_factory(size)
        result = _assert_agreement(program, source, f"{label} n={size}")
        assert result.target.total_size() > 0

