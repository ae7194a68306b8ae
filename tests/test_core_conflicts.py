"""Tests for key-conflict identification (Example 6.3 and friends)."""

import pytest

from repro.core import conflicts as conflicts_module
from repro.core import functionality as functionality_module
from repro.core.conflicts import (
    COPY,
    INVENT,
    NULL_KIND,
    conflicts_in_group,
    find_all_conflicts,
    find_key_conflicts,
    conflicting_sets,
    term_kind,
)
from repro.core.functionality import differing_positions, rename_unitary
from repro.core.pipeline import MappingSystem
from repro.core.query_generation import rewrite_to_unitary
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.logic.satisfiability import check_equal_and_differ, close_premise
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.obs import Tracer, use_tracer
from repro.scenarios import bundled_problems, cars, generated_problems

from . import satisfiability_oracle as oracle


def _unitary(problem):
    result = generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    )
    skolemized = skolemize_schema_mapping(
        list(result.schema_mapping), problem.target_schema
    )
    return problem, rewrite_to_unitary(skolemized)


class TestTermKind:
    def test_kinds(self):
        assert term_kind(Variable("x")) == COPY
        assert term_kind(Constant("c")) == COPY
        assert term_kind(NULL_TERM) == NULL_KIND
        assert term_kind(SkolemTerm("f", [])) == INVENT


class TestExample63:
    """Example 6.3 on the Figure 1 problem."""

    def test_p2_mappings_do_not_conflict(self, figure1_problem):
        problem, unitary = _unitary(figure1_problem)
        p2_mappings = conflicting_sets(unitary)["P2"]
        assert len(p2_mappings) == 2
        conflicts = find_key_conflicts(
            p2_mappings[0], p2_mappings[1], problem.source_schema, problem.target_schema
        )
        assert conflicts == []  # the fourth generates a subset of the first

    def test_c2_mappings_soft_conflict_on_person(self, figure1_problem):
        problem, unitary = _unitary(figure1_problem)
        c2_mappings = conflicting_sets(unitary)["C2"]
        assert len(c2_mappings) == 2
        conflicts = find_key_conflicts(
            c2_mappings[0], c2_mappings[1], problem.source_schema, problem.target_schema
        )
        assert len(conflicts) == 1
        [conflict] = conflicts
        assert conflict.attribute == "person"
        assert {conflict.left_kind, conflict.right_kind} == {NULL_KIND, COPY}
        assert not conflict.is_hard
        # The copying mapping is preferred.
        preferred = (
            conflict.left if conflict.preferred == "left" else conflict.right
        )
        assert term_kind(preferred.consequent.terms[2]) == COPY

    def test_no_conflict_on_model(self, figure1_problem):
        # The key c determines model via C3's key in both premises.
        problem, unitary = _unitary(figure1_problem)
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        assert all(c.attribute != "model" for c in conflicts)


class TestExampleC1Conflicts:
    def test_invented_key_never_conflicts(self):
        # C.1: the C3 -> P2a mapping invents its key, so it cannot conflict.
        problem, unitary = _unitary(cars.figure10_problem())
        p2a = conflicting_sets(unitary)["P2a"]
        assert len(p2a) == 3
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        p2a_conflicts = [c for c in conflicts if c.left.consequent.relation == "P2a"]
        assert p2a_conflicts == []

    def test_c2a_soft_conflict_on_person(self):
        problem, unitary = _unitary(cars.figure10_problem())
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        c2a = [c for c in conflicts if c.left.consequent.relation == "C2a"]
        assert len(c2a) == 1
        assert c2a[0].attribute == "person"
        assert {c2a[0].left_kind, c2a[0].right_kind} == {INVENT, COPY}


class TestExampleC2Conflicts:
    def test_pairwise_preferences(self):
        problem, unitary = _unitary(cars.figure12_problem())
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        # m1 vs m2 on o_name, m1 vs m3 on d_name, m2 vs m3 on both.
        attributes = sorted(c.attribute for c in conflicts)
        assert attributes == ["d_name", "d_name", "o_name", "o_name"]
        assert all(not c.is_hard for c in conflicts)


class TestExample67Conflicts:
    def test_equal_preference_invent_invent(self):
        from repro.scenarios.appendix_c import example_6_7_problem

        problem, unitary = _unitary(example_6_7_problem())
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        by_attribute = {}
        for conflict in conflicts:
            by_attribute.setdefault(conflict.attribute, []).append(conflict)
        assert set(by_attribute) == {"a", "b", "x"}
        [x_conflict] = by_attribute["x"]
        assert x_conflict.preferred == "equal"
        assert x_conflict.left_kind == INVENT and x_conflict.right_kind == INVENT


class TestHardConflicts:
    def test_two_copies_conflict_hard(self):
        from repro.core.pipeline import MappingProblem
        from repro.model.builder import SchemaBuilder

        source = (
            SchemaBuilder("src")
            .relation("A", "k", "v")
            .relation("B", "k", "v")
            .build()
        )
        target = SchemaBuilder("tgt").relation("T", "k", "v").build()
        problem = MappingProblem(source, target)
        problem.add_correspondence("A.k", "T.k")
        problem.add_correspondence("A.v", "T.v")
        problem.add_correspondence("B.k", "T.k")
        problem.add_correspondence("B.v", "T.v")
        problem, unitary = _unitary(problem)
        conflicts = find_all_conflicts(
            unitary, problem.source_schema, problem.target_schema
        )
        assert any(c.is_hard for c in conflicts)
        assert "T.v" in str(conflicts[0]) or "v" in str(conflicts[0])


def _fresh_positions(left, renamed, source_schema, relation):
    """The differing non-key positions, one fresh closure per position."""
    key_positions = relation.key_positions()
    premises = (left.premise, renamed.premise)
    atoms = [atom for premise in premises for atom in premise.atoms]
    equalities = [
        (left.consequent.terms[p], renamed.consequent.terms[p]) for p in key_positions
    ]
    equalities += [(e.left, e.right) for premise in premises for e in premise.equalities]
    null_terms = [v for premise in premises for v in premise.null_vars]
    nonnull_terms = [v for premise in premises for v in premise.nonnull_vars]
    disequalities = [
        (d.left, d.right) for premise in premises for d in premise.disequalities
    ]
    return [
        position
        for position in range(relation.arity)
        if position not in key_positions
        and check_equal_and_differ(
            atoms,
            source_schema,
            equalities,
            (left.consequent.terms[position], renamed.consequent.terms[position]),
            null_terms,
            nonnull_terms,
            disequalities,
        )
    ]


class _CheckedClosure:
    """A closed premise whose every answer is compared with the reference
    solver's answer to the same question."""

    def __init__(self, closure, reference):
        self.closure = closure
        self.reference = reference

    def can_differ(self, left, right):
        answer = self.closure.can_differ(left, right)
        assert answer == self.reference.can_differ(left, right), (left, right)
        return answer


def _checked_close_premise(*premise):
    closure = close_premise(*premise)
    reference = oracle.close_premise(*premise)
    assert (closure is None) == (reference is None), premise
    return None if closure is None else _CheckedClosure(closure, reference)


def _assert_shared_closure_agrees(problem, monkeypatch):
    monkeypatch.setattr(functionality_module, "close_premise", _checked_close_premise)
    problem, unitary = _unitary(problem)
    source, target = problem.source_schema, problem.target_schema
    checked = 0
    for mapping in unitary:
        relation = target.relation(mapping.consequent.relation)
        copy = rename_unitary(mapping)
        assert list(differing_positions(mapping, copy, source, relation)) == (
            _fresh_positions(mapping, copy, source, relation)
        ), mapping
        checked += 1
    for group in conflicting_sets(unitary).values():
        relation = target.relation(group[0].consequent.relation)
        per_pair = {}
        for i, j, conflict in conflicts_in_group(group, source, target):
            per_pair.setdefault((i, j), []).append(conflict)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                renamed = rename_unitary(group[j])
                shared = list(differing_positions(group[i], renamed, source, relation))
                assert shared == _fresh_positions(group[i], renamed, source, relation)
                assert per_pair.get((i, j), []) == find_key_conflicts(
                    group[i], group[j], source, target
                )
                assert [c.attribute for c in per_pair.get((i, j), [])] == [
                    relation.attributes[p].name for p in shared
                ]
                checked += 1
    return checked


class TestSharedClosureDifferential:
    """One closed premise per mapping or pair answers every non-key position
    exactly as a fresh closure per position does, and every closure agrees
    with the reference solver on unsatisfiability and on every answer."""

    @pytest.mark.parametrize("name", sorted(bundled_problems()))
    def test_bundled_scenarios(self, name, monkeypatch):
        assert _assert_shared_closure_agrees(bundled_problems()[name], monkeypatch) > 0

    @pytest.mark.parametrize("start", range(0, 200, 25))
    def test_generated_scenarios(self, start, monkeypatch):
        for problem in generated_problems(range(start, start + 25)).values():
            assert _assert_shared_closure_agrees(problem, monkeypatch) > 0


def _compile_counting(problem, monkeypatch):
    """Compile under a tracer, counting renames made by the conflict check."""
    renames = []

    def counting_rename(mapping):
        renames.append(mapping)
        return rename_unitary(mapping)

    monkeypatch.setattr(conflicts_module, "rename_unitary", counting_rename)
    tracer = Tracer()
    system = MappingSystem(problem)
    with use_tracer(tracer):
        system.compile()
    return system.query_result().unitary, tracer.counters, len(renames)


class TestClosureWorkCount:
    """Work counts, not times: one closure per functional-check mapping and
    per same-relation pair, one question per non-key position, one rename
    per conflicting-set member that is ever on the right of a pair."""

    @pytest.mark.parametrize(
        "problem",
        [cars.figure1_problem(), generated_problems([110])["gen-110"]],
        ids=["figure1", "gen-110"],
    )
    def test_one_closure_per_mapping_and_pair(self, problem, monkeypatch):
        unitary, counters, renames = _compile_counting(problem, monkeypatch)
        target = problem.target_schema

        def non_key(mapping):
            relation = target.relation(mapping.consequent.relation)
            return relation.arity - len(relation.key_positions())

        groups = list(conflicting_sets(unitary).values())
        pairs = [
            (group[i], group[j])
            for group in groups
            for i in range(len(group))
            for j in range(i + 1, len(group))
        ]
        closures = sum(1 for m in unitary if non_key(m)) + sum(
            1 for left, _ in pairs if non_key(left)
        )
        checks = sum(non_key(m) for m in unitary) + sum(non_key(l) for l, _ in pairs)
        # Closing once per position would make closures equal checks; on
        # gen-110 (sets of 4, 4 and 8 mappings) renaming once per pair would
        # make renames equal the 40 pairs instead of 13.
        assert checks > closures
        assert counters["satisfiability.closures"] == closures
        assert counters["satisfiability.checks"] == checks
        assert renames == sum(len(group) - 1 for group in groups if len(group) > 1)
