"""The exact prefilters of candidate pruning, fusion and rule subsumption.

Algorithm 3's subsumption pruning, Algorithm 4's fusion and the Ex. 6.8
rule-subsumption pass compare only the candidates, subsets and rules that
can match. Each prefilter skips only comparisons the full test rejects, so
the all-pairs walks they replaced serve as oracles here: survivors, prune
records (``by=`` included) and kept rules must be those of the old walks.
The work-count tests pin that the skipped comparisons are really skipped,
and the generator seeds whose fusion walk used to run for hours must
compile.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from functools import lru_cache

import pytest

from repro.core import pruning, resolution
from repro.core.candidates import PruneRecord
from repro.core.conflicts import conflicting_sets, conflicts_in_group
from repro.core.pipeline import MappingSystem
from repro.core.pruning import prune_candidates
from repro.core.query_generation import generate_queries, rewrite_to_unitary
from repro.core.schema_mapping import generate_schema_mapping
from repro.core.skolem import skolemize_schema_mapping
from repro.datalog.optimize import (
    drop_dead_intermediates,
    remove_subsumed_rules,
    subsumes_rule,
)
from repro.datalog.program import DatalogProgram, Rule
from repro.logic.atoms import RelationalAtom
from repro.logic.terms import Variable
from repro.scenarios import bundled_problems
from repro.scenarios.generator import generate_scenario

GENERATED_SEEDS = range(200)
#: generator seeds whose conflicting sets made the all-subsets fusion walk
#: (and, for the larger ones, the all-pairs pruning) run for hours
HANGING_SEEDS = (326, 1068, 1172, 1618, 1827)

PROBLEM_NAMES = [*bundled_problems(), *(f"gen-{seed}" for seed in GENERATED_SEEDS)]
#: gen-106 has 10,288 same-covered-set candidate pairs (the next seed below
#: 200 has 4,532); each walk of them through the containment engine takes
#: about 20 s, so its semantic run is left out here. Its syntactic run and
#: the work-count test below still cover it.
SEMANTIC_NAMES = [name for name in PROBLEM_NAMES if name != "gen-106"]


@lru_cache(maxsize=None)
def _problem(name: str):
    if name.startswith("gen-"):
        return generate_scenario(int(name[len("gen-"):])).problem
    return bundled_problems()[name]


@lru_cache(maxsize=None)
def _schema_mapping(name: str):
    problem = _problem(name)
    return generate_schema_mapping(
        problem.source_schema, problem.target_schema, problem.correspondences
    )


# -- oracles: the all-pairs walks the prefilters replaced ------------------


def _all_pairs_subsumption(candidates, semantic) -> list[PruneRecord]:
    """The records of Algorithm 3's subsumption step over every ordered pair."""
    records = []
    for candidate in candidates:
        record = None
        for other in candidates:
            if other is candidate:
                continue
            if pruning.subsumes(other, candidate):
                record = (other, "")
            elif semantic and pruning.semantic_subsumes(other, candidate):
                record = (other, " (semantic)")
            if record is not None:
                break
        if record is not None:
            subsumer, note = record
            records.append(
                PruneRecord(
                    candidate.name,
                    repr(candidate),
                    f"subsumed by {subsumer.name}{note}",
                    rule="subsumption",
                    by=subsumer.name,
                )
            )
    return records


def _all_pairs_remove_subsumed_rules(program: DatalogProgram) -> DatalogProgram:
    """Ex. 6.8's standard optimization trying every ordered pair of rules."""
    kept = []
    rules = program.rules
    for i, rule in enumerate(rules):
        redundant = False
        for j, other in enumerate(rules):
            if i == j:
                continue
            if subsumes_rule(other, rule):
                if subsumes_rule(rule, other) and i < j:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(rule)
    return drop_dead_intermediates(program, kept)


# -- differential tests -----------------------------------------------------


@pytest.mark.parametrize(
    "name, semantic",
    [(name, False) for name in PROBLEM_NAMES]
    + [(name, True) for name in SEMANTIC_NAMES],
)
def test_pruning_matches_all_pairs_walk(name, semantic):
    # The subsumption records fix the survivors, and implication and
    # non-null extension run on them unchanged.
    candidates = _schema_mapping(name).report.candidates
    result = prune_candidates(candidates, semantic=semantic)
    subsumed = [record for record in result.pruned if record.rule == "subsumption"]
    assert subsumed == _all_pairs_subsumption(candidates, semantic)


@pytest.mark.parametrize("name", PROBLEM_NAMES)
def test_rule_subsumption_matches_all_pairs_walk(name):
    program = generate_queries(
        _schema_mapping(name).schema_mapping, optimize=False
    ).program
    expected = _all_pairs_remove_subsumed_rules(program)
    actual = remove_subsumed_rules(program)
    assert actual.rules == expected.rules
    assert actual.intermediates == expected.intermediates


def _rule(head, *body):
    return Rule(head=head, body=tuple(body))


def test_non_injective_witness_is_not_prefiltered_away():
    """``T(x) :- R(x,y), R(x,z)`` subsumes ``T(x) :- R(x,y)``: z ↦ y.

    Its body holds R twice and the specific rule's once, so a multiset
    prefilter would skip the pair and keep both rules.
    """
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    general = _rule(
        RelationalAtom("T", (x,)),
        RelationalAtom("R", (x, y)),
        RelationalAtom("R", (x, z)),
    )
    specific = _rule(RelationalAtom("T", (x,)), RelationalAtom("R", (x, y)))
    assert subsumes_rule(general, specific)
    program = DatalogProgram(rules=[general, specific])
    assert remove_subsumed_rules(program).rules == [general]
    assert _all_pairs_remove_subsumed_rules(program).rules == [general]


# -- work counts ------------------------------------------------------------


def test_pruning_compares_only_within_covered_set_buckets(monkeypatch):
    candidates = _schema_mapping("gen-106").report.candidates
    sizes: dict[frozenset, int] = {}
    for candidate in candidates:
        key = candidate.covered_set()
        sizes[key] = sizes.get(key, 0) + 1
    bound = sum(n * (n - 1) for n in sizes.values())
    calls = []
    real = pruning.subsumes

    def counting(small, big):
        calls.append((small, big))
        return real(small, big)

    monkeypatch.setattr(pruning, "subsumes", counting)
    prune_candidates(candidates)
    assert calls, "gen-106 must exercise subsumption pruning"
    assert len(calls) <= bound < len(candidates) * (len(candidates) - 1)


def _fusion_groups(name):
    """``(|group|, |eligible|)`` for every conflicting set fusion walks."""
    problem = _problem(name)
    mappings = list(_schema_mapping(name).schema_mapping)
    unitary = rewrite_to_unitary(
        skolemize_schema_mapping(mappings, problem.target_schema)
    )
    groups = []
    for group in conflicting_sets(unitary).values():
        conflicts = list(
            conflicts_in_group(group, problem.source_schema, problem.target_schema)
        )
        if not conflicts:
            continue
        eligible = {i for i, _j, c in conflicts if c.preferred == "left"}
        eligible |= {j for _i, j, c in conflicts if c.preferred == "right"}
        groups.append((len(group), len(eligible)))
    return groups


def _count_fusion_checks(monkeypatch, problem) -> int:
    calls = []
    real = resolution._qualifies_for_fusion

    def counting(indices, preferred_over):
        calls.append(indices)
        return real(indices, preferred_over)

    monkeypatch.setattr(resolution, "_qualifies_for_fusion", counting)
    MappingSystem(problem).compile()
    return len(calls)


def test_fusion_walks_no_subset_without_preferences(monkeypatch):
    # T0's 36-member conflicting set holds only equal-preference conflicts.
    assert _count_fusion_checks(monkeypatch, _problem("gen-326")) == 0


def test_fusion_walks_only_subsets_of_eligible_members(monkeypatch):
    groups = _fusion_groups("figure-4")
    assert any(size > eligible for size, eligible in groups), groups
    checks = _count_fusion_checks(monkeypatch, _problem("figure-4"))
    assert checks <= sum(2**eligible for _size, eligible in groups)
    assert checks < sum(2**size for size, _eligible in groups)


# -- the seeds that used to hang --------------------------------------------


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"still compiling after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", HANGING_SEEDS)
def test_hanging_seed_compiles(seed):
    with _deadline(60):
        program = MappingSystem(generate_scenario(seed).problem).compile()
    assert program.rules
