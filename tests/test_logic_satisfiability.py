"""Tests for the egd-chase satisfiability engine.

These checks back the functionality test and the key-conflict test of
Algorithm 4, so the axioms (Skolem injectivity, disjoint functor ranges,
invented values distinct from source values, null semantics, key fds) are
each exercised.
"""

from hypothesis import given, settings, strategies as st

from repro.logic.atoms import RelationalAtom
from repro.logic.satisfiability import (
    SAT,
    UNSAT,
    PremiseClosure,
    check_equal_and_differ,
    close_premise,
)
from repro.logic.terms import NULL_TERM, Constant, SkolemTerm, Variable
from repro.model.builder import SchemaBuilder

from . import satisfiability_oracle as oracle


def V(name):
    return Variable(name)


class TestTermSolver:
    """Term-level facts and the key-FD chase on one :class:`PremiseClosure`."""

    def test_basic_union(self):
        closure = PremiseClosure(None)
        x, y, z = V("x"), V("y"), V("z")
        closure.equate(x, y)
        closure.equate(y, z)
        assert closure.terms_equal(x, z)
        assert closure.contradiction is None

    def test_distinct_constants_clash(self):
        closure = PremiseClosure(None)
        x = V("x")
        closure.equate(x, Constant("a"))
        closure.equate(x, Constant("b"))
        assert closure.contradiction is not None

    def test_same_constant_no_clash(self):
        closure = PremiseClosure(None)
        x = V("x")
        closure.equate(x, Constant("a"))
        closure.equate(x, Constant("a"))
        assert closure.contradiction is None

    def test_null_vs_constant_clash(self):
        closure = PremiseClosure(None)
        x = V("x")
        closure.assert_null(x)
        closure.equate(x, Constant("a"))
        assert closure.contradiction is not None

    def test_null_vs_nonnull_clash(self):
        closure = PremiseClosure(None)
        x = V("x")
        closure.assert_nonnull(x)
        closure.assert_null(x)
        assert closure.contradiction is not None

    def test_skolem_vs_variable_clash(self):
        # Invented values are distinct from every source value (paper sec. 6).
        closure = PremiseClosure(None)
        x, y = V("x"), V("y")
        closure.equate(x, SkolemTerm("f", [y]))
        assert closure.contradiction is not None

    def test_skolem_vs_constant_clash(self):
        closure = PremiseClosure(None)
        closure.equate(SkolemTerm("f", []), Constant("a"))
        assert closure.contradiction is not None

    def test_skolem_vs_null_clash(self):
        closure = PremiseClosure(None)
        closure.equate(SkolemTerm("f", []), NULL_TERM)
        assert closure.contradiction is not None

    def test_different_functors_clash(self):
        closure = PremiseClosure(None)
        x = V("x")
        closure.equate(SkolemTerm("f", [x]), SkolemTerm("g", [x]))
        assert closure.contradiction is not None

    def test_injectivity_decomposes_args(self):
        closure = PremiseClosure(None)
        x, y = V("x"), V("y")
        closure.equate(SkolemTerm("f", [x]), SkolemTerm("f", [y]))
        assert closure.contradiction is None
        assert closure.terms_equal(x, y)

    def test_congruence_merges_applications(self):
        closure = PremiseClosure(None)
        x, y = V("x"), V("y")
        fx, fy = SkolemTerm("f", [x]), SkolemTerm("f", [y])
        assert not closure.terms_equal(fx, fy)
        closure.equate(x, y)
        assert closure.terms_equal(fx, fy)

    def test_nested_congruence(self):
        closure = PremiseClosure(None)
        x, y = V("x"), V("y")
        gfx = SkolemTerm("g", [SkolemTerm("f", [x])])
        gfy = SkolemTerm("g", [SkolemTerm("f", [y])])
        assert not closure.terms_equal(gfx, gfy)
        closure.equate(x, y)
        assert closure.terms_equal(gfx, gfy)

    def test_key_fd_chase(self):
        schema = SchemaBuilder("s").relation("R", "k", "v").build()
        closure = PremiseClosure(schema)
        k1, v1, k2, v2 = V("k1"), V("v1"), V("k2"), V("v2")
        closure.add_atoms([RelationalAtom("R", (k1, v1)), RelationalAtom("R", (k2, v2))])
        closure.equate(k1, k2)
        closure.saturate()
        assert closure.terms_equal(v1, v2)

    def test_key_fd_chase_composite(self):
        schema = SchemaBuilder("s").relation("R", "a", "b", "v", key=["a", "b"]).build()
        closure = PremiseClosure(schema)
        a1, b1, v1 = V("a1"), V("b1"), V("v1")
        a2, b2, v2 = V("a2"), V("b2"), V("v2")
        closure.add_atoms(
            [RelationalAtom("R", (a1, b1, v1)), RelationalAtom("R", (a2, b2, v2))]
        )
        closure.equate(a1, a2)
        closure.saturate()
        assert not closure.terms_equal(v1, v2)  # keys agree only on a
        closure.equate(b1, b2)
        closure.saturate()
        assert closure.terms_equal(v1, v2)


class TestCheckEqualAndDiffer:
    def _schema(self):
        return (
            SchemaBuilder("s")
            .relation("R", "k", "v", "w?")
            .build()
        )

    def test_forced_equal_is_unsat(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        # Same key forces same v by the key fd.
        assert (
            check_equal_and_differ(atoms, schema, [(k1, k2)], (v1, v2)) is UNSAT
        )

    def test_unconstrained_can_differ(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        assert check_equal_and_differ(atoms, schema, [], (v1, v2)) is SAT

    def test_mandatory_position_cannot_be_null(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        # v = null contradicts v being in a mandatory position.
        assert (
            check_equal_and_differ(atoms, schema, [(v, NULL_TERM)], (k, V("z")))
            is UNSAT
        )

    def test_nullable_position_can_be_null(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert (
            check_equal_and_differ(atoms, schema, [(w, NULL_TERM)], (k, V("z")))
            is SAT
        )

    def test_null_condition_conflicts_with_nonnull(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert (
            check_equal_and_differ(
                atoms, schema, [], (k, V("z")), null_terms=[w], nonnull_terms=[w]
            )
            is UNSAT
        )

    def test_null_vs_null_cannot_differ(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert (
            check_equal_and_differ(atoms, schema, [], (NULL_TERM, NULL_TERM))
            is UNSAT
        )

    def test_skolem_key_equality_unsat_with_variable(self):
        # A mapping whose key is invented never conflicts with one whose key
        # is copied (paper Example 6.3).
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        skolem = SkolemTerm("f", [v1])
        assert (
            check_equal_and_differ(atoms, schema, [(skolem, k2)], (v1, v2)) is UNSAT
        )

    def test_same_functor_keys_decompose(self):
        schema = self._schema()
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        # f(k1) = f(k2) forces k1 = k2, and the key fd then forces v1 = v2.
        assert (
            check_equal_and_differ(
                atoms,
                schema,
                [(SkolemTerm("f", [k1]), SkolemTerm("f", [k2]))],
                (v1, v2),
            )
            is UNSAT
        )


class TestClosePremise:
    def _schema(self):
        return SchemaBuilder("s").relation("R", "k", "v", "w?").build()

    def test_unsat_premise_is_none(self):
        k, v, w = V("k"), V("v"), V("w")
        atoms = [RelationalAtom("R", (k, v, w))]
        assert close_premise(atoms, self._schema(), [(v, NULL_TERM)]) is None

    def test_forced_premise_disequality_is_none(self):
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        # The key fd forces v1 = v2, contradicting the premise's v1 != v2.
        schema = self._schema()
        assert close_premise(atoms, schema, [(k1, k2)], disequalities=[(v1, v2)]) is None
        assert close_premise(atoms, schema, [], disequalities=[(v1, v2)]) is not None

    def test_null_at_a_mandatory_source_position_is_a_contradiction(self):
        schema = self._schema()
        k, v, w = V("k"), V("v"), V("w")
        closure = PremiseClosure(schema)
        closure.add_atoms([RelationalAtom("R", (k, NULL_TERM, w))])
        assert closure.contradiction == "a value is required to be both null and non-null"
        nullable = PremiseClosure(schema)
        nullable.add_atoms([RelationalAtom("R", (k, v, NULL_TERM))])
        assert nullable.contradiction is None
        for closer in (close_premise, oracle.close_premise):
            assert closer([RelationalAtom("R", (k, NULL_TERM, w))], schema, []) is None
            assert closer([RelationalAtom("R", (k, v, NULL_TERM))], schema, []) is not None

    def test_one_closure_answers_every_position(self):
        k1, v1, w1 = V("k1"), V("v1"), V("w1")
        k2, v2, w2 = V("k2"), V("v2"), V("w2")
        atoms = [RelationalAtom("R", (k1, v1, w1)), RelationalAtom("R", (k2, v2, w2))]
        solver = close_premise(atoms, self._schema(), [(v1, v2)])
        assert solver is not None
        assert solver.can_differ(w1, w2) is SAT
        assert solver.can_differ(v1, v2) is UNSAT
        assert solver.can_differ(SkolemTerm("f", [v1]), SkolemTerm("f", [v2])) is UNSAT
        assert solver.can_differ(SkolemTerm("f", [w1]), SkolemTerm("f", [w2])) is SAT


# -- many questions of one closed premise ------------------------------------

_SCHEMA = SchemaBuilder("s").relation("R", "k", "v", "w?").relation("S", "a", "b?").build()
_VARIABLES = [V(f"x{i}") for i in range(5)]
_FUNCTORS = ("f", "g")

_leaves = st.one_of(
    st.sampled_from(_VARIABLES),
    st.sampled_from([Constant("a"), Constant("b"), NULL_TERM]),
)
_terms = st.recursive(
    _leaves,
    lambda inner: st.builds(
        lambda functor, args: SkolemTerm(functor, args),
        st.sampled_from(_FUNCTORS),
        st.lists(inner, min_size=1, max_size=2),
    ),
    max_leaves=4,
)
_atoms = st.one_of(
    st.builds(
        lambda terms: RelationalAtom("R", tuple(terms)),
        st.lists(st.sampled_from(_VARIABLES), min_size=3, max_size=3),
    ),
    st.builds(
        lambda terms: RelationalAtom("S", tuple(terms)),
        st.lists(st.sampled_from(_VARIABLES), min_size=2, max_size=2),
    ),
)
_pairs = st.tuples(_terms, _terms)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(_atoms, min_size=1, max_size=4),
    equalities=st.lists(_pairs, max_size=3),
    null_terms=st.lists(st.sampled_from(_VARIABLES), max_size=1),
    nonnull_terms=st.lists(st.sampled_from(_VARIABLES), max_size=2),
    disequalities=st.lists(st.tuples(*[st.sampled_from(_VARIABLES)] * 2), max_size=1),
    questions=st.lists(_pairs, min_size=1, max_size=6),
)
def test_shared_closure_answers_like_fresh_checks(
    atoms, equalities, null_terms, nonnull_terms, disequalities, questions
):
    """Any sequence of questions to one closed premise, in either order,
    including fresh Skolem terms over the premise's functors, gets the
    answers of independent fresh checks."""
    premise = (atoms, _SCHEMA, equalities, null_terms, nonnull_terms, disequalities)
    fresh = [
        check_equal_and_differ(
            atoms,
            _SCHEMA,
            equalities,
            question,
            null_terms,
            nonnull_terms,
            disequalities,
        )
        for question in questions
    ]
    indices = list(range(len(questions)))
    for order in (indices, indices[::-1]):
        solver = close_premise(*premise)
        if solver is None:
            assert not any(fresh)
            continue
        answers = {i: solver.can_differ(*questions[i]) for i in order}
        assert [answers[i] for i in indices] == fresh
        assert solver.contradiction is None


_ground_atoms = st.one_of(
    st.builds(
        lambda terms: RelationalAtom("R", tuple(terms)),
        st.lists(_leaves, min_size=3, max_size=3),
    ),
    st.builds(
        lambda terms: RelationalAtom("S", tuple(terms)),
        st.lists(_leaves, min_size=2, max_size=2),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    atoms=st.lists(_ground_atoms, min_size=1, max_size=4),
    equalities=st.lists(_pairs, max_size=3),
    null_terms=st.lists(st.sampled_from(_VARIABLES), max_size=1),
    nonnull_terms=st.lists(st.sampled_from(_VARIABLES), max_size=2),
    disequalities=st.lists(st.tuples(*[st.sampled_from(_VARIABLES)] * 2), max_size=1),
    questions=st.lists(_pairs, min_size=1, max_size=6),
)
def test_closure_answers_like_the_reference_solver(
    atoms, equalities, null_terms, nonnull_terms, disequalities, questions
):
    """Atoms over variables, constants and null (also at mandatory
    positions): the closure and the reference solver agree on whether the
    premise is unsatisfiable and on every question."""
    premise = (atoms, _SCHEMA, equalities, null_terms, nonnull_terms, disequalities)
    closure = close_premise(*premise)
    reference = oracle.close_premise(*premise)
    assert (closure is None) == (reference is None)
    if closure is not None:
        assert [closure.can_differ(*q) for q in questions] == [
            reference.can_differ(*q) for q in questions
        ]
