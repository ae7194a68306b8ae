"""The reference solver for differential tests of the egd-chase engine.

:class:`TermSolver` decides the same theory as
:class:`repro.logic.satisfiability.PremiseClosure` by a different route: a
union-find whose nodes are variables, constants, ``null`` *and* Skolem
terms, with congruence over Skolem terms restored by rescanning every pair
of applications after each merge, and its own key-FD chase.  The tests ask
both the same questions (``tests/test_core_conflicts.py`` over the bundled
scenarios and generated seeds, ``tests/test_logic_satisfiability.py`` on
hypothesis premises) and require the same answers.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.logic.atoms import RelationalAtom
from repro.logic.terms import NULL_TERM, Constant, NullTerm, SkolemTerm, Term, Variable
from repro.model.schema import Schema


class _ClassInfo:
    """Per-congruence-class facts: representative constant/skolem/null/non-null."""

    __slots__ = ("constant", "skolem", "is_null", "nonnull", "has_var")

    def __init__(self) -> None:
        self.constant: Constant | None = None
        self.skolem: SkolemTerm | None = None
        self.is_null = False
        self.nonnull = False
        self.has_var = False  # class contains a (source) variable


class TermSolver:
    """Union-find with congruence closure over variables, constants, Skolem terms."""

    def __init__(self) -> None:
        self._parent: dict[Term, Term] = {}
        self._info: dict[Term, _ClassInfo] = {}
        self._skolems: list[SkolemTerm] = []
        self.clashed = False

    # -- union-find --------------------------------------------------------

    def _register(self, term: Term) -> None:
        if term in self._parent:
            return
        self._parent[term] = term
        info = _ClassInfo()
        if isinstance(term, Constant):
            info.constant = term
            info.nonnull = True
        elif isinstance(term, SkolemTerm):
            info.skolem = term
            info.nonnull = True
            self._skolems.append(term)
            for arg in term.args:
                self._register(arg)
        elif isinstance(term, NullTerm):
            info.is_null = True
        elif isinstance(term, Variable):
            info.has_var = True
        self._info[term] = info

    def find(self, term: Term) -> Term:
        self._register(term)
        root = term
        while self._parent[root] is not root:
            root = self._parent[root]
        while self._parent[term] is not root:
            self._parent[term], term = root, self._parent[term]
        return root

    def equal(self, left: Term, right: Term) -> bool:
        """True iff the two terms are in the same congruence class."""
        return self.find(left) is self.find(right)

    # -- assertions ---------------------------------------------------------

    def assert_equal(self, left: Term, right: Term) -> None:
        """Merge the classes of the two terms, propagating consequences."""
        if self.clashed:
            return
        left_root, right_root = self.find(left), self.find(right)
        if left_root is right_root:
            return
        left_info, right_info = self._info[left_root], self._info[right_root]

        merged = _ClassInfo()
        merged.is_null = left_info.is_null or right_info.is_null
        merged.nonnull = left_info.nonnull or right_info.nonnull
        if merged.is_null and merged.nonnull:
            self.clashed = True
            return
        if left_info.constant and right_info.constant:
            if left_info.constant != right_info.constant:
                self.clashed = True
                return
        merged.constant = left_info.constant or right_info.constant
        if left_info.skolem and right_info.skolem:
            if left_info.skolem.functor != right_info.skolem.functor or len(
                left_info.skolem.args
            ) != len(right_info.skolem.args):
                self.clashed = True
                return
        merged.skolem = left_info.skolem or right_info.skolem
        merged.has_var = left_info.has_var or right_info.has_var
        if merged.skolem is not None and (merged.constant is not None or merged.has_var):
            # Invented values are distinct from every source constant and from
            # every source-variable value (paper: "unsatisfiable if t is a
            # variable or a null term, or a functor term based on a different
            # Skolem function").
            self.clashed = True
            return

        self._parent[right_root] = left_root
        self._info[left_root] = merged

        # Injectivity: f(a...) = f(b...) implies pairwise a = b.
        if left_info.skolem and right_info.skolem:
            for a, b in zip(left_info.skolem.args, right_info.skolem.args):
                self.assert_equal(a, b)
                if self.clashed:
                    return
        self._congruence_pass()

    def assert_null(self, term: Term) -> None:
        """Assert ``term = null``."""
        self.assert_equal(term, NULL_TERM)

    def assert_nonnull(self, term: Term) -> None:
        """Assert ``term ≠ null``."""
        if self.clashed:
            return
        root = self.find(term)
        info = self._info[root]
        if info.is_null:
            self.clashed = True
            return
        info.nonnull = True

    # -- congruence closure ---------------------------------------------------

    def _congruence_pass(self) -> None:
        """Merge f(a...) with f(b...) whenever all argument classes coincide."""
        changed = True
        while changed and not self.clashed:
            changed = False
            n = len(self._skolems)
            for i in range(n):
                for j in range(i + 1, n):
                    s, t = self._skolems[i], self._skolems[j]
                    if s.functor != t.functor or len(s.args) != len(t.args):
                        continue
                    if self.find(s) is self.find(t):
                        continue
                    if all(self.find(a) is self.find(b) for a, b in zip(s.args, t.args)):
                        self.assert_equal(s, t)
                        changed = True
                        if self.clashed:
                            return

    # -- key-fd chase ---------------------------------------------------------

    def chase_keys(self, atoms: Sequence[RelationalAtom], schema: Schema) -> None:
        """Apply key functional dependencies as egds to fixpoint.

        For any two atoms over the same relation whose key positions are
        pairwise equal, every other position is equated.
        """
        if self.clashed:
            return
        by_relation: dict[str, list[RelationalAtom]] = {}
        for atom in atoms:
            by_relation.setdefault(atom.relation, []).append(atom)
        changed = True
        while changed and not self.clashed:
            changed = False
            for relation, group in by_relation.items():
                if len(group) < 2 or relation not in schema:
                    continue
                key_positions = schema.relation(relation).key_positions()
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        a, b = group[i], group[j]
                        if not all(
                            self.equal(a.terms[p], b.terms[p]) for p in key_positions
                        ):
                            continue
                        for p in range(len(a.terms)):
                            if not self.equal(a.terms[p], b.terms[p]):
                                self.assert_equal(a.terms[p], b.terms[p])
                                changed = True
                                if self.clashed:
                                    return

    # -- consequent questions -------------------------------------------------

    def can_differ(self, left: Term, right: Term) -> bool:
        """Can ``left ≠ right`` hold on top of the closed premise?

        Registers the two terms, re-runs congruence (they may be fresh
        Skolem structures) and answers whether they stayed apart.  One
        closed solver may be asked any number of these questions, in any
        order: registering a term only adds a fresh class, and congruence
        can merge a new Skolem term only with one of the same functor
        whose arguments are already equal.  Such a merge joins two classes
        that both hold Skolem terms of that functor and no variable,
        constant or null, so it cannot clash, and its injectivity step
        equates arguments that are already equal.  The partition of the
        premise's terms and the ``clashed`` flag therefore never change,
        and each answer equals that of a fresh closure of the premise.
        """
        self._register(left)
        self._register(right)
        self._congruence_pass()
        return not self.equal(left, right)


def close_premise(
    atoms: Sequence[RelationalAtom],
    schema: Schema,
    equalities: Iterable[tuple[Term, Term]],
    null_terms: Iterable[Term] = (),
    nonnull_terms: Iterable[Term] = (),
    disequalities: Iterable[tuple[Term, Term]] = (),
) -> TermSolver | None:
    """Close ``atoms ∧ equalities`` once, for any number of ``≠`` questions.

    ``atoms`` are source atoms (their variables are source variables and their
    mandatory positions are implicitly non-null); key fds of ``schema`` are
    chased.  Returns the closed solver, or ``None`` when the premise alone is
    unsatisfiable — a clash, or a premise disequality (a Clio filter) whose
    two sides are forced equal.  Ask the solver :meth:`TermSolver.can_differ`.
    """
    solver = TermSolver()
    for atom in atoms:
        if atom.relation in schema:
            relation = schema.relation(atom.relation)
            for position, term in enumerate(atom.terms):
                solver._register(term)
                attr = relation.attributes[position]
                if not attr.nullable:
                    solver.assert_nonnull(term)
                if solver.clashed:
                    return None
    for term in null_terms:
        solver.assert_null(term)
        if solver.clashed:
            return None
    for term in nonnull_terms:
        solver.assert_nonnull(term)
        if solver.clashed:
            return None
    for left, right in equalities:
        solver.assert_equal(left, right)
        if solver.clashed:
            return None
    solver.chase_keys(atoms, schema)
    # Reach the congruence fixpoint even where no merge triggered a pass.
    solver._congruence_pass()
    if solver.clashed:
        return None
    for a, b in disequalities:
        if solver.equal(a, b):
            return None
    return solver
