"""The egd-chase satisfiability engine behind Algorithm 4 and the certifier.

The functionality check and the key-conflict check of Algorithm 4 both reduce
to deciding satisfiability of a conjunctive query with equalities, one
disequality and null / non-null conditions, under the source key constraints
(paper section 6: "the functionality check can be reduced to an emptiness
test for a conjunctive query with inequalities, under functional and
inclusion dependencies").  The key certifier (CER001) asks the same question
of two rule firings, and the FK and NOT NULL certifiers and the
counterexample builder read the same closure.

The theory implemented here:

* source variables range over ground source values: constants or ``null``;
  ``null`` is an ordinary value, distinct from every other constant;
* a variable bound at a mandatory source position is non-null, because only
  valid source instances are considered (a ``null`` there is a
  contradiction);
* Skolem terms denote *invented* values — distinct from every source value,
  every constant and ``null``; two Skolem terms are equal iff they have the
  same functor and pairwise-equal arguments (functors are injective, and
  different functors have disjoint ranges), matching the paper's equality
  conditions for functor terms;
* key functional dependencies are applied as egds to fixpoint (the chase):
  two atoms of one relation whose key positions are provably equal denote
  the same row, so every other position is equated;
* inclusion dependencies never equate terms, so they are irrelevant to these
  checks (premises are already FK-closed by logical-relation generation).

:class:`PremiseClosure` is a union-find over the variables only.  Each class
carries its pinned constant and its null / non-null marks; a Skolem term never
joins a class (equating one with a variable, a constant or ``null`` is a
contradiction), so Skolem equality is decided structurally by
:meth:`PremiseClosure.normalize`.  The first contradiction is kept as
:attr:`PremiseClosure.contradiction`, the text of the certifier's
disjointness proofs.

:func:`close_premise` closes a premise once and returns ``None`` when it is
unsatisfiable; a disequality ``t1 ≠ t2`` on top of it is satisfiable iff
:meth:`PremiseClosure.can_differ` finds the two terms in different normal
forms.  The functionality check asks one closed premise a question per
non-key attribute of a mapping, and the key-conflict check one per non-key
attribute of a mapping pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from ..model.schema import Schema
from ..obs import count
from .atoms import RelationalAtom
from .terms import NULL_TERM, Constant, NullTerm, SkolemTerm, Term, Variable, terms_agree

_NULL_AND_NONNULL = "a value is required to be both null and non-null"


@dataclass
class _ClassInfo:
    """Constraints accumulated on one equivalence class of variables."""

    pin: Constant | None = None
    null: bool = False
    nonnull: bool = False


class PremiseClosure:
    """A union-find over premise variables, closed under the source key FDs."""

    def __init__(self, schema: Schema | None) -> None:
        self.schema = schema
        self.atoms: list[RelationalAtom] = []
        #: ``(left, right)`` pairs that must differ, checked by :meth:`saturate`
        self.disequalities: list[tuple[Term, Term]] = []
        #: why the constraint set is unsatisfiable, or None while it still is
        self.contradiction: str | None = None
        self._parent: dict[Variable, Variable] = {}
        self._info: dict[Variable, _ClassInfo] = {}

    # -- union-find --------------------------------------------------------

    def find(self, var: Variable) -> Variable:
        """The representative of ``var``'s class (registering ``var``)."""
        parent = self._parent
        if var not in parent:
            parent[var] = var
            self._info[var] = _ClassInfo()
            return var
        while parent[var] is not var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    def variables(self) -> Iterator[Variable]:
        """Every registered variable, in registration order."""
        return iter(self._parent)

    def info(self, var: Variable) -> _ClassInfo:
        return self._info[self.find(var)]

    def _fail(self, reason: str) -> None:
        if self.contradiction is None:
            self.contradiction = reason

    def _merge(self, a: Variable, b: Variable) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return
        self._parent[ra] = rb
        merged = self._info.pop(ra)
        if merged.pin is not None:
            self._pin_root(rb, merged.pin)
        if merged.null:
            self._mark_null_root(rb)
        if merged.nonnull:
            self._mark_nonnull_root(rb)

    def _pin_root(self, root: Variable, constant: Constant) -> None:
        info = self._info[root]
        if info.pin is not None and info.pin != constant:
            self._fail(
                f"variable pinned to two distinct constants "
                f"({info.pin!r} and {constant!r})"
            )
            return
        info.pin = constant
        if info.null:
            self._fail(f"null-constrained variable pinned to constant {constant!r}")
        info.nonnull = True

    def _mark_null_root(self, root: Variable) -> None:
        info = self._info[root]
        if info.nonnull or info.pin is not None:
            self._fail(_NULL_AND_NONNULL)
        info.null = True

    def _mark_nonnull_root(self, root: Variable) -> None:
        info = self._info[root]
        if info.null:
            self._fail(_NULL_AND_NONNULL)
        info.nonnull = True

    # -- asserting facts ---------------------------------------------------

    def add_atoms(self, atoms: Iterable[RelationalAtom]) -> None:
        """Add source atoms; their mandatory positions become non-null."""
        for atom in atoms:
            self.atoms.append(atom)
            relation = self._source_relation(atom.relation)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    self.find(term)
                if (
                    relation is not None
                    and position < relation.arity
                    and not relation.attributes[position].nullable
                ):
                    self.assert_nonnull(term)

    def _source_relation(self, name: str):
        if self.schema is None or name not in self.schema:
            return None
        return self.schema.relation(name)

    def assert_null(self, term: Term) -> None:
        """Assert ``term = null``."""
        self.equate(term, NULL_TERM)

    def assert_nonnull(self, term: Term) -> None:
        """Assert ``term ≠ null``."""
        if isinstance(term, Variable):
            self._mark_nonnull_root(self.find(term))
        elif isinstance(term, NullTerm):
            self._fail(_NULL_AND_NONNULL)

    def equate(self, left: Term, right: Term) -> None:
        """Assert ``left = right``; records a contradiction when impossible."""
        if self.contradiction is not None:
            return
        if isinstance(left, Variable) and isinstance(right, Variable):
            self._merge(left, right)
            return
        if isinstance(left, Variable) or isinstance(right, Variable):
            var, other = (
                (left, right) if isinstance(left, Variable) else (right, left)
            )
            assert isinstance(var, Variable)
            if isinstance(other, Constant):
                self._pin_root(self.find(var), other)
            elif isinstance(other, NullTerm):
                self._mark_null_root(self.find(var))
            elif isinstance(other, SkolemTerm):
                # Source-bound variables hold ground values; Skolem terms
                # denote invented (labeled-null) values — disjoint domains.
                self._fail("a ground source value cannot equal an invented value")
            return
        if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
            if left.functor != right.functor or len(left.args) != len(right.args):
                self._fail(
                    f"Skolem functors {left.functor} and {right.functor} "
                    "have disjoint ranges"
                )
                return
            for a, b in zip(left.args, right.args):
                self.equate(a, b)  # functors are injective (§6)
            return
        if isinstance(left, SkolemTerm) or isinstance(right, SkolemTerm):
            self._fail("an invented value cannot equal a constant or null")
            return
        if not terms_agree(left, right):
            self._fail(f"distinct fixed values {left!r} and {right!r}")

    # -- the FD chase ------------------------------------------------------

    def saturate(self) -> None:
        """Close under the source key → row FDs, then check the disequalities.

        Terminates: every round that changes something merges two classes
        or marks one, and there are finitely many of both.
        """
        while self.contradiction is None and self._chase_round():
            pass
        if self.contradiction is not None:
            return
        for left, right in self.disequalities:
            if self.terms_equal(left, right):
                self._fail(f"disequality {left!r} != {right!r} is violated")
                return

    def _chase_round(self) -> bool:
        changed = False
        by_relation: dict[str, list[RelationalAtom]] = {}
        for atom in self.atoms:
            by_relation.setdefault(atom.relation, []).append(atom)
        for name, atoms in by_relation.items():
            relation = self._source_relation(name)
            if relation is None:
                continue
            key_positions = relation.key_positions()
            for i, first in enumerate(atoms):
                for second in atoms[i + 1:]:
                    if any(p >= len(first.terms) for p in key_positions):
                        continue  # pragma: no cover - malformed atom
                    if all(
                        self.terms_equal(first.terms[p], second.terms[p])
                        for p in key_positions
                    ):
                        for a, b in zip(first.terms, second.terms):
                            if not self.terms_equal(a, b):
                                self.equate(a, b)
                                changed = True
                            if self.contradiction is not None:
                                return False
        return changed

    # -- questions ---------------------------------------------------------

    def normalize(self, term: Term) -> tuple:
        """A hashable normal form deciding guaranteed equality of terms."""
        if isinstance(term, Variable):
            root = self.find(term)
            info = self._info[root]
            if info.pin is not None:
                return ("const", info.pin.value)
            if info.null:
                return ("null",)
            return ("class", id(root))
        if isinstance(term, NullTerm):
            return ("null",)
        if isinstance(term, Constant):
            return ("const", term.value)
        if isinstance(term, SkolemTerm):
            return ("skolem", term.functor, tuple(self.normalize(a) for a in term.args))
        return ("term", repr(term))  # pragma: no cover - defensive

    def terms_equal(self, left: Term, right: Term) -> bool:
        """True iff the closure proves the terms denote the same value."""
        return self.normalize(left) == self.normalize(right)

    def can_differ(self, left: Term, right: Term) -> bool:
        """Can ``left ≠ right`` hold on top of the closed premise?

        A question only normalizes terms; it merges nothing.  One closure
        therefore answers any number of questions, in any order, each as a
        fresh closure of the premise would.
        """
        count("satisfiability.checks")
        return not self.terms_equal(left, right)


SAT = True
UNSAT = False


def close_premise(
    atoms: Sequence[RelationalAtom],
    schema: Schema,
    equalities: Iterable[tuple[Term, Term]],
    null_terms: Iterable[Term] = (),
    nonnull_terms: Iterable[Term] = (),
    disequalities: Iterable[tuple[Term, Term]] = (),
) -> PremiseClosure | None:
    """Close ``atoms ∧ equalities`` once, for any number of ``≠`` questions.

    ``atoms`` are source atoms (their variables are source variables and their
    mandatory positions are implicitly non-null); key fds of ``schema`` are
    chased.  Returns the closure, or ``None`` when the premise alone is
    unsatisfiable — a contradiction, or a premise disequality (a Clio filter)
    whose two sides are forced equal.  Ask it
    :meth:`PremiseClosure.can_differ`.
    """
    count("satisfiability.closures")
    closure = PremiseClosure(schema)
    closure.add_atoms(atoms)
    for term in null_terms:
        closure.assert_null(term)
    for term in nonnull_terms:
        closure.assert_nonnull(term)
    for left, right in equalities:
        closure.equate(left, right)
    closure.disequalities.extend(disequalities)
    closure.saturate()
    return None if closure.contradiction is not None else closure


def check_equal_and_differ(
    atoms: Sequence[RelationalAtom],
    schema: Schema,
    equalities: Iterable[tuple[Term, Term]],
    differ: tuple[Term, Term],
    null_terms: Iterable[Term] = (),
    nonnull_terms: Iterable[Term] = (),
    disequalities: Iterable[tuple[Term, Term]] = (),
) -> bool:
    """Decide satisfiability of ``atoms ∧ equalities ∧ differ[0] ≠ differ[1]``.

    :func:`close_premise` followed by one :meth:`PremiseClosure.can_differ`.
    Returns :data:`SAT` (True) iff satisfiable.
    """
    closure = close_premise(
        atoms, schema, equalities, null_terms, nonnull_terms, disequalities
    )
    if closure is None:
        count("satisfiability.checks")
        return UNSAT
    return closure.can_differ(*differ)
