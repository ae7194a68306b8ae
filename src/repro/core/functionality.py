"""The functionality check of Algorithm 4 (step 2).

A unitary logical mapping ``m = φ(x) → R(t_key, t_v1, ...)`` is *functional*
when it cannot, on its own, violate the key constraint of ``R``: for every
non-key position ``v`` the query ``φ(k, v) ∧ φ(k', v') ∧ k = k' ∧ v ≠ v'``
must be unsatisfiable over instances satisfying the source constraints.

The check doubles the premise with fresh variables, equates the two copies'
key terms (decomposing Skolem terms via injectivity), closes that premise
once under the source key FDs (:mod:`repro.logic.satisfiability`) and asks,
per non-key position, whether the two terms can still differ.  The key-conflict check of
:mod:`repro.core.conflicts` asks the same questions of a mapping pair
through :func:`differing_positions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import NonFunctionalMappingError
from ..logic.mappings import Premise, UnitaryMapping
from ..logic.satisfiability import close_premise
from ..logic.terms import Term, Variable
from ..model.schema import RelationSchema, Schema
from ..obs import count, span


def rename_premise(premise: Premise) -> tuple[Premise, dict[Variable, Term]]:
    """A copy of a premise with fresh variables, plus the renaming used."""
    renaming: dict[Variable, Term] = {}
    for var in premise.variables():
        renaming[var] = Variable(var.name + "'")
    # Null / non-null condition variables are premise variables already; a
    # defensive pass covers conditions on variables missing from the atoms.
    for var in list(premise.null_vars) + list(premise.nonnull_vars):
        renaming.setdefault(var, Variable(var.name + "'"))
    return premise.substitute(renaming), renaming


def rename_unitary(mapping: UnitaryMapping) -> UnitaryMapping:
    """A copy of a unitary mapping with fresh premise (and consequent) variables."""
    premise, renaming = rename_premise(mapping.premise)
    return UnitaryMapping(
        premise=premise,
        consequent=mapping.consequent.substitute(renaming),
        origin=mapping.origin,
        name=mapping.name,
    )


def differing_positions(
    left: UnitaryMapping,
    right: UnitaryMapping,
    source_schema: Schema,
    relation: RelationSchema,
) -> Iterator[int]:
    """The non-key positions of ``relation`` where the two mappings can put
    different values under one key: ``φ(k, v) ∧ φ'(k', v') ∧ k = k' ∧ v ≠ v'``
    is satisfiable.

    ``right`` must already be renamed apart from ``left``.  The premise is
    closed once and then asked one question per position, lazily, so a
    caller that stops at the first position pays for no more.
    """
    key_positions = relation.key_positions()
    positions = [p for p in range(relation.arity) if p not in key_positions]
    if not positions:
        return
    equalities: list[tuple[Term, Term]] = [
        (left.consequent.terms[p], right.consequent.terms[p]) for p in key_positions
    ]
    for source in (left.premise, right.premise):
        equalities.extend((e.left, e.right) for e in source.equalities)
    closure = close_premise(
        list(left.premise.atoms) + list(right.premise.atoms),
        source_schema,
        equalities,
        list(left.premise.null_vars) + list(right.premise.null_vars),
        list(left.premise.nonnull_vars) + list(right.premise.nonnull_vars),
        [
            (d.left, d.right)
            for source in (left.premise, right.premise)
            for d in source.disequalities
        ],
    )
    if closure is None:
        # An unsatisfiable premise decides every position at once.
        count("satisfiability.checks", len(positions))
        return
    for position in positions:
        left_term = left.consequent.terms[position]
        if closure.can_differ(left_term, right.consequent.terms[position]):
            yield position


@dataclass
class FunctionalityViolation:
    """A witness that a unitary mapping is not functional."""

    mapping: UnitaryMapping
    attribute: str

    def __str__(self) -> str:
        return (
            f"mapping {self.mapping.name or self.mapping.origin} can produce two "
            f"{self.mapping.consequent.relation} tuples with the same key but "
            f"different values for {self.attribute!r}"
        )


def check_functionality(
    mapping: UnitaryMapping,
    source_schema: Schema,
    target_schema: Schema,
) -> FunctionalityViolation | None:
    """Return a violation witness, or ``None`` when the mapping is functional."""
    count("functionality.checks")
    relation = target_schema.relation(mapping.consequent.relation)
    position = next(
        differing_positions(mapping, rename_unitary(mapping), source_schema, relation),
        None,
    )
    if position is None:
        return None
    return FunctionalityViolation(mapping, relation.attributes[position].name)


def assert_all_functional(
    mappings: list[UnitaryMapping],
    source_schema: Schema,
    target_schema: Schema,
) -> None:
    """Raise :class:`NonFunctionalMappingError` on the first violation found."""
    with span("qgen.functionality", mappings=len(mappings)):
        for mapping in mappings:
            violation = check_functionality(mapping, source_schema, target_schema)
            if violation is not None:
                from ..analysis.diagnostics import diagnostic

                raise NonFunctionalMappingError(
                    str(violation),
                    diagnostic=diagnostic(
                        "MAP003",
                        str(violation),
                        subject=mapping.name or mapping.origin,
                    ),
                )
