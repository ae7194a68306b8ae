"""Rule-level glue between generated rules and the egd-chase engine.

The key certifier asks: can two firings of target rules agree on a target
key but disagree elsewhere?  The classical way to answer is to *chase* the
pair with the available equality-generating dependencies — here the source
key → row functional dependencies of §3.1 — after asserting the key
equalities, and look for either a contradiction (the firings can never
collide) or full row agreement (collisions always coincide).  The chase is
:class:`~repro.logic.satisfiability.PremiseClosure`, the engine Algorithm 4's
checks use; this module loads rule bodies into it (:func:`add_rule`), freezes
a closure into a canonical instance (:func:`frozen`), refutes negated
premises on that instance (:func:`negation_refutation`) and renames a rule
apart for self-pair analysis (:func:`rename_rule`).

The closure assumes every variable ranges over *ground* source values
(constants or the unlabeled null): bodies of generated target rules are
source atoms, and source instances never contain invented values.
"""

from __future__ import annotations

from ...datalog.program import DatalogProgram, Rule
from ...logic.atoms import RelationalAtom
from ...logic.homomorphism import iter_homomorphisms
from ...logic.satisfiability import PremiseClosure
from ...logic.terms import (
    Constant,
    FrozenValue,
    SkolemTerm,
    Term,
    Variable,
    is_nonnull_like,
    is_null_like,
    terms_agree,
)
from ..semantic.containment import seed_head


def add_rule(closure: PremiseClosure, rule: Rule) -> None:
    """Load one rule's body atoms and conditions into the closure."""
    closure.add_atoms(rule.body)
    for var in rule.null_vars:
        closure.assert_null(var)
    for var in rule.nonnull_vars:
        closure.assert_nonnull(var)
    for eq in rule.equalities:
        closure.equate(eq.left, eq.right)
    closure.disequalities.extend((d.left, d.right) for d in rule.disequalities)


def frozen(
    closure: PremiseClosure,
) -> tuple[list[RelationalAtom], dict[Variable, Term]]:
    """The closure's atoms with every class frozen to one canonical term.

    Pinned classes freeze to their constant; every other class becomes a
    :class:`~repro.logic.terms.FrozenValue` carrying its null / non-null
    mark, so condition checks during homomorphism searches stay local.
    """
    substitution: dict[Variable, Term] = {}
    frozen_roots: dict[Variable, Term] = {}
    for var in closure.variables():
        root = closure.find(var)
        if root not in frozen_roots:
            info = closure.info(root)
            if info.pin is not None:
                frozen_roots[root] = info.pin
            else:
                frozen_roots[root] = FrozenValue(
                    len(frozen_roots),
                    root.name,
                    null=info.null,
                    nonnull=info.nonnull,
                )
        substitution[var] = frozen_roots[root]
    return (
        [atom.substitute(substitution) for atom in closure.atoms],
        substitution,
    )


def rename_rule(rule: Rule) -> Rule:
    """A copy of ``rule`` over fresh variables (for self-pair analysis)."""
    mapping: dict[Variable, Term] = {}
    for var in rule.body_variables():
        mapping.setdefault(var, Variable(var.name + "'"))
    for term in rule.head.terms:
        for var in term.variables():
            mapping.setdefault(var, Variable(var.name + "'"))
    return Rule(
        head=rule.head.substitute(mapping),
        body=tuple(a.substitute(mapping) for a in rule.body),
        negated=tuple(a.substitute(mapping) for a in rule.negated),
        null_vars=tuple(mapping.get(v, v) for v in rule.null_vars),
        nonnull_vars=tuple(mapping.get(v, v) for v in rule.nonnull_vars),
        equalities=tuple(e.substitute(mapping) for e in rule.equalities),
        disequalities=tuple(d.substitute(mapping) for d in rule.disequalities),
    )


def negation_refutation(
    closure: PremiseClosure,
    rules: "tuple[Rule, ...] | list",
    program: DatalogProgram,
) -> str | None:
    """A proof that some ``not N(args)`` premise fails on the combined body.

    For every negated premise of the given rules, evaluate ``N`` over the
    frozen combined body: a condition-respecting homomorphism from one of
    ``N``'s defining rules whose head maps onto ``args`` shows ``N(args)``
    holds whenever the combined body does — contradicting the negation, so
    the combination never fires.  Returns the rendered proof, or ``None``.

    Sound because freezing only *instantiates* the combined body: anything
    derivable from the frozen atoms is derivable from every instance the
    body matches.  Defining rules with their own negations are skipped
    (conservative).
    """
    if closure.contradiction is not None:
        return None
    frozen_atoms, substitution = frozen(closure)
    for rule in rules:
        for negated in rule.negated:
            frozen_args = [t.substitute(substitution) for t in negated.terms]
            for defining in program.rules_for(negated.relation):
                if defining.negated:
                    continue  # nested negation: stay conservative
                fixed: dict[Variable, Term] = {}
                if len(defining.head.terms) != len(frozen_args) or not all(
                    seed_head(fixed, pattern, image)
                    for pattern, image in zip(defining.head.terms, frozen_args)
                ):
                    continue
                witness = _conditioned_hom(defining, frozen_atoms, fixed)
                if witness is not None:
                    return (
                        f"¬{negated.relation}({', '.join(map(repr, negated.terms))})"
                        f" is contradicted: {negated.relation} is derivable "
                        f"from the combined bodies via "
                        f"{defining.head.relation} <- "
                        + ", ".join(repr(a) for a in defining.body)
                    )
    return None


def _conditioned_hom(
    defining: Rule,
    frozen_atoms: "list[RelationalAtom]",
    fixed: dict[Variable, Term],
) -> dict | None:
    """A homomorphism from a defining rule's body respecting its conditions."""
    null_vars = set(defining.null_vars)
    nonnull_vars = set(defining.nonnull_vars)

    def var_check(var: Variable, image: Term) -> bool:
        if var in null_vars:
            return is_null_like(image)
        if var in nonnull_vars:
            return is_nonnull_like(image)
        return True

    for var, image in fixed.items():
        if not var_check(var, image):
            return None
    for theta in iter_homomorphisms(
        defining.body, frozen_atoms, fixed=fixed, var_check=var_check
    ):
        if all(
            terms_agree(eq.left.substitute(theta), eq.right.substitute(theta))
            for eq in defining.equalities
        ) and all(
            _frozen_diseq(d.left.substitute(theta), d.right.substitute(theta))
            for d in defining.disequalities
        ):
            return theta
    return None


def _frozen_diseq(left: Term, right: Term) -> bool:
    """Is ``left != right`` guaranteed for all instantiations of the freeze?"""
    if isinstance(left, Constant) and isinstance(right, Constant):
        return left != right
    if (is_null_like(left) and is_nonnull_like(right)) or (
        is_null_like(right) and is_nonnull_like(left)
    ):
        return True
    if isinstance(left, SkolemTerm) and isinstance(right, SkolemTerm):
        return left.functor != right.functor
    return False
