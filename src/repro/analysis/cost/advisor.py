"""Cost-based join ordering for statistics-free plan compilation.

The batch runtime plans each stratum with *live* row counts, where the
greedy most-bound-first heuristic of :func:`repro.datalog.exec.plan.
order_atoms` works well.  The static path (``repro plan``, golden
snapshots, the SQL-pushdown compiler to come) has no statistics at all —
every relation counts as empty and the greedy order degenerates to "most
constants first, then input order".  The :class:`JoinOrderAdvisor` fills
that gap with the symbolic cost model of :mod:`.bounds`: it searches join
orders (exhaustively up to :data:`MAX_EXHAUSTIVE_ATOMS` atoms, the
realistic ceiling for generated rules) for the least sum of intermediate-
result bounds at the calibration point, computed in integers: every prefix
bound is a coefficient-1 monomial, worth ``CALIBRATION_SIZE ** d`` after
``d`` non-key steps.  Key joins (fan-out one, via declared source keys)
price linear; joins that cannot cover a key price as multiplications, so
connected, key-walking orders — the FK paths of the paper's §4
correspondences — win automatically.

``order_atoms`` consults an advisor only when its statistics mapping is
empty, so runtime plans are unchanged.
"""

from __future__ import annotations

from functools import cache

from ...logic.atoms import RelationalAtom, atoms_variables
from ...logic.terms import Variable
from .bounds import CALIBRATION_SIZE
from .facts import CostFacts
from .polynomial import ONE, Polynomial

#: Search orders of up to this many body atoms; larger bodies keep greedy.
MAX_EXHAUSTIVE_ATOMS = 6


class JoinOrderAdvisor:
    """Prices candidate join orders with symbolic cardinality bounds."""

    def __init__(self, facts: CostFacts):
        self.facts = facts

    @staticmethod
    def for_program(program) -> "JoinOrderAdvisor":
        """An advisor over the program's schema-derived facts only.

        Source keys are the load-bearing facts for join ordering; the
        certifier/flow facts tighten *bounds* but never change fan-outs of
        body (source or intermediate) relations, so the cheap fact base is
        the right one for the planner hot path.
        """
        return JoinOrderAdvisor(CostFacts.for_program(program))

    # -- the cost model ---------------------------------------------------

    def _step_bound(
        self, atom: RelationalAtom, bound_vars: set[Variable]
    ) -> Polynomial:
        """The fan-out bound of joining ``atom`` given already-bound vars."""
        probed: set[int] = set()
        for index, term in enumerate(atom.terms):
            if not isinstance(term, Variable) or term in bound_vars:
                probed.add(index)
        if probed and (
            self.facts.covers_key(atom.relation, probed)
            or len(probed) == len(atom.terms)
        ):
            return ONE
        return Polynomial.var(atom.relation)

    # -- the advisor entry point ------------------------------------------

    def order(self, atoms: tuple[RelationalAtom, ...]) -> list[int] | None:
        """The provably cheapest join order, or ``None`` to keep greedy.

        A depth-first search over prefixes, visiting atoms in index order so
        ties keep the lexicographically smallest order.  Degrees never fall,
        so a prefix at degree ``d`` is pruned when ``CALIBRATION_SIZE ** d``
        per remaining atom lifts it strictly above the best full cost.
        """
        count = len(atoms)
        if count < 2 or count > MAX_EXHAUSTIVE_ATOMS:
            return None

        @cache
        def key_probed(index: int, placed: int) -> bool:
            prefix = [atoms[i] for i in range(count) if placed >> i & 1]
            bound_vars = set(atoms_variables(prefix))
            return self._step_bound(atoms[index], bound_vars) == ONE

        best: tuple[int, int, list[int]] | None = None

        def search(order: list[int], placed: int, cost: int, degree: int):
            nonlocal best
            remaining = count - len(order)
            if best and cost + remaining * CALIBRATION_SIZE**degree > best[0]:
                return
            if not remaining:
                if not best or (cost, degree) < best[:2]:
                    best = (cost, degree, order)
                return
            for index in range(count):
                if not placed >> index & 1:
                    step = degree if key_probed(index, placed) else degree + 1
                    total = cost + CALIBRATION_SIZE**step
                    search(order + [index], placed | 1 << index, total, step)

        search([], 0, 0, 0)
        return best[2]
