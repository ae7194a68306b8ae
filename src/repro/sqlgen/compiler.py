"""Whole-program compilation of Datalog mappings into SQL pipelines.

:func:`compile_program` turns a validated :class:`DatalogProgram` into one
:class:`SqlPipeline` — intermediate DDL first, then one ``INSERT``
statement per rule, grouped by stratum in stratification order (stable
within each relation, so the pipeline is deterministic).  Each intermediate
that some rule negates gets a ``CREATE INDEX`` over all of its columns
right after its ``CREATE TABLE``: a negated atom binds every position, so
the index turns each correlated ``NOT EXISTS`` probe from a scan into a
lookup — without it the antijoin is quadratic.  Every statement
keeps a handle to the rule it was compiled from plus its read/write sets;
the ``sqlcheck`` validator uses the rule to prove the round-trip and the
read/write sets to prove the ordering sound.

Statements are dialect-free trees; rendering for a concrete engine happens
only in :meth:`SqlPipeline.sql` / :meth:`CompiledStatement.sql`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datalog.program import DatalogProgram, Rule
from ..datalog.stratify import stratify
from .ast import CreateIndex, Dialect, SQLITE, SqlStatement
from .queries import intermediate_tables, rule_insert


@dataclass(frozen=True)
class CompiledStatement:
    """One statement of a compiled pipeline.

    ``kind`` is ``"create"`` (intermediate DDL, ``rule`` is None),
    ``"index"`` (an index on a negated intermediate, ``rule`` is None) or
    ``"insert"`` (per-rule, ``rule`` is the originating Datalog rule).
    ``reads``/``writes`` are the relations the statement consumes and
    produces; ``stratum`` is the head relation's position in the
    stratification order.
    """

    kind: str
    node: SqlStatement
    stratum: int
    writes: str
    reads: tuple[str, ...] = ()
    rule: Rule | None = None

    def sql(self, dialect: Dialect = SQLITE) -> str:
        return self.node.render(dialect)


@dataclass(frozen=True)
class SqlPipeline:
    """A compiled mapping: the program plus its ordered statements."""

    program: DatalogProgram
    statements: tuple[CompiledStatement, ...] = field(default_factory=tuple)

    def sql(self, dialect: Dialect = SQLITE) -> list[str]:
        """All statements rendered for ``dialect``, in execution order."""
        return [statement.sql(dialect) for statement in self.statements]

    def inserts(self) -> list[CompiledStatement]:
        """The INSERT statements only, in execution order."""
        return [s for s in self.statements if s.kind == "insert"]

    def creates(self) -> list[CompiledStatement]:
        """The CREATE TABLE statements only."""
        return [s for s in self.statements if s.kind == "create"]


def _rule_reads(rule: Rule) -> tuple[str, ...]:
    seen: list[str] = []
    for atom in (*rule.body, *rule.negated):
        if atom.relation not in seen:
            seen.append(atom.relation)
    return tuple(seen)


def _negation_index_names(program: DatalogProgram) -> dict[str, str]:
    """Index names for the intermediates some rule reads under negation.

    Tables and indexes share one case-insensitive namespace on SQLite, so
    each name is ``<relation>_idx`` extended with ``_`` until it differs
    from every relation of the program and every index chosen before it.
    """
    negated = {
        atom.relation
        for rule in program.rules
        for atom in rule.negated
        if atom.relation in program.intermediates
    }
    taken = {name.casefold() for name in program.intermediates}
    for schema in (program.source_schema, program.target_schema):
        if schema is not None:
            taken.update(relation.name.casefold() for relation in schema)
    names: dict[str, str] = {}
    for relation in program.intermediates:
        if relation not in negated:
            continue
        name = f"{relation}_idx"
        while name.casefold() in taken:
            name += "_"
        taken.add(name.casefold())
        names[relation] = name
    return names


def compile_program(program: DatalogProgram) -> SqlPipeline:
    """Compile ``program`` into its stratified SQL pipeline."""
    order = {name: i for i, name in enumerate(stratify(program))}
    index_names = _negation_index_names(program)
    statements: list[CompiledStatement] = []
    for table in intermediate_tables(program):
        statements.append(
            CompiledStatement(
                kind="create",
                node=table,
                stratum=order[table.name],
                writes=table.name,
            )
        )
        if table.name in index_names:
            columns = tuple(column for column, _ in table.columns)
            statements.append(
                CompiledStatement(
                    kind="index",
                    node=CreateIndex(index_names[table.name], table.name, columns),
                    stratum=order[table.name],
                    writes=table.name,
                )
            )
    for rule in sorted(program.rules, key=lambda r: order[r.head_relation]):
        statements.append(
            CompiledStatement(
                kind="insert",
                node=rule_insert(rule, program),
                stratum=order[rule.head_relation],
                writes=rule.head_relation,
                reads=_rule_reads(rule),
                rule=rule,
            )
        )
    return SqlPipeline(program=program, statements=tuple(statements))
