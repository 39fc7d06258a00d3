"""Logical planner: AST -> logical plan with pushdown and join ordering."""

from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import PlanError
from repro.sql.ast import (
    Join,
    NamedTable,
    SelectItem,
    SelectQuery,
    SubqueryRef,
    TableFunction,
    TableRef,
    UnionAll,
)
from repro.sql.expressions import (
    AggregateCall,
    Binder,
    ColumnRef,
    Comparison,
    Expr,
    FunctionRegistry,
    Star,
    combine_conjuncts,
    conjuncts,
    transform,
    walk,
)
from repro.sql.plan import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalScan,
    LogicalSort,
    LogicalTableFunction,
    LogicalUnionAll,
)
from repro.sql.types import Column, Schema

#: Broadcast a join side when its estimated size is below this many bytes.
BROADCAST_THRESHOLD_BYTES = 64 * 1024 * 1024


@dataclass
class PlannerContext:
    """What the planner needs from the engine."""

    resolve_table: Callable[[str], object]  # name -> Table (raises CatalogError)
    resolve_table_udf: Callable[[str], object]  # name -> TableUDF
    functions: FunctionRegistry
    estimate_table_bytes: Callable[[object], float]  # Table -> bytes
    # Table -> TableStats | None (fresh ANALYZE output, when available)
    table_stats: Callable[[object], object] = lambda table: None


@dataclass
class _Relation:
    """One base input to the join: a plan plus its binding name."""

    plan: LogicalPlan
    name: str
    estimated_bytes: float
    stats: object = None  # TableStats | None


class Planner:
    """Plans one SELECT statement (subqueries recurse)."""

    def __init__(self, ctx: PlannerContext):
        self._ctx = ctx
        # What the statement being planned reads; None = every column.
        self._references: set[tuple[str | None, str]] | None = None

    def plan(self, query: SelectQuery | UnionAll) -> LogicalPlan:
        if isinstance(query, UnionAll):
            return self._plan_union(query)
        try:
            return self._plan(query, _statement_references(query))
        except PlanError as exc:
            if "unknown column" not in str(exc):
                raise
        # Unpruned, the same error lists every column the tables offer.
        return self._plan(query, None)

    def _plan_union(self, query: UnionAll) -> LogicalUnionAll:
        """Branches of equal width and column types; the first names them."""
        branches = [Planner(self._ctx).plan(b) for b in query.branches]
        first = branches[0].schema
        for i, branch in enumerate(branches[1:], start=2):
            if len(branch.schema) != len(first):
                raise PlanError(
                    f"UNION ALL branch {i} has {len(branch.schema)} "
                    f"columns, branch 1 has {len(first)}"
                )
            for a, b in zip(first, branch.schema):
                if a.dtype is not b.dtype:
                    raise PlanError(
                        f"UNION ALL type mismatch on column "
                        f"{a.name!r}: {a.dtype.value} vs {b.dtype.value}"
                    )
        return LogicalUnionAll(branches=branches, schema=first)

    def _plan(self, query: SelectQuery, references) -> LogicalPlan:
        self._references = references
        relations, join_pool = self._plan_from(query.from_refs)
        pool = list(join_pool) + conjuncts(query.where)
        self._reject_aggregates(pool, "WHERE")
        relations = self._push_filters(relations, pool)
        joined = self._order_joins(relations, pool)
        return self._plan_select(query, joined)

    @staticmethod
    def _reject_aggregates(predicates: list[Expr], clause: str) -> None:
        for predicate in predicates:
            if predicate.contains_aggregate():
                raise PlanError(
                    f"aggregates are not allowed in {clause}: {predicate.to_sql()}"
                )

    # ------------------------------------------------------------ FROM refs

    def _plan_from(
        self, refs: tuple[TableRef, ...]
    ) -> tuple[list[_Relation], list[Expr]]:
        relations: list[_Relation] = []
        pool: list[Expr] = []
        for ref in refs:
            self._flatten_ref(ref, relations, pool)
        if not relations:
            raise PlanError("FROM clause resolved to no relations")
        names = [r.name.lower() for r in relations]
        if len(set(names)) != len(names):
            raise PlanError(f"duplicate table binding in FROM: {names}")
        return relations, pool

    def _flatten_ref(
        self, ref: TableRef, relations: list[_Relation], pool: list[Expr]
    ) -> None:
        if isinstance(ref, Join):
            if ref.kind == "inner":
                self._flatten_ref(ref.left, relations, pool)
                self._flatten_ref(ref.right, relations, pool)
                pool.extend(conjuncts(ref.condition))
            else:
                relations.append(self._plan_outer_join(ref))
            return
        relations.append(self._plan_base_ref(ref))

    def _plan_outer_join(self, ref: Join) -> _Relation:
        """LEFT joins are planned as written (no reordering)."""
        left_relations: list[_Relation] = []
        left_pool: list[Expr] = []
        self._flatten_ref(ref.left, left_relations, left_pool)
        left_relations = self._push_filters(left_relations, left_pool)
        left = self._order_joins(left_relations, left_pool)
        right = self._plan_base_ref(ref.right)
        left_keys, right_keys, residual = self._split_join_condition(
            ref.condition, left.schema, right.plan.schema
        )
        schema = left.schema.concat(right.plan.schema)
        plan = LogicalJoin(
            left=left,
            right=right.plan,
            kind="left",
            left_keys=left_keys,
            right_keys=right_keys,
            residual=residual,
            schema=schema,
        )
        name = f"__leftjoin_{right.name}"
        return _Relation(plan=plan, name=name, estimated_bytes=right.estimated_bytes)

    def _plan_base_ref(self, ref: TableRef, prune: bool = True) -> _Relation:
        if isinstance(ref, NamedTable):
            table = self._ctx.resolve_table(ref.name)
            qualifier = ref.binding_name
            schema = table.schema.with_qualifier(qualifier)
            # Projection pushdown: keep what some reference of the statement
            # can resolve to (a COUNT(*)-only input keeps one column to carry
            # the row count).
            refs = self._references
            columns = tuple(
                i
                for i, column in enumerate(schema)
                if not prune or refs is None or any(column.matches(q, n) for q, n in refs)
            ) or (0,)[: len(schema)]
            schema = Schema([schema.column(i) for i in columns])
            plan = LogicalScan(table=table, qualifier=qualifier, schema=schema, columns=columns)
            stats = self._ctx.table_stats(table)
            estimated = (
                stats.total_bytes
                if stats is not None
                else self._ctx.estimate_table_bytes(table)
            )
            return _Relation(
                plan=plan,
                name=qualifier,
                estimated_bytes=estimated,
                stats=stats,
            )
        if isinstance(ref, SubqueryRef):
            child = Planner(self._ctx).plan(ref.query)
            schema = child.schema.with_qualifier(ref.alias)
            plan = _requalify(child, schema)
            return _Relation(plan=plan, name=ref.alias, estimated_bytes=2**30)
        if isinstance(ref, TableFunction):
            return self._plan_table_function(ref)
        raise PlanError(f"unsupported FROM item: {type(ref).__name__}")

    def _plan_table_function(self, ref: TableFunction) -> _Relation:
        udf = self._ctx.resolve_table_udf(ref.udf_name)
        # A pass-through UDF exposes its whole input: a table handed to one
        # is never pruned (a subquery input prunes by its own select list).
        input_relation = self._plan_base_ref(ref.input_ref, prune=False)
        args = tuple(self._constant(a) for a in ref.args)
        input_schema = input_relation.plan.schema
        out_schema = udf.output_schema(input_schema, args)
        qualifier = ref.binding_name
        plan = LogicalTableFunction(
            udf=udf,
            child=input_relation.plan,
            args=args,
            qualifier=qualifier,
            schema=out_schema.with_qualifier(qualifier),
        )
        return _Relation(
            plan=plan, name=qualifier, estimated_bytes=input_relation.estimated_bytes
        )

    def _constant(self, expr: Expr):
        if expr.references():
            raise PlanError(
                f"table UDF arguments must be constants, got {expr.to_sql()}"
            )
        empty = Binder(Schema([]), self._ctx.functions)
        return expr.bind_batch(empty)([()])[0]

    # ------------------------------------------------------------- pushdown

    def _push_filters(
        self, relations: list[_Relation], pool: list[Expr]
    ) -> list[_Relation]:
        remaining: list[Expr] = []
        per_relation: dict[int, list[Expr]] = {}
        for predicate in pool:
            target = self._single_relation(predicate, relations)
            if target is None:
                remaining.append(predicate)
            else:
                per_relation.setdefault(target, []).append(predicate)
        pool[:] = remaining
        result: list[_Relation] = []
        for i, relation in enumerate(relations):
            conjunct_list = per_relation.get(i, [])
            predicate = combine_conjuncts(conjunct_list)
            if predicate is None:
                result.append(relation)
                continue
            plan = relation.plan
            if isinstance(plan, LogicalScan) and plan.pushed_filter is None:
                plan.pushed_filter = predicate
                new_plan: LogicalPlan = plan
            else:
                new_plan = LogicalFilter(child=plan, predicate=predicate)
            selectivity = 1.0
            for conjunct in conjunct_list:
                selectivity *= self._selectivity(conjunct, relation.stats)
            result.append(
                _Relation(
                    plan=new_plan,
                    name=relation.name,
                    estimated_bytes=relation.estimated_bytes * selectivity,
                    stats=relation.stats,
                )
            )
        return result

    @staticmethod
    def _selectivity(predicate: Expr, stats) -> float:
        """Estimated fraction of rows a conjunct keeps.

        With fresh ANALYZE stats, an equality against a known column uses
        the classic 1/NDV estimate and IN-lists k/NDV; otherwise textbook
        defaults (equality 0.1, range 1/3, fallback 0.25)."""
        from repro.sql.expressions import Between, InList, Like

        column: ColumnRef | None = None
        if isinstance(predicate, Comparison):
            if isinstance(predicate.left, ColumnRef):
                column = predicate.left
            elif isinstance(predicate.right, ColumnRef):
                column = predicate.right
            if predicate.op == "=":
                if column is not None and stats is not None:
                    ndv = stats.ndv.get(column.name.lower())
                    if ndv:
                        return min(1.0, 1.0 / ndv)
                return 0.1
            return 1.0 / 3.0
        if isinstance(predicate, InList) and not predicate.negated:
            if (
                isinstance(predicate.operand, ColumnRef)
                and stats is not None
            ):
                ndv = stats.ndv.get(predicate.operand.name.lower())
                if ndv:
                    return min(1.0, len(predicate.values) / ndv)
            return min(1.0, 0.1 * len(predicate.values))
        if isinstance(predicate, (Between, Like)):
            return 1.0 / 3.0
        return 0.25

    def _single_relation(
        self, predicate: Expr, relations: list[_Relation]
    ) -> int | None:
        refs = predicate.references()
        if not refs:
            return 0
        owners = set()
        for qualifier, name in refs:
            owner = self._owner_of(qualifier, name, relations)
            if owner is None:
                return None
            owners.add(owner)
        if len(owners) == 1:
            return owners.pop()
        return None

    @staticmethod
    def _owner_of(
        qualifier: str | None, name: str, relations: list[_Relation]
    ) -> int | None:
        candidates = [
            i
            for i, rel in enumerate(relations)
            if rel.plan.schema.maybe_resolve(qualifier, name) is not None
        ]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ---------------------------------------------------------- join order

    def _order_joins(self, relations: list[_Relation], pool: list[Expr]) -> LogicalPlan:
        if len(relations) == 1:
            plan = relations[0].plan
            residual = combine_conjuncts(pool)
            pool.clear()
            if residual is not None:
                plan = LogicalFilter(child=plan, predicate=residual)
            return plan

        pending = list(relations)
        pending.sort(key=lambda r: r.estimated_bytes)
        current = pending.pop(0)
        current_plan = current.plan
        current_bytes = current.estimated_bytes

        while pending:
            chosen = None
            for candidate in pending:
                if self._join_predicates(current_plan.schema, candidate.plan.schema, pool):
                    chosen = candidate
                    break
            if chosen is None:
                chosen = pending[0]  # cartesian fallback (predicates may be residual)
            pending.remove(chosen)
            preds = self._join_predicates(current_plan.schema, chosen.plan.schema, pool)
            for p in preds:
                pool.remove(p)
            left_keys, right_keys, extra_residual = self._split_predicates(
                preds, current_plan.schema, chosen.plan.schema
            )
            schema = current_plan.schema.concat(chosen.plan.schema)
            current_plan = LogicalJoin(
                left=current_plan,
                right=chosen.plan,
                kind="inner",
                left_keys=left_keys,
                right_keys=right_keys,
                residual=extra_residual,
                schema=schema,
            )
            current_bytes += chosen.estimated_bytes

        residual = combine_conjuncts(pool)
        pool.clear()
        if residual is not None:
            current_plan = LogicalFilter(child=current_plan, predicate=residual)
        return current_plan

    def _join_predicates(
        self, left_schema: Schema, right_schema: Schema, pool: list[Expr]
    ) -> list[Expr]:
        """Predicates fully resolvable over left+right (for this join step)."""
        combined = left_schema.concat(right_schema)
        usable = []
        for predicate in pool:
            refs = predicate.references()
            if refs and all(
                combined.maybe_resolve(q, n) is not None for q, n in refs
            ):
                usable.append(predicate)
        return usable

    def _split_predicates(
        self, predicates: list[Expr], left_schema: Schema, right_schema: Schema
    ) -> tuple[list[Expr], list[Expr], Expr | None]:
        left_keys: list[Expr] = []
        right_keys: list[Expr] = []
        residual: list[Expr] = []
        for predicate in predicates:
            pair = self._equi_pair(predicate, left_schema, right_schema)
            if pair is None:
                residual.append(predicate)
            else:
                left_keys.append(pair[0])
                right_keys.append(pair[1])
        return left_keys, right_keys, combine_conjuncts(residual)

    def _split_join_condition(
        self, condition: Expr, left_schema: Schema, right_schema: Schema
    ) -> tuple[list[Expr], list[Expr], Expr | None]:
        return self._split_predicates(conjuncts(condition), left_schema, right_schema)

    @staticmethod
    def _equi_pair(
        predicate: Expr, left_schema: Schema, right_schema: Schema
    ) -> tuple[Expr, Expr] | None:
        if not isinstance(predicate, Comparison) or predicate.op != "=":
            return None

        def side(expr: Expr) -> str | None:
            refs = expr.references()
            if not refs:
                return None
            on_left = all(left_schema.maybe_resolve(q, n) is not None for q, n in refs)
            on_right = all(right_schema.maybe_resolve(q, n) is not None for q, n in refs)
            if on_left and not on_right:
                return "left"
            if on_right and not on_left:
                return "right"
            return None

        lhs, rhs = side(predicate.left), side(predicate.right)
        if lhs == "left" and rhs == "right":
            return predicate.left, predicate.right
        if lhs == "right" and rhs == "left":
            return predicate.right, predicate.left
        return None

    # ------------------------------------------------------------- SELECT

    def _plan_select(self, query: SelectQuery, input_plan: LogicalPlan) -> LogicalPlan:
        items = self._expand_star(query.items, input_plan.schema)
        has_aggregates = bool(query.group_by) or any(
            item.expr.contains_aggregate() for item in items
        )
        if query.having is not None and not has_aggregates:
            raise PlanError("HAVING requires GROUP BY or aggregates")

        if has_aggregates:
            plan, items = self._plan_aggregate(query, items, input_plan)
        else:
            plan = input_plan

        exprs = [item.expr for item in items]
        names = self._output_names(items)
        binder = Binder(plan.schema, self._ctx.functions)
        columns = [
            Column(name, expr.data_type(binder)) for name, expr in zip(names, exprs)
        ]
        pre_projection = plan
        plan = LogicalProject(child=plan, exprs=exprs, schema=Schema(columns))

        if query.distinct:
            plan = LogicalDistinct(child=plan)
        if query.order_by:
            keys = [(o.expr, o.ascending) for o in query.order_by]
            if self._resolves_all(keys, plan.schema):
                plan = LogicalSort(child=plan, keys=keys)
            elif not query.distinct and self._resolves_all(keys, pre_projection.schema):
                # ORDER BY references input columns dropped by the SELECT
                # list (standard SQL): sort beneath the projection.  The
                # projection preserves row order, so the output stays sorted.
                sorted_child = LogicalSort(child=pre_projection, keys=keys)
                plan = LogicalProject(
                    child=sorted_child, exprs=exprs, schema=Schema(columns)
                )
            else:
                # Raise with the output-schema resolution error (clearer).
                for expr, _asc in keys:
                    for q, n in expr.references():
                        plan.schema.resolve(q, n)
        if query.limit is not None:
            plan = LogicalLimit(child=plan, limit=query.limit)
        return plan

    @staticmethod
    def _resolves_all(keys: list[tuple[Expr, bool]], schema: Schema) -> bool:
        return all(
            schema.maybe_resolve(q, n) is not None
            for expr, _asc in keys
            for q, n in expr.references()
        )

    def _plan_aggregate(
        self,
        query: SelectQuery,
        items: list[SelectItem],
        input_plan: LogicalPlan,
    ) -> tuple[LogicalPlan, list[SelectItem]]:
        group_exprs = list(query.group_by)
        agg_calls: list[AggregateCall] = []
        for item in items:
            for node in walk(item.expr):
                if isinstance(node, AggregateCall) and node not in agg_calls:
                    agg_calls.append(node)
        if query.having is not None:
            for node in walk(query.having):
                if isinstance(node, AggregateCall) and node not in agg_calls:
                    agg_calls.append(node)

        binder = Binder(input_plan.schema, self._ctx.functions)
        key_columns = []
        for i, expr in enumerate(group_exprs):
            name = expr.name if isinstance(expr, ColumnRef) else f"__key{i}"
            key_columns.append(Column(name, expr.data_type(binder)))
        agg_columns = [
            Column(f"__agg{i}", call.data_type(binder))
            for i, call in enumerate(agg_calls)
        ]
        agg_schema = Schema(key_columns + agg_columns)

        plan: LogicalPlan = LogicalAggregate(
            child=input_plan,
            group_exprs=group_exprs,
            agg_calls=agg_calls,
            schema=agg_schema,
        )

        substitution = self._aggregate_substitution(group_exprs, agg_calls, agg_schema)

        if query.having is not None:
            having = transform(query.having, substitution)
            self._check_resolves(having, agg_schema, "HAVING")
            plan = LogicalFilter(child=plan, predicate=having)

        new_items = []
        for item in items:
            rewritten = transform(item.expr, substitution)
            self._check_resolves(rewritten, agg_schema, "SELECT")
            new_items.append(SelectItem(rewritten, item.alias))
        return plan, new_items

    @staticmethod
    def _aggregate_substitution(
        group_exprs: list[Expr], agg_calls: list[AggregateCall], agg_schema: Schema
    ):
        def substitute(node: Expr) -> Expr | None:
            for i, call in enumerate(agg_calls):
                if node == call:
                    return ColumnRef(None, f"__agg{i}")
            for i, key in enumerate(group_exprs):
                if node == key:
                    return ColumnRef(None, agg_schema.column(i).name)
            return None

        return substitute

    def _check_resolves(self, expr: Expr, schema: Schema, clause: str) -> None:
        for qualifier, name in expr.references():
            if schema.maybe_resolve(qualifier, name) is None:
                ref = f"{qualifier}.{name}" if qualifier else name
                raise PlanError(
                    f"{clause} references {ref!r}, which is neither grouped "
                    "nor aggregated"
                )
        for node in walk(expr):
            if isinstance(node, AggregateCall):
                raise PlanError(f"nested aggregate left in {clause}")

    @staticmethod
    def _expand_star(
        items: tuple[SelectItem, ...], schema: Schema
    ) -> list[SelectItem]:
        expanded: list[SelectItem] = []
        for item in items:
            if isinstance(item.expr, Star):
                for column in schema:
                    expanded.append(
                        SelectItem(ColumnRef(column.qualifier, column.name), None)
                    )
            else:
                expanded.append(item)
        return expanded

    @staticmethod
    def _output_names(items: list[SelectItem]) -> list[str]:
        names = []
        for i, item in enumerate(items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ColumnRef):
                names.append(item.expr.name)
            else:
                names.append(f"_c{i}")
        return names


def _statement_references(query: SelectQuery) -> set[tuple[str | None, str]] | None:
    """Every ``(qualifier, name)`` the statement's own clauses read — select
    list, WHERE, GROUP BY, HAVING, ORDER BY and the ON conditions of its
    joins; subqueries answer for themselves.  None when a bare ``*`` in the
    select list reads every column."""
    exprs = [item.expr for item in query.items]
    if any(isinstance(expr, Star) for expr in exprs):
        return None
    exprs += [query.where, query.having, *query.group_by]
    exprs += [order.expr for order in query.order_by]
    pending = list(query.from_refs)
    while pending:
        ref = pending.pop()
        if isinstance(ref, Join):
            exprs.append(ref.condition)
            pending += [ref.left, ref.right]
    return set().union(*(expr.references() for expr in exprs if expr is not None))


def _requalify(plan: LogicalPlan, schema: Schema) -> LogicalPlan:
    """Re-expose a subquery's output under its alias (zero-cost projection)."""
    exprs = [ColumnRef(c.qualifier, c.name) for c in plan.schema]
    return LogicalProject(child=plan, exprs=exprs, schema=schema)
