"""Query-shape extraction and the §5.1 / §5.2 cache-matching conditions."""

from dataclasses import dataclass

from repro.common.errors import CatalogError
from repro.sql.ast import Join, NamedTable, SelectQuery
from repro.sql.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    Star,
    conjuncts,
    transform,
)
from repro.rewriter.predicates import implies
from repro.transform.spec import TransformSpec


@dataclass(frozen=True)
class QueryShape:
    """The parts of a SELECT that the matching conditions talk about.

    Everything is *normalized*: aliases resolved to base-table names and
    lowercased, so the same logical query written with different aliases
    produces the same shape.
    """

    tables: frozenset[str]
    join_conditions: frozenset[str]  # canonical SQL of each equi-join conjunct
    predicates: tuple[Expr, ...]  # normalized non-join conjuncts
    projections: tuple[tuple[str, Expr], ...]  # (output name, normalized expr)

    def projection_exprs(self) -> dict[Expr, str]:
        """expr -> output name (first wins for duplicated expressions)."""
        mapping: dict[Expr, str] = {}
        for name, expr in self.projections:
            mapping.setdefault(expr, name)
        return mapping


def extract_shape(query: SelectQuery, engine) -> QueryShape | None:
    """Build a shape, or None when the query uses constructs the §5 rules
    do not cover (subqueries, table UDFs, outer joins, grouping...)."""
    if query.group_by or query.having or query.distinct or query.order_by:
        return None
    if query.limit is not None:
        return None

    aliases: dict[str, str] = {}  # binding name -> table name (lower)
    pool: list[Expr] = []

    def collect(ref) -> bool:
        if isinstance(ref, NamedTable):
            aliases[ref.binding_name.lower()] = ref.name.lower()
            return True
        if isinstance(ref, Join) and ref.kind == "inner":
            if not (collect(ref.left) and collect(ref.right)):
                return False
            pool.extend(conjuncts(ref.condition))
            return True
        return False

    for ref in query.from_refs:
        if not collect(ref):
            return None

    try:
        schemas = {
            alias: engine.catalog.get_table(table).schema
            for alias, table in aliases.items()
        }
    except CatalogError:
        return None

    def resolve_unqualified(name: str) -> str | None:
        owners = [
            aliases[alias]
            for alias, schema in schemas.items()
            if schema.maybe_resolve(None, name) is not None
        ]
        return owners[0] if len(owners) == 1 else None

    failed: list[bool] = []

    def normalize_node(node: Expr) -> Expr | None:
        if isinstance(node, ColumnRef):
            if node.qualifier is not None:
                table = aliases.get(node.qualifier.lower())
                if table is None:
                    failed.append(True)
                    return node
            else:
                table = resolve_unqualified(node.name)
                if table is None:
                    failed.append(True)
                    return node
            return ColumnRef(table, node.name.lower())
        return None

    def normalize(expr: Expr) -> Expr | None:
        result = transform(expr, normalize_node)
        return None if failed else result

    pool = pool + conjuncts(query.where)
    join_conditions: set[str] = set()
    predicates: list[Expr] = []
    for predicate in pool:
        normalized = normalize(predicate)
        if normalized is None:
            return None
        if _is_join_condition(normalized):
            join_conditions.add(_canonical_join_sql(normalized))
        else:
            predicates.append(normalized)

    projections: list[tuple[str, Expr]] = []
    for i, item in enumerate(query.items):
        if isinstance(item.expr, Star):
            for alias in aliases:
                for column in schemas[alias]:
                    projections.append(
                        (column.name.lower(), ColumnRef(aliases[alias], column.name.lower()))
                    )
            continue
        normalized = normalize(item.expr)
        if normalized is None:
            return None
        if item.alias:
            name = item.alias.lower()
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.name.lower()
        else:
            name = f"_c{i}"
        projections.append((name, normalized))

    return QueryShape(
        tables=frozenset(aliases.values()),
        join_conditions=frozenset(join_conditions),
        predicates=tuple(predicates),
        projections=tuple(projections),
    )


def _is_join_condition(expr: Expr) -> bool:
    if not (isinstance(expr, Comparison) and expr.op == "="):
        return False
    if not (isinstance(expr.left, ColumnRef) and isinstance(expr.right, ColumnRef)):
        return False
    return expr.left.qualifier != expr.right.qualifier


def _canonical_join_sql(expr: Comparison) -> str:
    left, right = expr.left.to_sql(), expr.right.to_sql()
    return f"{left} = {right}" if left <= right else f"{right} = {left}"


# ------------------------------------------------------------- §5.1 matching


@dataclass(frozen=True)
class FullCacheMatch:
    """A successful §5.1 match: how to answer the new query from the cache."""

    projected: tuple[str, ...]  # cached output columns, in new-query order
    extra_predicates: tuple[Expr, ...]  # rewritten onto cached output columns


def match_full_cache(new: QueryShape, cached: QueryShape) -> FullCacheMatch | None:
    """§5.1: can the new query be answered entirely from the cached result?

    Conditions (quoted from the paper, applied to normalized shapes):
    1. same tables in FROM, same join conditions *and predicates* — every
       cached predicate appears verbatim in the new query;
    2. projected fields are a subset of the cached projected fields;
    3. additional conjunctive predicates only touch cached projected fields.
    """
    if new.tables != cached.tables:
        return None
    if new.join_conditions != cached.join_conditions:
        return None
    cached_predicates = list(cached.predicates)
    extras: list[Expr] = []
    for predicate in new.predicates:
        if predicate in cached_predicates:
            cached_predicates.remove(predicate)
        else:
            extras.append(predicate)
    if cached_predicates:  # a cached predicate the new query dropped -> miss
        return None

    expr_to_name = cached.projection_exprs()
    projected: list[str] = []
    for _name, expr in new.projections:
        cached_name = expr_to_name.get(expr)
        if cached_name is None:
            return None
        projected.append(cached_name)

    rewritten_extras: list[Expr] = []
    for predicate in extras:
        rewritten = _rewrite_onto_cache(predicate, expr_to_name)
        if rewritten is None:
            return None
        rewritten_extras.append(rewritten)
    return FullCacheMatch(
        projected=tuple(projected), extra_predicates=tuple(rewritten_extras)
    )


def _rewrite_onto_cache(predicate: Expr, expr_to_name: dict[Expr, str]) -> Expr | None:
    """Re-root a predicate's column refs onto cached output columns."""
    failed: list[bool] = []

    def substitute(node: Expr) -> Expr | None:
        if isinstance(node, ColumnRef):
            name = expr_to_name.get(node)
            if name is None:
                failed.append(True)
                return node
            return ColumnRef(None, name)
        return None

    rewritten = transform(predicate, substitute)
    return None if failed else rewritten


# ------------------------------------------------------------- §5.2 matching


@dataclass(frozen=True)
class RecodeMapMatch:
    """A successful §5.2 match: the cached recode maps remain valid."""

    matched_predicates: int
    extra_predicates: int


def match_recode_map(
    new: QueryShape,
    new_spec: TransformSpec,
    cached: QueryShape,
    cached_spec: TransformSpec,
) -> RecodeMapMatch | None:
    """§5.2: may the new query reuse the cached recode maps?

    Conditions:
    1. same tables, same join conditions;
    2. for every cached predicate there is a new predicate on the same
       field(s) that is the same or logically stronger;
    3. the new query's projected categorical fields are a subset of the
       cached query's projected categorical fields;
    4. additional predicates are conjunctive (guaranteed: we only ever deal
       in conjunct lists here — disjunctions never reach this code because
       a top-level OR is a single unmatched conjunct on the cached side).
    """
    if new.tables != cached.tables:
        return None
    if new.join_conditions != cached.join_conditions:
        return None

    remaining = list(new.predicates)
    matched = 0
    for cached_predicate in cached.predicates:
        satisfied = None
        for candidate in remaining:
            if _referenced_fields(candidate) == _referenced_fields(
                cached_predicate
            ) and implies(candidate, cached_predicate):
                satisfied = candidate
                break
        if satisfied is None:
            return None
        remaining.remove(satisfied)
        matched += 1

    new_categoricals = _projected_categoricals(new, new_spec)
    cached_categoricals = _projected_categoricals(cached, cached_spec)
    if not new_categoricals <= cached_categoricals:
        return None
    return RecodeMapMatch(matched_predicates=matched, extra_predicates=len(remaining))


def _referenced_fields(expr: Expr) -> frozenset[tuple[str | None, str]]:
    return frozenset(expr.references())


def _projected_categoricals(shape: QueryShape, spec: TransformSpec) -> set[Expr]:
    """The normalized expressions of the projected categorical columns."""
    recoded = {c.lower() for c in spec.all_recoded}
    return {expr for name, expr in shape.projections if name in recoded}
