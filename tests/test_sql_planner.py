"""Planner: plan shapes, pushdown, join ordering, error reporting."""

import pytest

from repro.common.errors import CatalogError, PlanError
from repro.sql.plan import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalJoin,
    LogicalLimit,
    LogicalProject,
    LogicalScan,
    LogicalSort,
)


def find_nodes(plan, node_type):
    found = []

    def visit(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            visit(child)

    visit(plan)
    return found


class TestPlanShapes:
    def test_scan_project(self, users_carts):
        plan = users_carts.plan("SELECT age FROM users")
        assert isinstance(plan, LogicalProject)
        assert isinstance(plan.child, LogicalScan)

    def test_filter_pushed_into_scan(self, users_carts):
        plan = users_carts.plan("SELECT age FROM users WHERE age > 30")
        scans = find_nodes(plan, LogicalScan)
        assert scans[0].pushed_filter is not None
        assert find_nodes(plan, LogicalFilter) == []

    def test_join_from_comma_syntax(self, users_carts):
        plan = users_carts.plan(
            "SELECT U.age FROM carts C, users U WHERE C.userid = U.userid"
        )
        joins = find_nodes(plan, LogicalJoin)
        assert len(joins) == 1
        assert joins[0].kind == "inner"
        assert len(joins[0].left_keys) == 1

    def test_join_pushdown_of_single_table_predicate(self, users_carts):
        plan = users_carts.plan(
            "SELECT U.age FROM carts C, users U "
            "WHERE C.userid = U.userid AND U.country = 'USA'"
        )
        scans = find_nodes(plan, LogicalScan)
        users_scan = next(s for s in scans if s.table.name == "users")
        assert users_scan.pushed_filter is not None
        assert "country" in users_scan.pushed_filter.to_sql()

    def test_smaller_table_drives_join_order(self, users_carts):
        plan = users_carts.plan(
            "SELECT 1 FROM carts C, users U WHERE C.userid = U.userid"
        )
        (join,) = find_nodes(plan, LogicalJoin)
        # users (5 rows) is smaller than carts (7 rows): it becomes the
        # left/build input under the greedy smallest-first ordering.
        assert isinstance(join.left, LogicalScan)
        assert join.left.table.name == "users"

    def test_three_way_join(self, engine, users_carts):
        from repro.sql.types import DataType, Schema

        engine.create_table(
            "countries", Schema.of(("code", DataType.VARCHAR), ("region", DataType.VARCHAR)),
            [("USA", "NA"), ("DE", "EU")],
        )
        plan = engine.plan(
            "SELECT U.age, X.region FROM carts C, users U, countries X "
            "WHERE C.userid = U.userid AND U.country = X.code"
        )
        assert len(find_nodes(plan, LogicalJoin)) == 2

    def test_explicit_left_join(self, users_carts):
        plan = users_carts.plan(
            "SELECT U.age FROM users U LEFT JOIN carts C ON U.userid = C.userid"
        )
        (join,) = find_nodes(plan, LogicalJoin)
        assert join.kind == "left"

    def test_distinct_and_sort_and_limit(self, users_carts):
        plan = users_carts.plan(
            "SELECT DISTINCT country FROM users ORDER BY country LIMIT 2"
        )
        assert isinstance(plan, LogicalLimit)
        assert isinstance(plan.child, LogicalSort)
        assert isinstance(plan.child.child, LogicalDistinct)

    def test_aggregate_plan(self, users_carts):
        plan = users_carts.plan("SELECT gender, COUNT(*) FROM users GROUP BY gender")
        aggs = find_nodes(plan, LogicalAggregate)
        assert len(aggs) == 1
        assert len(aggs[0].agg_calls) == 1

    def test_having_becomes_filter_over_aggregate(self, users_carts):
        plan = users_carts.plan(
            "SELECT gender FROM users GROUP BY gender HAVING COUNT(*) > 1"
        )
        filters = find_nodes(plan, LogicalFilter)
        assert len(filters) == 1
        assert isinstance(filters[0].child, LogicalAggregate)

    def test_star_expansion(self, users_carts):
        plan = users_carts.plan("SELECT * FROM users")
        assert plan.schema.names == ["userid", "age", "gender", "country"]

    def test_output_names(self, users_carts):
        plan = users_carts.plan("SELECT age AS years, age + 1, gender FROM users")
        assert plan.schema.names == ["years", "_c1", "gender"]

    def test_explain_renders_tree(self, users_carts):
        text = users_carts.explain(
            "SELECT U.age FROM carts C, users U WHERE C.userid = U.userid"
        )
        assert "Join" in text
        assert "Scan(users AS U" in text


class TestPlannerErrors:
    def test_unknown_table(self, users_carts):
        with pytest.raises(CatalogError, match="nosuch"):
            users_carts.plan("SELECT 1 FROM nosuch")

    def test_unknown_column_lists_candidates(self, users_carts):
        with pytest.raises(PlanError, match="unknown column"):
            users_carts.plan("SELECT nocolumn FROM users")

    def test_ambiguous_column(self, users_carts):
        with pytest.raises(PlanError, match="ambiguous"):
            users_carts.plan(
                "SELECT userid FROM users U, carts C WHERE U.userid = C.userid"
            )

    def test_duplicate_alias(self, users_carts):
        with pytest.raises(PlanError, match="duplicate"):
            users_carts.plan("SELECT 1 FROM users U, carts U")

    def test_ungrouped_column_rejected(self, users_carts):
        with pytest.raises(PlanError, match="neither grouped nor aggregated"):
            users_carts.plan("SELECT age, COUNT(*) FROM users GROUP BY gender")

    def test_aggregate_in_where_rejected(self, users_carts):
        with pytest.raises(PlanError, match="WHERE"):
            users_carts.plan("SELECT age FROM users WHERE COUNT(*) > 1")

    def test_having_without_group_rejected(self, users_carts):
        with pytest.raises(PlanError, match="HAVING"):
            users_carts.plan("SELECT age FROM users HAVING age > 1")

    def test_table_udf_args_must_be_constant(self, users_carts):
        from repro.transform import LocalDistinctUDF

        users_carts.register_table_udf(LocalDistinctUDF())
        with pytest.raises(PlanError, match="constant"):
            users_carts.plan(
                "SELECT * FROM TABLE(local_distinct(users, gender)) AS d"
            )


def scan_columns(plan) -> dict:
    """``{binding name: column names its scan produces}``."""
    return {s.qualifier: s.schema.names for s in find_nodes(plan, LogicalScan)}


class TestProjectionPushdown:
    """A scan keeps the columns some reference of its statement resolves to."""

    def test_paper_prep_query(self, users_carts):
        text = users_carts.explain(
            "SELECT U.age, U.gender, C.amount, C.abandoned "
            "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
        )
        assert "Scan(carts AS C, columns=[userid, amount, abandoned])" in text
        # every column of users is referenced: nothing to show
        assert "Scan(users AS U, filter=U.country = 'USA')" in text

    def test_scan_schema_and_indices_agree(self, users_carts):
        (scan,) = find_nodes(
            users_carts.plan("SELECT abandoned, amount FROM carts"), LogicalScan
        )
        assert scan.columns == (2, 4)  # table order, not select-list order
        assert scan.schema.names == ["amount", "abandoned"]
        assert [c.qualifier for c in scan.schema] == ["carts", "carts"]

    def test_star_keeps_every_column(self, users_carts):
        for sql in ("SELECT * FROM users", "SELECT age, * FROM users"):
            (scan,) = find_nodes(users_carts.plan(sql), LogicalScan)
            assert scan.columns == (0, 1, 2, 3)
            assert "columns=" not in scan.describe()

    @pytest.mark.parametrize(
        "sql,rows",
        [("SELECT COUNT(*) FROM users", [(5,)]), ("SELECT 1 FROM users", [(1,)] * 5)],
    )
    def test_no_reference_keeps_exactly_one_column(self, users_carts, sql, rows):
        (scan,) = find_nodes(users_carts.plan(sql), LogicalScan)
        assert scan.columns == (0,)
        assert users_carts.query_rows(sql) == rows

    def test_count_star_beside_a_join_key(self, users_carts):
        plan = users_carts.plan(
            "SELECT COUNT(*) FROM carts C, users U WHERE C.userid = U.userid"
        )
        assert scan_columns(plan) == {"C": ["userid"], "U": ["userid"]}

    @pytest.mark.parametrize(
        "sql,kept",
        [
            ("SELECT age FROM users ORDER BY country", ["age", "country"]),
            ("SELECT COUNT(*) FROM users GROUP BY gender", ["gender"]),
            (
                "SELECT gender FROM users GROUP BY gender HAVING MAX(age) > 30",
                ["age", "gender"],
            ),
            ("SELECT age FROM users WHERE country = 'USA'", ["age", "country"]),
        ],
    )
    def test_columns_used_outside_the_select_list_are_kept(self, users_carts, sql, kept):
        (scan,) = find_nodes(users_carts.plan(sql), LogicalScan)
        assert scan.schema.names == kept
        users_carts.query_rows(sql)  # and the plan binds and runs

    def test_left_join_prunes_both_sides_and_keeps_on_columns(self, users_carts):
        sql = (
            "SELECT U.age FROM users U LEFT JOIN carts C ON U.userid = C.userid "
            "WHERE C.cartid IS NULL"
        )
        plan = users_carts.plan(sql)
        assert scan_columns(plan) == {"U": ["userid", "age"], "C": ["cartid", "userid"]}
        assert users_carts.query_rows(sql) == []

    def test_unqualified_reference_keeps_every_candidate(self, users_carts):
        """So the ambiguity error is the one an unpruned plan raises."""
        with pytest.raises(PlanError, match="ambiguous column 'userid'.*U.userid.*C.userid"):
            users_carts.plan(
                "SELECT userid FROM users U, carts C WHERE U.userid = C.userid"
            )

    def test_unknown_column_still_lists_every_candidate(self, users_carts):
        with pytest.raises(PlanError, match="unknown column 'nocolumn'.*gender VARCHAR"):
            users_carts.plan("SELECT nocolumn, age FROM users")

    def test_subquery_prunes_by_its_own_references(self, users_carts):
        plan = users_carts.plan(
            "SELECT S.age FROM (SELECT age, gender FROM users WHERE country = 'USA') AS S"
        )
        assert scan_columns(plan) == {"users": ["age", "gender", "country"]}
        plan = users_carts.plan("SELECT S.age FROM (SELECT * FROM users) AS S")
        assert scan_columns(plan) == {"users": ["userid", "age", "gender", "country"]}

    def test_table_function_input_is_unpruned(self, users_carts):
        from repro.transform import LocalDistinctUDF

        users_carts.register_table_udf(LocalDistinctUDF())
        plan = users_carts.plan(
            "SELECT D.colname FROM TABLE(local_distinct(users, 'gender')) AS D"
        )
        assert scan_columns(plan) == {"users": ["userid", "age", "gender", "country"]}
        plan = users_carts.plan(
            "SELECT D.colname FROM "
            "TABLE(local_distinct((SELECT gender FROM users), 'gender')) AS D"
        )
        assert scan_columns(plan) == {"users": ["gender"]}

    def test_union_all_branches_prune_separately(self, users_carts):
        plan = users_carts.plan(
            "SELECT age FROM users UNION ALL SELECT year FROM carts WHERE amount > 1"
        )
        assert scan_columns(plan) == {"users": ["age"], "carts": ["amount", "year"]}
