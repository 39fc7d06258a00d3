"""QueryRewriter: emitted SQL, plan kinds, and end-to-end correctness of
rewritten queries (rewritten results must equal direct computation)."""

import pytest

from repro.caching.cache import CacheManager
from repro.common.errors import PlanError
from repro.rewriter.rewriter import QueryRewriter
from repro.transform import (
    DummyCodeUDF,
    LocalDistinctUDF,
    RecodeMap,
    RecodeUDF,
    TransformService,
)
from repro.transform.spec import TransformSpec

PREP = (
    "SELECT U.age, U.gender, C.amount, C.abandoned "
    "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
)
SPEC = TransformSpec(recode=("gender", "abandoned"), dummy=("gender",), label="abandoned")


@pytest.fixture()
def env(users_carts):
    engine = users_carts
    transforms = TransformService()
    cache = CacheManager(engine, transforms)
    engine.register_table_udf(LocalDistinctUDF())
    engine.register_table_udf(RecodeUDF(transforms))
    engine.register_table_udf(DummyCodeUDF(transforms))
    rewriter = QueryRewriter(engine, transforms, cache=cache)
    return engine, transforms, cache, rewriter


def run_pass1(engine, transforms, plan):
    rows = engine.query_rows(plan.pass1_sql)
    recode_map = RecodeMap.from_distinct_rows(rows)
    transforms.register(plan.map_handle, recode_map)
    return recode_map


class TestNoCachePlans:
    def test_plan_shape(self, env):
        engine, _t, _c, rewriter = env
        plan = rewriter.plan(PREP, SPEC)
        assert plan.kind == "no_cache"
        assert plan.needs_pass1
        assert "local_distinct" in plan.pass1_sql
        assert "recode" in plan.inner_sql
        assert "dummy_code" in plan.inner_sql

    def test_rewritten_sql_reads_only_the_prep_querys_columns(self, env):
        """The prep query sits in a subquery under the transform UDFs: it
        prunes by its own references, in both passes."""
        engine, transforms, _c, rewriter = env
        plan = rewriter.plan(PREP, SPEC)
        scan = "Scan(carts AS C, columns=[userid, amount, abandoned])"
        assert scan in engine.explain(plan.pass1_sql)
        run_pass1(engine, transforms, plan)
        assert scan in engine.explain(plan.inner_sql)

    def test_no_recoding_needed(self, env):
        engine, _t, _c, rewriter = env
        numeric_spec = TransformSpec(label="amount")
        plan = rewriter.plan("SELECT amount FROM carts", numeric_spec)
        assert not plan.needs_pass1
        assert plan.inner_sql == "SELECT amount FROM carts"

    def test_final_sql_wraps_stream(self, env):
        engine, _t, _c, rewriter = env
        plan = rewriter.plan(PREP, SPEC)
        final = plan.final_sql("sess-1")
        assert final.startswith("SELECT * FROM TABLE(stream_transfer((")
        assert "'sess-1'" in final
        inline = plan.final_sql("s", command="svm_with_sgd", args="iterations=10")
        assert "'svm_with_sgd'" in inline and "'iterations=10'" in inline

    def test_emitted_sql_executes_correctly(self, env):
        """Pass 1 + pass 2 emitted SQL produce the expected transformed rows."""
        engine, transforms, _c, rewriter = env
        plan = rewriter.plan(PREP, SPEC)
        recode_map = run_pass1(engine, transforms, plan)
        assert recode_map.mapping("gender") == {"F": 1, "M": 2}
        rows = engine.query_rows(plan.inner_sql)
        # schema: age, gender_F, gender_M, amount, abandoned(recoded)
        assert (57, 1, 0, 142.65, 2) in rows
        assert (40, 0, 1, 299.99, 2) in rows
        assert (25, 0, 1, 55.10, 1) in rows

    def test_describe(self, env):
        engine, _t, _c, rewriter = env
        plan = rewriter.plan(PREP, SPEC)
        text = plan.describe()
        assert "no_cache" in text and "pass 1" in text and "pass 2" in text


class TestRecodeMapCachePlans:
    def test_pass1_skipped(self, env):
        engine, transforms, cache, rewriter = env
        no_cache_plan = rewriter.plan(PREP, SPEC)
        recode_map = run_pass1(engine, transforms, no_cache_plan)
        cache.store_recode_map(PREP, SPEC, recode_map)

        follow_up = PREP + " AND C.year = 2014"
        plan = rewriter.plan(follow_up, SPEC)
        assert plan.kind == "recode_map_cache"
        assert not plan.needs_pass1

    def test_reused_map_produces_correct_rows(self, env):
        engine, transforms, cache, rewriter = env
        base_plan = rewriter.plan(PREP, SPEC)
        recode_map = run_pass1(engine, transforms, base_plan)
        cache.store_recode_map(PREP, SPEC, recode_map)

        follow_up = PREP + " AND C.year = 2014"
        plan = rewriter.plan(follow_up, SPEC)
        rows = engine.query_rows(plan.inner_sql)
        # 2014 carts in USA: (1,142.65,Yes), (1,7.50,No), (5,120.00,Yes)
        assert sorted(rows) == [
            (57, 1, 0, 7.50, 1),
            (57, 1, 0, 142.65, 2),
            (61, 1, 0, 120.00, 2),
        ]


class TestFullCachePlans:
    def setup_cache(self, env):
        engine, transforms, cache, rewriter = env
        base_plan = rewriter.plan(PREP, SPEC)
        recode_map = run_pass1(engine, transforms, base_plan)
        handle = cache.store_recode_map(PREP, SPEC, recode_map)
        # materialize the recoded (pre-dummy) stage, as the pipeline does
        recode_sql = (
            f"SELECT * FROM TABLE(recode(({PREP}), '{handle}', "
            "'gender', 'abandoned')) AS __recoded"
        )
        engine.create_materialized_view("cached_view", recode_sql)
        cache.store_transformed(PREP, SPEC, "cached_view", handle)
        return engine, rewriter, handle

    def test_identical_query_served_from_view(self, env):
        engine, rewriter, _h = self.setup_cache(env)
        plan = rewriter.plan(PREP, SPEC)
        assert plan.kind == "full_cache"
        assert plan.cached_view == "cached_view"
        assert "carts" not in plan.inner_sql  # base tables never touched
        rows = engine.query_rows(plan.inner_sql)
        assert (57, 1, 0, 142.65, 2) in rows
        assert len(rows) == 6

    def test_paper_51_followup_predicate_recoded(self, env):
        """The §5.1 example: gender = 'F' must become gender = 1 against the
        recoded cached view."""
        engine, rewriter, _h = self.setup_cache(env)
        subset_sql = (
            "SELECT U.age, C.amount, C.abandoned FROM carts C, users U "
            "WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'F'"
        )
        spec = TransformSpec(recode=("abandoned",), label="abandoned")
        plan = rewriter.plan(subset_sql, spec)
        assert plan.kind == "full_cache"
        assert "gender = 1" in plan.inner_sql
        rows = engine.query_rows(plan.inner_sql)
        direct = engine.query_rows(
            "SELECT U.age, C.amount, C.abandoned FROM carts C, users U "
            "WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'F'"
        )
        # recoded abandoned: No->1, Yes->2
        expected = sorted((a, m, {"No": 1, "Yes": 2}[ab]) for a, m, ab in direct)
        assert sorted(rows) == expected

    def test_unknown_predicate_value_fails_loudly(self, env):
        engine, rewriter, _h = self.setup_cache(env)
        bad_sql = (
            "SELECT U.age, C.amount, C.abandoned FROM carts C, users U "
            "WHERE C.userid = U.userid AND U.country = 'USA' AND U.gender = 'Q'"
        )
        spec = TransformSpec(recode=("abandoned",), label="abandoned")
        with pytest.raises(PlanError, match="not in the cached recode map"):
            rewriter.plan(bad_sql, spec)

    def test_full_cache_beats_recode_cache_in_priority(self, env):
        engine, rewriter, _h = self.setup_cache(env)
        plan = rewriter.plan(PREP, SPEC)
        assert plan.kind == "full_cache"  # not recode_map_cache
