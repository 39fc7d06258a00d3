"""End-to-end pipeline: the three connection strategies and caching variants
must hand the ML system identical data, with correctly shaped stage timings."""

import pytest

from repro import make_deployment
from repro.workloads import generate_retail


@pytest.fixture(scope="module")
def retail():
    """One shared deployment+workload for this module (read-only tests)."""
    deployment = make_deployment(block_size=64 * 1024)
    workload = generate_retail(
        deployment.engine, deployment.dfs, num_users=300, num_carts=3_000, seed=11
    )
    deployment.pipeline.byte_scale = workload.byte_scale
    return deployment, workload


def dataset_signature(result):
    return sorted(
        (lp.label, tuple(lp.features)) for lp in result.ml_result.dataset.collect()
    )


class TestApproachEquivalence:
    def test_all_three_deliver_identical_data(self, retail):
        deployment, wl = retail
        naive = deployment.pipeline.run_naive(wl.prep_sql, wl.spec, "noop")
        insql = deployment.pipeline.run_insql(wl.prep_sql, wl.spec, "noop")
        stream = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        assert dataset_signature(naive) == dataset_signature(insql) == dataset_signature(stream)
        assert len(dataset_signature(naive)) > 0

    def test_dataset_matches_direct_sql_computation(self, retail):
        """The delivered LabeledPoints equal a by-hand transformation of the
        preparation query's result."""
        deployment, wl = retail
        stream = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        direct = deployment.engine.query_rows(wl.prep_sql)
        gender_map = {"F": 1, "M": 2}
        abandoned_map = {"No": 1, "Yes": 2}
        expected = sorted(
            (
                float(abandoned_map[ab] - 1),  # label offset: recoded - 1
                (
                    float(age),
                    float(gender_map[g] == 1),
                    float(gender_map[g] == 2),
                    float(amount),
                ),
            )
            for age, g, amount, ab in direct
        )
        assert dataset_signature(stream) == expected

    def test_labels_are_binary(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        labels = {lp.label for lp in result.ml_result.dataset.collect()}
        assert labels <= {0.0, 1.0}


class TestStageShapes:
    def test_naive_stage_names(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_naive(wl.prep_sql, wl.spec, "noop")
        names = [s.name for s in result.stages]
        assert names == ["prep", "trsfm", "input for ml", "ml train"]
        assert not result.stage("ml train").counted

    def test_insql_stage_names(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql(wl.prep_sql, wl.spec, "noop")
        names = [s.name for s in result.stages]
        assert names == ["recode pass 1", "prep+trsfm", "input for ml", "ml train"]

    def test_stream_stage_names(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        names = [s.name for s in result.stages]
        assert names == ["recode pass 1", "prep+trsfm+input", "ml train"]

    def test_sim_ordering(self, retail):
        deployment, wl = retail
        naive = deployment.pipeline.run_naive(wl.prep_sql, wl.spec, "noop")
        insql = deployment.pipeline.run_insql(wl.prep_sql, wl.spec, "noop")
        stream = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        assert (
            stream.total_sim_seconds
            < insql.total_sim_seconds
            < naive.total_sim_seconds
        )

    def test_breakdown_renders(self, retail):
        deployment, wl = retail
        result = deployment.pipeline.run_insql(wl.prep_sql, wl.spec, "noop")
        text = result.breakdown()
        assert "insql" in text and "prep+trsfm" in text

    def test_byte_scale_scales_sim_times_linearly(self, retail):
        deployment, wl = retail
        original = deployment.pipeline.byte_scale
        try:
            deployment.pipeline.byte_scale = original
            base = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
            deployment.pipeline.byte_scale = original * 2
            doubled = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        finally:
            deployment.pipeline.byte_scale = original
        stage_b = base.stage("recode pass 1").sim_seconds
        stage_d = doubled.stage("recode pass 1").sim_seconds
        assert stage_d == pytest.approx(2 * stage_b, rel=0.01)


class TestCachingVariants:
    @pytest.fixture()
    def fresh(self):
        deployment = make_deployment(block_size=64 * 1024)
        workload = generate_retail(
            deployment.engine, deployment.dfs, num_users=300, num_carts=3_000, seed=11
        )
        deployment.pipeline.byte_scale = workload.byte_scale
        return deployment, workload

    def test_recode_cache_identical_data_and_faster(self, fresh):
        deployment, wl = fresh
        no_cache = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        deployment.pipeline.populate_caches(wl.prep_sql, wl.spec, cache_recode_map=True)
        cached = deployment.pipeline.run_insql_stream(
            wl.prep_sql, wl.spec, "noop", use_cache=True
        )
        assert cached.rewrite_kind == "recode_map_cache"
        assert dataset_signature(cached) == dataset_signature(no_cache)
        assert cached.total_sim_seconds < no_cache.total_sim_seconds

    def test_full_cache_identical_data_and_fastest(self, fresh):
        deployment, wl = fresh
        no_cache = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        deployment.pipeline.populate_caches(
            wl.prep_sql, wl.spec, cache_recode_map=True, cache_transformed=True
        )
        cached = deployment.pipeline.run_insql_stream(
            wl.prep_sql, wl.spec, "noop", use_cache=True
        )
        assert cached.rewrite_kind == "full_cache"
        assert dataset_signature(cached) == dataset_signature(no_cache)
        assert cached.total_sim_seconds < 0.7 * no_cache.total_sim_seconds

    def test_without_use_cache_flag_cache_ignored(self, fresh):
        deployment, wl = fresh
        deployment.pipeline.populate_caches(
            wl.prep_sql, wl.spec, cache_recode_map=True, cache_transformed=True
        )
        result = deployment.pipeline.run_insql_stream(wl.prep_sql, wl.spec, "noop")
        assert result.rewrite_kind == "no_cache"

    def test_insert_invalidates_pipeline_cache(self, fresh):
        """After a base-table update the pipeline falls back to no_cache —
        and therefore picks up the new data."""
        deployment, wl = fresh
        deployment.pipeline.populate_caches(
            wl.prep_sql, wl.spec, cache_recode_map=True, cache_transformed=True
        )
        hit = deployment.pipeline.run_insql_stream(
            wl.prep_sql, wl.spec, "noop", use_cache=True
        )
        assert hit.rewrite_kind == "full_cache"
        # External tables cannot be inserted into; simulate by explicit
        # invalidation, the hook a warehouse refresh would call.
        deployment.pipeline.cache.invalidate_table("carts")
        miss = deployment.pipeline.run_insql_stream(
            wl.prep_sql, wl.spec, "noop", use_cache=True
        )
        assert miss.rewrite_kind == "no_cache"


class TestModelsTrainEndToEnd:
    def test_svm_over_all_approaches(self, retail):
        deployment, wl = retail
        for runner in (
            deployment.pipeline.run_naive,
            deployment.pipeline.run_insql,
            deployment.pipeline.run_insql_stream,
        ):
            result = runner(wl.prep_sql, wl.spec, "svm_with_sgd", {"iterations": 3})
            assert result.ml_result.model.weights.shape == (4,)

    def test_label_position_with_label_not_last(self, retail):
        """The label column need not be the last projected column."""
        deployment, wl = retail
        sql = (
            "SELECT C.abandoned, U.age, U.gender, C.amount "
            "FROM carts C, users U "
            "WHERE C.userid = U.userid AND U.country = 'USA'"
        )
        result = deployment.pipeline.run_insql_stream(
            sql, wl.spec, "svm_with_sgd", {"iterations": 2}
        )
        labels = {lp.label for lp in result.ml_result.dataset.collect()}
        assert labels <= {0.0, 1.0}
        assert result.ml_result.model.weights.shape == (4,)


class TestSteadyState:
    def test_naive_ops_leave_the_dfs_file_count_unchanged(self):
        """``run_naive``'s prep, Jaql-distinct and transformed parts are
        op-scoped: after 20 ops the DFS holds what it held after setup."""
        deployment = make_deployment(block_size=64 * 1024)
        wl = generate_retail(
            deployment.engine, deployment.dfs, num_users=40, num_carts=200, seed=3
        )
        files_after_setup = len(deployment.dfs.list_files("/"))
        for _ in range(20):
            result = deployment.pipeline.run_naive(wl.prep_sql, wl.spec, "noop")
            assert result.ml_result.dataset.count() > 0
        assert len(deployment.dfs.list_files("/")) == files_after_setup
        assert deployment.dfs.listdir("/pipeline") == []
