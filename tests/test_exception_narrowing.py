"""Blanket ``except`` sweep: typed failures degrade, defects propagate.

Each of these sites used to swallow *every* exception.  The regression
pattern is the same everywhere: plant a TypeError (the canonical "this is
a bug, not an expected failure") where the old code would have eaten it,
and assert it now surfaces; then confirm the *typed* failure the handler
exists for still takes the graceful path.
"""

import pytest

from repro import make_deployment
from repro.broker.broker import MessageBroker
from repro.broker.consumer import BrokerConsumer
from repro.broker.producer import BrokerProducer
from repro.caching import cache as cache_module
from repro.caching.cache import CacheManager
from repro.common.errors import ParseError, PlanError
from repro.sql.types import DataType, Schema
from repro.sql.vectorized import _expr_type
from repro.transform.service import TransformService
from repro.transform.spec import TransformSpec

PREP = (
    "SELECT U.age, U.gender, C.amount, C.abandoned "
    "FROM carts C, users U WHERE C.userid = U.userid AND U.country = 'USA'"
)
SPEC = TransformSpec(recode=("gender", "abandoned"), dummy=("gender",), label="abandoned")


# --------------------------------------------------------------------------
# caching/cache.py — _shape_or_none and _fresh
# --------------------------------------------------------------------------


class TestCacheNarrowing:
    def test_planted_type_error_propagates_from_lookup(
        self, users_carts, monkeypatch
    ):
        cache = CacheManager(users_carts, TransformService())

        def buggy_extract(query, engine):
            raise TypeError("planted shape-extraction defect")

        monkeypatch.setattr(cache_module, "extract_shape", buggy_extract)
        with pytest.raises(TypeError, match="planted"):
            cache.lookup_recode_map(PREP, SPEC)
        with pytest.raises(TypeError, match="planted"):
            cache.lookup_transformed(PREP, SPEC)

    def test_typed_parse_failure_still_reads_as_miss(
        self, users_carts, monkeypatch
    ):
        cache = CacheManager(users_carts, TransformService())

        def unparsable(query, engine):
            raise ParseError("not a §5 shape")

        monkeypatch.setattr(cache_module, "extract_shape", unparsable)
        assert cache.lookup_recode_map(PREP, SPEC) is None
        assert cache.stats.recode_map_misses == 1

    def test_dropped_base_table_reads_as_stale_not_crash(self, users_carts):
        from repro.transform.recode import RecodeMap

        cache = CacheManager(users_carts, TransformService())
        recode_map = RecodeMap.from_distinct_rows(
            [("gender", "F"), ("gender", "M"), ("abandoned", "Yes"), ("abandoned", "No")]
        )
        handle = cache.store_recode_map(PREP, SPEC, recode_map)
        assert cache.lookup_recode_map(PREP, SPEC) == handle
        users_carts.drop_table("carts")
        # CatalogError path: entry is stale, never a hit, never a crash.
        assert cache.lookup_recode_map(PREP, SPEC) is None

    def test_planted_type_error_propagates_from_freshness(
        self, users_carts, monkeypatch
    ):
        from repro.transform.recode import RecodeMap

        cache = CacheManager(users_carts, TransformService())
        recode_map = RecodeMap.from_distinct_rows([("gender", "F"), ("gender", "M")])
        cache.store_recode_map(PREP, SPEC, recode_map)

        def buggy_get_entry(name):
            raise TypeError("planted catalog defect")

        monkeypatch.setattr(users_carts.catalog, "get_entry", buggy_get_entry)
        with pytest.raises(TypeError, match="planted"):
            cache.lookup_recode_map(PREP, SPEC)


# --------------------------------------------------------------------------
# broker/consumer.py — _decode
# --------------------------------------------------------------------------


class TestConsumerNarrowing:
    def _filled_broker(self):
        broker = MessageBroker()
        broker.create_topic("t", 1)
        producer = BrokerProducer(broker, "t")
        for i in range(10):
            producer.send((i, f"v{i}"))
        producer.close()
        return broker

    def test_planted_decoder_defect_propagates(self, monkeypatch):
        from repro.broker import consumer as consumer_module

        broker = self._filled_broker()
        consumer = BrokerConsumer(broker, "t", 0, group="g")

        def buggy_decode(payload):
            raise TypeError("planted decoder defect")

        monkeypatch.setattr(consumer_module, "decode_block", buggy_decode)
        with pytest.raises(TypeError, match="planted"):
            consumer.poll()

    def test_corruption_signature_still_refetches(self, monkeypatch):
        from repro.broker import consumer as consumer_module
        from repro.transfer.buffers import decode_block as real_decode

        broker = self._filled_broker()
        consumer = BrokerConsumer(broker, "t", 0, group="g")
        failures = iter([True])

        def flaky_decode(payload):
            if next(failures, False):  # a bit flip: the decoder's FrameError
                payload = payload[:-1] + bytes([payload[-1] ^ 0xFF])
            return real_decode(payload)

        monkeypatch.setattr(consumer_module, "decode_block", flaky_decode)
        rows = list(consumer)
        assert consumer.refetched_records == 1
        assert sorted(rows) == [(i, f"v{i}") for i in range(10)]


# --------------------------------------------------------------------------
# sql/vectorized.py — _expr_type
# --------------------------------------------------------------------------


class TestExprTypeNarrowing:
    class _RaisingExpr:
        def __init__(self, exc):
            self._exc = exc

        def data_type(self, binder):
            raise self._exc

    def test_plan_error_reads_as_untypeable(self):
        schema = Schema.of(("a", DataType.BIGINT))
        expr = self._RaisingExpr(PlanError("does not type"))
        assert _expr_type(expr, schema) is None

    def test_planted_binder_defect_propagates(self):
        schema = Schema.of(("a", DataType.BIGINT))
        expr = self._RaisingExpr(TypeError("planted binder defect"))
        with pytest.raises(TypeError, match="planted"):
            _expr_type(expr, schema)


# --------------------------------------------------------------------------
# sql/engine.py — _estimate_table_bytes
# --------------------------------------------------------------------------


class TestEstimateNarrowing:
    SCHEMA = Schema.of(("a", DataType.BIGINT), ("b", DataType.VARCHAR))

    def test_missing_path_degrades_and_counts(self):
        deployment = make_deployment()
        engine = deployment.engine
        table = engine.register_external_table(
            "ghost", self.SCHEMA, "/no/such/path"
        )
        assert engine._estimate_table_bytes(table) == float(2**40)
        assert deployment.cluster.ledger.get("planner.estimate_fallback") == 1

    def test_planted_dfs_defect_propagates(self, monkeypatch):
        deployment = make_deployment()
        engine = deployment.engine
        table = engine.register_external_table(
            "ghost", self.SCHEMA, "/no/such/path"
        )

        def buggy_total_size(path):
            raise TypeError("planted dfs defect")

        monkeypatch.setattr(engine.dfs, "total_size", buggy_total_size)
        with pytest.raises(TypeError, match="planted"):
            engine._estimate_table_bytes(table)
        assert deployment.cluster.ledger.get("planner.estimate_fallback") == 0
