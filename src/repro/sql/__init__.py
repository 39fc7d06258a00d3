"""A partition-parallel ("big") SQL engine with UDF extensibility.

This is the reproduction's stand-in for IBM Big SQL 3.0 / any MPP database or
SQL-on-Hadoop engine.  The paper's techniques only require two properties of
the SQL system, and this engine provides exactly them:

* **massive parallelism** — tables are partitioned across worker slots (one
  per cluster worker node); scans, filters, projections, joins (broadcast or
  repartition), DISTINCT and aggregation all execute per-partition on a
  thread pool, with exchange operators accounting shuffled bytes;
* **UDF extensibility** — scalar UDFs usable in any expression, and
  *parallel table UDFs* (``SELECT ... FROM TABLE(udf(input, args...))``) that
  see one partition at a time plus a worker context.  All of the paper's
  machinery (recoding pass 1/2, dummy coding, the streaming sender) is built
  as UDFs on this public interface, not as engine specials.

Entry point: :class:`~repro.sql.engine.BigSQL`.
"""

from repro.sql.engine import BigSQL
from repro.sql.table import Table
from repro.sql.types import Column, DataType, Schema
from repro.sql.udf import TableUDF, UdfContext

__all__ = [
    "BigSQL",
    "Column",
    "DataType",
    "Schema",
    "Table",
    "TableUDF",
    "UdfContext",
]
