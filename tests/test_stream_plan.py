"""The stream sink's block plan.

``plan_blocks`` is a plan over row indices; the per-row loop it replaced
stays here as the oracle.  That every block size and transport streams the
same bytes and trains the same model is
``test_row_blocks.py::TestMlBoundaryByteIdentity``.
"""

from hypothesis import given, settings, strategies as st

from repro.transfer.stream_udf import plan_blocks


def row_plan_blocks(partition, k, batch_rows):
    """The per-row planner: row i joins channel ``i % k``'s pending block,
    a block is sent when it fills, and each channel's partial block is
    flushed at EOF, in channel order."""
    batch_rows = max(batch_rows, 1)
    pending = [[] for _ in range(k)]
    next_seq = [0] * k
    blocks = []
    for i, row in enumerate(partition):
        target = i % k
        batch = pending[target]
        batch.append(row)
        if len(batch) >= batch_rows:
            blocks.append((target, next_seq[target], list(batch)))
            next_seq[target] += 1
            batch.clear()
    for target, batch in enumerate(pending):
        if batch:
            blocks.append((target, next_seq[target], list(batch)))
    return blocks


@settings(max_examples=300, deadline=None)
@given(
    num_rows=st.integers(0, 200), k=st.integers(1, 9), batch_rows=st.integers(0, 40)
)
def test_index_plan_equals_the_row_plan(num_rows, k, batch_rows):
    planned = [
        (target, seq, rows.tolist())
        for target, seq, rows in plan_blocks(num_rows, k, batch_rows)
    ]
    assert planned == row_plan_blocks(range(num_rows), k, batch_rows)

