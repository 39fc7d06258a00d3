"""bench_e2e — the repo's one end-to-end benchmark (see README.md here).

Five workloads drive the public surface of a ``make_deployment()`` and every
result is checked against a numpy-only reference.  End-to-end metrics come
from untraced rounds; a separate traced round attributes the time to the
``src/repro`` layers.  Only :mod:`bench_e2e.adapter` imports ``repro``.
"""

from pathlib import Path

#: the checkout the benchmark runs in, and the only place it writes to
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
