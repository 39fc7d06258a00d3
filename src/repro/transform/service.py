"""Registry of recode maps, shared between SQL UDF invocations.

Table-UDF arguments must be constants (that is true in real engines too), so
the recode/dummy UDFs receive a *handle* string and resolve the actual
:class:`~repro.transform.recode.RecodeMap` through this service — the moral
equivalent of a real UDF reading its side data from a shared location.
"""

import threading

from repro.common.errors import ExecutionError


class TransformService:
    """Thread-safe name -> RecodeMap registry."""

    def __init__(self):
        self._maps: dict[str, object] = {}
        self._lock = threading.Lock()

    def register(self, handle: str, recode_map) -> None:
        """Store a map under a handle (overwrites: rebuilds are legitimate)."""
        with self._lock:
            self._maps[handle] = recode_map

    def get(self, handle: str):
        """Resolve a handle; raises with the known handles on a miss."""
        with self._lock:
            recode_map = self._maps.get(handle)
        if recode_map is None:
            raise ExecutionError(
                f"unknown recode map handle {handle!r}; registered: "
                f"{sorted(self._maps)}"
            )
        return recode_map
