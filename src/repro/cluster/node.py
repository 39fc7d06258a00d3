"""Cluster node and disk models."""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Disk:
    """A locally attached disk with sequential read/write bandwidth.

    The defaults approximate a 7.2k SATA spindle of the paper's era.
    """

    read_bps: float = 120e6
    write_bps: float = 110e6


@dataclass(frozen=True)
class Node:
    """One physical server.

    ``ip`` doubles as the locality token: InputSplit locations, coordinator
    matchmaking, and DFS block placement all compare node IPs, exactly the way
    the paper's coordinator matches SQL-worker IPs with ML-worker IPs.
    """

    node_id: int
    hostname: str
    ip: str
    cores: int = 12
    ram_bytes: int = 96 * 10**9
    disks: tuple[Disk, ...] = field(default_factory=lambda: tuple(Disk() for _ in range(12)))

    def __str__(self) -> str:  # pragma: no cover - debug convenience
        return f"{self.hostname}({self.ip})"
