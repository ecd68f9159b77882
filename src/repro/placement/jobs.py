"""Split job records and their durable catalog.

A region split is the one placement operation with a dangerous middle:
between "parent closed" and "daughters registered" no server may serve
the key range.  The manager makes that middle crash-safe the same way
``repro.ddl`` makes backfills crash-safe — by persisting the intent
(parent, split key, daughter names) to the SimHDFS meta namespace
*before* acting, and committing the layout surgery atomically (no
simulated-time yields) afterwards.  A crash anywhere in between leaves
the parent in the layout and the job record PENDING; resuming the job
simply retries the close (idempotent — a region already closed on its
hosting server reports success) and then commits.

Migrations need no record: every step of a move leaves the cluster in a
state recovery already handles (the region is either in the layout on
its source, or reopened on a live server before the layout changes).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Any, Generator, List, Optional, TYPE_CHECKING

from repro.errors import StorageError
from repro.sim.kernel import Timeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hdfs import SimHDFS

__all__ = ["SplitPhase", "SplitJob", "SplitCatalog", "SPLIT_PREFIX"]

SPLIT_PREFIX = "placement/split/"


class SplitPhase(enum.Enum):
    PENDING = "pending"   # intent persisted; close/commit not yet done
    DONE = "done"         # daughters in the layout, parent retired
    FAILED = "failed"     # abandoned (e.g. the table was dropped)


@dataclasses.dataclass
class SplitJob:
    """Durable record of one region split (PENDING -> DONE | FAILED)."""

    job_id: str
    table: str
    parent_region: str
    split_key_hex: str
    left_region: str
    right_region: str
    phase: SplitPhase = SplitPhase.PENDING
    # Fencing token, bumped on resume, exactly like DdlJob.owner_token:
    # a superseded runner notices at its next checkpoint and exits.
    owner_token: int = 0
    attempts: int = 0
    requested_at: float = 0.0
    finished_at: float = 0.0
    error: Optional[str] = None

    @property
    def split_key(self) -> bytes:
        return bytes.fromhex(self.split_key_hex)

    @property
    def is_terminal(self) -> bool:
        return self.phase is not SplitPhase.PENDING

    def wait(self, poll_ms: float = 5.0) -> Generator[Any, Any, "SplitJob"]:
        """Sim-time wait until the job reaches a terminal phase."""
        while not self.is_terminal:
            yield Timeout(poll_ms)
        return self

    # -- persistence --------------------------------------------------------

    def to_record(self) -> dict:
        record = dataclasses.asdict(self)
        record["phase"] = self.phase.value
        return record

    @classmethod
    def from_record(cls, record: dict) -> "SplitJob":
        data = dict(record)
        data["phase"] = SplitPhase(data["phase"])
        return cls(**data)


class SplitCatalog:
    """Split-job documents in the SimHDFS meta namespace (like the DDL
    job catalog, the record survives any region server's death)."""

    def __init__(self, hdfs: "SimHDFS"):
        self.hdfs = hdfs

    def _key(self, job_id: str) -> str:
        return SPLIT_PREFIX + job_id

    def save(self, job: SplitJob) -> None:
        self.hdfs.put_meta(self._key(job.job_id), job.to_record())

    def load(self, job_id: str) -> SplitJob:
        return SplitJob.from_record(self.hdfs.get_meta(self._key(job_id)))

    def load_all(self) -> List[SplitJob]:
        jobs = []
        for key in self.hdfs.list_meta(SPLIT_PREFIX):
            try:
                jobs.append(SplitJob.from_record(self.hdfs.get_meta(key)))
            except StorageError:  # pragma: no cover - racing delete
                continue
        return jobs

    def delete(self, job_id: str) -> None:
        self.hdfs.delete_meta(self._key(job_id))
