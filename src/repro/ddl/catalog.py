"""The durable DDL job catalog.

Job records are JSON-able documents in the SimHDFS meta namespace —
the stand-in for an HBase meta table row per job.  SimHDFS is owned by
the cluster object and survives any region server's death, which is the
whole point: the job state a crashed backfill needs to resume from is
never co-located with the process doing the backfilling.
"""

from __future__ import annotations

from typing import List, TYPE_CHECKING

from repro.errors import StorageError
from repro.ddl.jobs import DdlJob

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.hdfs import SimHDFS

__all__ = ["JobCatalog", "CATALOG_PREFIX"]

CATALOG_PREFIX = "ddl/"


class JobCatalog:
    def __init__(self, hdfs: "SimHDFS"):
        self.hdfs = hdfs

    def _key(self, job_id: str) -> str:
        return CATALOG_PREFIX + job_id

    def save(self, job: DdlJob) -> None:
        """Checkpoint the job (phase transitions and chunk rounds)."""
        self.hdfs.put_meta(self._key(job.job_id), job.to_record())

    def load(self, job_id: str) -> DdlJob:
        return DdlJob.from_record(self.hdfs.get_meta(self._key(job_id)))

    def load_all(self) -> List[DdlJob]:
        jobs = []
        for key in self.hdfs.list_meta(CATALOG_PREFIX):
            try:
                jobs.append(DdlJob.from_record(self.hdfs.get_meta(key)))
            except StorageError:  # pragma: no cover - racing delete
                continue
        return jobs
