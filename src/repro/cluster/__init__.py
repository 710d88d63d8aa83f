"""repro.cluster — sharded multi-worker execution with warm spawn.

The paper's runtime scales to ~64Ki sandboxes in one address space (§1/§3)
but a single interpreter thread caps throughput; this package shards
sandboxes across N OS worker processes (DESIGN.md §12):

* :class:`Cluster` — the batching front-end: ``submit`` routes jobs to the
  least-loaded worker, ``drain`` collects results deterministically
  (ordered by submission id, byte-identical however many workers ran);
* each worker owns a private :class:`~repro.runtime.Runtime` with the
  superblock engine and executes its jobs sequentially;
* :class:`ImageCache` / :class:`WarmPool` — verify an image once, then
  warm-spawn clones by COW snapshot restore instead of cold load+verify;
* crashed workers are restarted by a
  :class:`~repro.robustness.WorkerSupervisor` (bounded-jitter exponential
  backoff) and their in-flight jobs re-dispatched from their latest
  checkpoint, so a mid-batch worker death redoes at most one checkpoint
  interval of work and loses no jobs;
* :meth:`Cluster.migrate` live-migrates a running job between workers at
  a checkpoint boundary, and :meth:`Cluster.resize` grows or drains the
  pool elastically — results stay byte-identical throughout
  (DESIGN.md §13).
"""

from ..errors import ClusterError
from .cluster import Cluster, DEFAULT_CHECKPOINT_INTERVAL
from .jobs import Job, JobResult, normalize_metrics
from .snapshot import ImageCache, WarmPool
from .worker import derive_worker_seed, execute_job

__all__ = [
    "Cluster",
    "ClusterError",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "Job",
    "JobResult",
    "ImageCache",
    "WarmPool",
    "derive_worker_seed",
    "execute_job",
    "normalize_metrics",
]
