"""repro.cluster — sharded multi-worker execution with warm spawn.

The paper's runtime scales to ~64Ki sandboxes in one address space (§1/§3)
but a single interpreter thread caps throughput; this package shards
sandboxes across N OS worker processes (DESIGN.md §12):

* :class:`Cluster` — the batching front-end: ``submit`` routes jobs to the
  least-loaded worker, ``drain`` collects results deterministically
  (ordered by submission id, byte-identical however many workers ran);
* each worker runs its jobs one at a time on an :class:`Executor` (a
  private superblock :class:`~repro.runtime.Runtime` and its warm pool),
  as each lane of the serving gateway does in process;
* :class:`ImageCache` / :class:`WarmPool` — verify an image once, then
  warm-spawn clones by COW snapshot restore instead of cold load+verify;
* crashed workers are restarted by the sandbox supervisor's rule (a
  :class:`~repro.robustness.RestartBook`; bounded-jitter backoff) and
  their in-flight jobs re-dispatched from their latest checkpoint, so a
  mid-batch worker death redoes at most one checkpoint interval of work;
* :meth:`Cluster.migrate` live-migrates a running job between workers at
  a checkpoint boundary, and :meth:`Cluster.resize` grows or drains the
  pool elastically — results stay byte-identical throughout
  (DESIGN.md §13).
"""

from ..errors import ClusterError
from .cluster import Cluster, DEFAULT_CHECKPOINT_INTERVAL
from .jobs import Job, JobResult, normalize_metrics
from .snapshot import ImageCache, WarmPool
from .worker import Executor, derive_worker_seed, execute_job

__all__ = [
    "Cluster",
    "ClusterError",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "Executor",
    "Job",
    "JobResult",
    "ImageCache",
    "WarmPool",
    "derive_worker_seed",
    "execute_job",
    "normalize_metrics",
]
