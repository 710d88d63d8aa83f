"""repro.cluster — one dispatcher, executors, and the forked transport.

The paper's runtime is one host process that decides which sandbox runs
next (§5.3); here one :class:`~repro.cluster.jobs.Dispatcher` decides
what runs next and where, over two transports (DESIGN.md §12):

* :class:`Cluster` — forked worker processes: ``submit`` queues a job for
  the least-loaded worker, ``drain`` returns results by submission id,
  byte-identical however many workers ran; crashed workers restart under
  a :class:`~repro.robustness.RestartBook` and their jobs resume from
  their latest checkpoint; :meth:`Cluster.migrate` and
  :meth:`Cluster.resize` move jobs at checkpoint boundaries (§13);
* :class:`repro.serve.Gateway` — executor lanes in process, virtual time;
* an :class:`Executor` (a private :class:`~repro.runtime.Runtime` and its
  :class:`WarmPool`) runs one job at a time, in a worker or a lane;
* :class:`ImageCache` / :class:`WarmPool` — verify an image once, then
  warm-spawn clones by COW snapshot restore instead of cold load+verify.
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
