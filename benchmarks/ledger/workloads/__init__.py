"""The six ledger workloads, in the order the ledger runs them."""

from .call_heavy import CallHeavy
from .cluster_drain import ClusterDrain
from .cold_start import ColdStart
from .exec_steady import ExecSteady
from .serve_overload import ServeOverload
from .toolchain import Toolchain

WORKLOADS = {w.NAME: w for w in (ExecSteady(), CallHeavy(), ColdStart(),
                                 Toolchain(), ServeOverload(),
                                 ClusterDrain())}

__all__ = ["WORKLOADS"]
