"""Supporting Server Infrastructure: untrusted but highly available.

One record per posted query (its querybox included), temporary storage,
partitioning strategies, partition lifecycle tracking and the
honest-but-curious observation log.
"""

from repro.ssi.observer import Observation, Observer
from repro.ssi.partitioner import RandomPartitioner, TagPartitioner
from repro.ssi.server import SupportingServerInfrastructure
from repro.ssi.storage import PartitionState, PartitionTracker, QueryStorage

__all__ = [
    "Observation",
    "Observer",
    "PartitionState",
    "PartitionTracker",
    "QueryStorage",
    "RandomPartitioner",
    "SupportingServerInfrastructure",
    "TagPartitioner",
]
