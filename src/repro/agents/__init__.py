"""Groups of agents and the schedulers that decide which groups act.

An agent is an id with a state: engines keep the states in one list
indexed by agent id, and a :class:`Group` reads and writes its members'
entries of that list.
"""

from .group import Group
from .scheduler import (
    MaximalGroupsScheduler,
    RandomPairScheduler,
    RandomSubgroupScheduler,
    Scheduler,
    SingleGroupScheduler,
)

__all__ = [
    "Group",
    "MaximalGroupsScheduler",
    "RandomPairScheduler",
    "RandomSubgroupScheduler",
    "Scheduler",
    "SingleGroupScheduler",
]
