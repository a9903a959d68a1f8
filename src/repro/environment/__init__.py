"""Environment models for dynamic distributed systems.

The environment is the half of the paper's model the designer cannot
control: it decides which agents are enabled and which links are available
in each round.  This package provides the fixed communication topologies
(``Q_E`` graphs), stochastic dynamics, adversaries and a mobility model.
"""

from .adversary import (
    BlackoutAdversary,
    EdgeBudgetAdversary,
    RotatingPartitionAdversary,
    TargetedCrashAdversary,
)
from .base import (
    Environment,
    EnvironmentState,
    Topology,
    connected_components,
)
from .dynamics import (
    MarkovChurnEnvironment,
    PeriodicDutyCycleEnvironment,
    RandomChurnEnvironment,
    StaticEnvironment,
)
from .graphs import (
    complete_graph,
    grid_graph,
    line_graph,
    random_connected_graph,
    random_graph,
    ring_graph,
    star_graph,
    tree_graph,
)
from .mobility import MobileAgent, RandomWaypointEnvironment

__all__ = [
    "BlackoutAdversary",
    "EdgeBudgetAdversary",
    "RotatingPartitionAdversary",
    "TargetedCrashAdversary",
    "Environment",
    "EnvironmentState",
    "Topology",
    "connected_components",
    "MarkovChurnEnvironment",
    "PeriodicDutyCycleEnvironment",
    "RandomChurnEnvironment",
    "StaticEnvironment",
    "complete_graph",
    "grid_graph",
    "line_graph",
    "random_connected_graph",
    "random_graph",
    "ring_graph",
    "star_graph",
    "tree_graph",
    "MobileAgent",
    "RandomWaypointEnvironment",
]
