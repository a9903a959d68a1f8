"""Finite-trace temporal logic used to check the paper's specifications."""

from .formulas import (
    always,
    eventually,
    eventually_always,
    holds_at_end,
    infinitely_often,
    invariant,
    leads_to,
    never,
    stable,
    until,
)
from .online import OnlineFormula, OPERATORS, online
from .trace import CountedTrace, Trace

__all__ = [
    "Trace",
    "CountedTrace",
    "OnlineFormula",
    "OPERATORS",
    "online",
    "always",
    "eventually",
    "eventually_always",
    "holds_at_end",
    "infinitely_often",
    "invariant",
    "leads_to",
    "never",
    "stable",
    "until",
]
