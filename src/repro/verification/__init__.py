"""Executable versions of the paper's proof obligations and specifications."""

from .conservation import SpecificationReport, check_specification
from .escape import EscapeAuditReport, audit_escape_obligation, can_escape
from .local_global import (
    GroupTransition,
    LocalToGlobalViolation,
    check_composition,
    search_local_to_global_violation,
)
from .model_checker import ModelCheckReport, explore_reachable_states
from .oracle import TextbookReplay
from .superidempotence import SuperIdempotenceReport, audit_super_idempotence

__all__ = [
    "SpecificationReport",
    "check_specification",
    "EscapeAuditReport",
    "audit_escape_obligation",
    "can_escape",
    "GroupTransition",
    "LocalToGlobalViolation",
    "check_composition",
    "search_local_to_global_violation",
    "ModelCheckReport",
    "explore_reachable_states",
    "TextbookReplay",
    "SuperIdempotenceReport",
    "audit_super_idempotence",
]
