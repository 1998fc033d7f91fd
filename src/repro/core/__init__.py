"""Core of the reproduction: the CrowdData abstraction and CrowdContext.

A crowdsourcing experiment is a sequence of manipulations of a tabular
dataset (CrowdData).  Task and result columns are persisted through the
fault-recovery cache so that re-running a program — after a crash, or on a
collaborator's machine with the shared database file — behaves as if the
program had never stopped: no task is ever re-published, no answer is ever
re-collected, and every manipulation is recorded for later examination.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "CrowdContext": "context",
    "CrowdData": "crowddata",
    "FaultRecoveryCache": "cache",
    "AnswerLineage": "lineage",
    "LineageQuery": "lineage",
    "Manipulation": "manipulations",
    "ManipulationLog": "manipulations",
    "ExperimentSession": "session",
    "BudgetTracker": "budget",
    "BudgetExceededError": "budget",
    "ExperimentExporter": "export",
}

__all__ = [*_EXPORTS]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
