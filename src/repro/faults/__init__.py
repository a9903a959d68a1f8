"""Deterministic fault injection and the self-healing it proves out.

The subsystem has two halves that meet in the middle:

* **injection** — a seeded, JSON-declarable :class:`FaultPlan` whose
  entries target every seam of the infrastructure: worker crashes at a
  chosen round (:class:`FaultCrashProbe`), checkpoint/cache file
  corruption (:func:`corrupt_file`), flaky HTTP service behaviour and
  mid-stream SSE disconnects (:class:`HTTPFaultHook`,
  :class:`ClientFaultHook`);
* **healing** — the uniform :class:`RetryPolicy` (exponential backoff,
  deterministic jitter) used by the service client and the batch layer,
  self-verifying checkpoints with generation fallback
  (:func:`~repro.simulation.checkpoint.load_newest_verified`), and
  quarantine-instead-of-crash reads everywhere persisted state is
  loaded.

:func:`run_chaos` (the ``repro chaos`` command) drives a plan end to
end and checks the headline guarantee: a run that completes under an
injected fault plan is **byte-identical** to the unfaulted run, and the
same ``--fault-seed`` replays the same faults everywhere.
"""

from .corrupt import CORRUPTION_MODES, corrupt_file
from .plan import FAULT_KINDS, ClientFaultHook, FaultPlan, HTTPFaultHook
from .probes import FaultCrashProbe, InjectedFault, reset_crash_counters
from .retry import RetryPolicy
from .chaos import CHAOS_MODES, run_chaos

__all__ = [
    "CHAOS_MODES",
    "CORRUPTION_MODES",
    "ClientFaultHook",
    "FAULT_KINDS",
    "FaultCrashProbe",
    "FaultPlan",
    "HTTPFaultHook",
    "InjectedFault",
    "RetryPolicy",
    "corrupt_file",
    "reset_crash_counters",
    "run_chaos",
]
