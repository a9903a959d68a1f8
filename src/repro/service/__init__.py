"""The experiment service: specs in over HTTP, probe streams out.

Everything below this package was already data — frozen JSON
:class:`~repro.experiment.ExperimentSpec`, JSONL probe sinks, mergeable
:class:`~repro.simulation.batch.BatchResult`, durable byte-identical
resume — and this package puts a long-running server in front of it:

* :mod:`repro.service.server` — a stdlib-only HTTP server
  (``repro serve``): ``POST /runs`` submits a spec (or sweep),
  ``GET /runs/<id>`` reports status and results, and
  ``GET /runs/<id>/events`` streams the run's probe payloads live over
  Server-Sent Events;
* :mod:`repro.service.streams` — the in-process event broker and the
  :class:`~repro.service.streams.ServiceSinkProbe`, the JSONL sink
  generalized to any byte stream (the SSE stream of a run equals the
  JSONL file of the same run, line for line);
* :mod:`repro.service.cache` — the content-addressed result cache keyed
  by :meth:`ExperimentSpec.fingerprint`: seeded runs are deterministic,
  so identical submissions are served from cache with zero engine
  rounds — the "millions of users" lever;
* :mod:`repro.service.jobs` — the durable job queue built on
  :class:`~repro.simulation.batch.BatchRunner`'s durable mode: worker
  crashes resume from the latest engine checkpoint, and a SIGTERM drains
  the queue gracefully after a rolling checkpoint;
* :mod:`repro.service.client` — a small blocking stdlib client
  (``repro submit`` / ``repro status`` and the test suite use it).

Everything is standard library only; importing this package registers the
``service-sink`` probe.
"""

from .cache import ResultCache, ResultsLine
from .client import ServiceClient, ServiceError
from .jobs import Job, JobStore, Submission
from .server import ExperimentService
from .streams import BROKER, EventBroker, ServiceSinkProbe

__all__ = [
    "BROKER",
    "EventBroker",
    "ExperimentService",
    "Job",
    "JobStore",
    "ResultCache",
    "ResultsLine",
    "ServiceClient",
    "ServiceError",
    "ServiceSinkProbe",
    "Submission",
]
