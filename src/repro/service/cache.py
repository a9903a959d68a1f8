"""The content-addressed result cache: the "millions of users" lever.

Seeded experiment specs are deterministic end to end (the test suite pins
this byte for byte), so a run's results are a pure function of the spec — and
:meth:`ExperimentSpec.fingerprint` (SHA-256 of the canonical spec JSON)
is a usable content address for them.  The cache maps fingerprints to
the :class:`ResultsLine` a completed job produced: its per-seed results
as one compact JSON line, encoded once by the worker.

* **read-through** — ``POST /runs`` consults the cache before queuing;
  a hit verifies the entry's digest and hands the line, as read, to the
  new job's one durable write (its ``job.json``).  Nothing on a hit
  parses or re-encodes the results, and no engine round runs;
* **write-behind** — the job queue stores every successful run's results
  after completion, atomically and durably
  (:func:`~repro.core.durable.atomic_write_text`), so a crash mid-write
  never leaves a readable-but-corrupt entry.

An entry is ``with_digest(line)``: a ``repro-sha256 <64 hex>`` header
line carrying the SHA-256 of the results line, then the line, so silent
damage after the write is caught too, and the header's digest is the one
the job record carries.  Entries written before the results line (one
JSON object holding ``format``, ``fingerprint``, ``spec`` and
``results``, with or without the header) are still served: they are
parsed and their results encoded as a line.

Entries are sharded two hex characters deep (``cache/ab/abcdef....json``)
so a hot cache never piles a million files into one directory.

A cache is allowed to forget; it is never allowed to lie or to crash its
reader.  An entry that fails its digest or no longer parses — truncated,
bit-flipped, emptied — is treated as a miss: the file is quarantined
(``.corrupt``) with a logged reason, the ``corrupt`` counter ticks, and
the submission simply re-executes (determinism guarantees the
re-computed entry is byte-identical to what the corrupt file should have
held).
"""

from __future__ import annotations

import json
import pathlib
import threading
from dataclasses import dataclass
from typing import Any

from ..core.durable import (
    atomic_write_text,
    quarantine,
    read_digested,
    sha256_hex,
    with_digest,
)
from ..core.errors import SpecificationError

__all__ = ["ResultCache", "ResultsLine"]

#: ``format`` key of a cache entry written as one JSON object, before
#: entries held the results line alone.
ENTRY_FORMAT = "repro-cache-entry"


@dataclass(frozen=True)
class ResultsLine:
    """A finished job's per-seed results as one compact JSON line.

    ``text`` is ``json.dumps(results)``; ``sha256`` is its digest.  The
    cache entry and the job's ``job.json`` both hold these exact bytes.
    """

    text: str
    sha256: str

    @classmethod
    def encode(cls, results: list) -> "ResultsLine":
        text = json.dumps(results)
        return cls(text, sha256_hex(text))


def _entry_results(text: str) -> list:
    """The results of an entry written as one JSON object."""
    entry = json.loads(text)
    if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
        found = entry.get("format") if isinstance(entry, dict) else entry
        raise ValueError(f"not a result cache entry (format {found!r})")
    results = entry.get("results")
    if not isinstance(results, list):
        raise ValueError("a result cache entry without a results list")
    return results


class ResultCache:
    """A directory of results lines keyed by spec fingerprint.

    The entry count is taken once at construction and then kept by
    :meth:`put` and :meth:`get` (the files they create and quarantine),
    so :meth:`stats` costs the same whatever the cache holds.  Files
    removed behind the cache's back stay counted until the next start.
    """

    def __init__(self, directory: str | pathlib.Path):
        self.directory = pathlib.Path(directory)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.entries = sum(1 for _ in self.directory.glob("*/*.json"))

    def _path(self, fingerprint: str) -> pathlib.Path:
        if not fingerprint or any(c not in "0123456789abcdef" for c in fingerprint):
            raise SpecificationError(
                f"not a spec fingerprint: {fingerprint!r} (expected the "
                "lowercase hex SHA-256 of the canonical spec JSON)"
            )
        return self.directory / fingerprint[:2] / f"{fingerprint}.json"

    def __contains__(self, fingerprint: str) -> bool:
        return self._path(fingerprint).exists()

    def get(self, fingerprint: str) -> ResultsLine | None:
        """The stored results line for ``fingerprint``, or None (counts
        hit/miss).

        A line is returned as read once its digest verifies.  A file that
        fails its digest or does not parse as a cache entry — disk
        corruption, a foreign file under the cache's name — is
        quarantined, counted under ``corrupt`` and reported as a miss,
        never raised: one bad sector must cost one re-execution, not the
        service.
        """
        path = self._path(fingerprint)
        try:
            text = read_digested(path)
            if text.startswith("["):
                line = ResultsLine(text, sha256_hex(text))
            else:
                line = ResultsLine.encode(_entry_results(text))
        except OSError:
            with self._lock:
                self.misses += 1
            return None
        except (ValueError, SpecificationError) as error:
            moved = quarantine(path, f"corrupt result-cache entry: {error}")
            with self._lock:
                self.corrupt += 1
                self.misses += 1
                if moved is not None:
                    self.entries -= 1
            return None
        with self._lock:
            self.hits += 1
        return line

    def put(self, fingerprint: str, line: ResultsLine) -> None:
        """Store one completed job's results line under its fingerprint.

        The write is atomic and last-writer-wins; since the key is a
        content address of a deterministic computation, concurrent
        writers are by construction writing the same value.
        """
        path = self._path(fingerprint)
        created = not path.exists()
        atomic_write_text(path, with_digest(line.text))
        if created:
            with self._lock:
                self.entries += 1

    def stats(self) -> dict[str, Any]:
        """Hit/miss/corruption counters plus the number of persisted entries."""
        with self._lock:
            return {
                "entries": self.entries,
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
            }
