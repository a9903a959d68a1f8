"""The content-addressed result cache: the "millions of users" lever.

Seeded experiment specs are deterministic end to end (PRs 1–5 pin this
byte for byte), so a run's results are a pure function of the spec — and
:meth:`ExperimentSpec.fingerprint` (SHA-256 of the canonical spec JSON)
is a usable content address for them.  The cache maps fingerprints to
the per-seed result dictionaries a completed job produced:

* **read-through** — ``POST /runs`` consults the cache before queuing;
  a hit answers with byte-identical result JSON and *zero* engine
  rounds, turning repeat traffic into O(1) disk lookups;
* **write-behind** — the job queue stores every successful run's results
  after completion, atomically and durably
  (:func:`~repro.core.durable.atomic_write_text`), so a crash mid-write
  never leaves a readable-but-corrupt entry.  Each entry carries the
  SHA-256 of its own JSON (:func:`~repro.core.durable.with_digest`), so
  silent damage after the write is caught too.

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
from typing import Any

from ..core.durable import atomic_write_text, quarantine, read_digested, with_digest
from ..core.errors import SpecificationError

__all__ = ["ResultCache"]

#: ``format`` key identifying a cache entry file.
ENTRY_FORMAT = "repro-cache-entry"


class ResultCache:
    """A directory of result JSON keyed by spec fingerprint.

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

    def get(self, fingerprint: str) -> dict | None:
        """The stored entry for ``fingerprint``, or None (counts hit/miss).

        A file that fails its digest or does not parse as a cache entry —
        disk corruption, a foreign file under the cache's name — is
        quarantined, counted under ``corrupt`` and reported as a miss,
        never raised: one bad sector must cost one re-execution, not the
        service.
        """
        path = self._path(fingerprint)
        try:
            entry = json.loads(read_digested(path))
            if not isinstance(entry, dict) or entry.get("format") != ENTRY_FORMAT:
                found = entry.get("format") if isinstance(entry, dict) else entry
                raise ValueError(f"not a result cache entry (format {found!r})")
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
        return entry

    def put(self, fingerprint: str, spec: dict, results: list[dict]) -> dict:
        """Store one completed job's per-seed results under its fingerprint.

        The write is atomic and last-writer-wins; since the key is a
        content address of a deterministic computation, concurrent
        writers are by construction writing the same value.
        """
        entry = {
            "format": ENTRY_FORMAT,
            "fingerprint": fingerprint,
            "spec": spec,
            "results": results,
        }
        path = self._path(fingerprint)
        created = not path.exists()
        atomic_write_text(path, with_digest(json.dumps(entry)))
        if created:
            with self._lock:
                self.entries += 1
        return entry

    def stats(self) -> dict[str, Any]:
        """Hit/miss/corruption counters plus the number of persisted entries."""
        with self._lock:
            return {
                "entries": self.entries,
                "hits": self.hits,
                "misses": self.misses,
                "corrupt": self.corrupt,
            }
