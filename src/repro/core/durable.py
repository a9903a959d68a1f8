"""Durable file primitives shared by every layer that persists state.

Four operations recur across checkpoints, job records and the result
cache, and they must behave identically everywhere or the recovery story
fragments:

* :func:`atomic_write_text` — the one true atomic write.  ``write_text``
  + ``replace`` alone is atomic against *readers* but not against power
  loss: without an ``fsync`` the rename can land on disk before the data
  blocks do, leaving a correctly-named file full of garbage.  Every
  persisted artifact (run checkpoints, batch results, job records, cache
  entries) goes through this helper — a test pins that.
* :func:`sha256_hex` — the digest used for integrity checks and content
  addresses, in one place so formats cannot drift.
* :func:`with_digest` / :func:`read_digested` — self-verifying files.  A
  file that parses is not necessarily the file that was written: a
  flipped bit in a number still parses.  Checkpoints and result-cache
  entries therefore start with one header line carrying the SHA-256 of
  the text after it (``repro-sha256 <64 hex>``), and every read checks
  it, so silent damage is caught without a second file.
* :func:`quarantine` — what to do with a file that failed to parse or
  verify: move it aside (``<name>.corrupt``) with a logged reason instead
  of deleting evidence or crashing the reader.  Recovery code treats a
  quarantined artifact as absent and falls back to the next-best source
  (an older checkpoint generation, a cache miss, a fresh run).
"""

from __future__ import annotations

import hashlib
import logging
import os
import pathlib

from .errors import SpecificationError

__all__ = [
    "atomic_write_text",
    "sha256_hex",
    "with_digest",
    "read_digested",
    "quarantine",
    "DIGEST_HEADER",
    "QUARANTINE_SUFFIX",
]

#: Appended to a corrupt file's name when it is moved aside.
QUARANTINE_SUFFIX = ".corrupt"

#: Opens the header line of a self-verifying file; the line goes on with
#: the lowercase hex SHA-256 of everything after it and a newline.
DIGEST_HEADER = "repro-sha256 "

_HEADER_BYTES = DIGEST_HEADER.encode("ascii")
_HEADER_LENGTH = len(_HEADER_BYTES) + 64 + 1

_LOGGER = logging.getLogger("repro.durable")


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write ``text`` to ``path`` atomically *and* durably.

    The data is written to a sibling temporary file, flushed and
    ``fsync``-ed, then ``os.replace``-d over the target: a reader never
    observes a partial file, and a crash (or power loss) immediately
    after the rename cannot leave a correctly-named file whose data
    blocks never reached the disk.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    return path


def sha256_hex(data: str | bytes) -> str:
    """Lowercase hex SHA-256 of ``data`` (text is digested as UTF-8)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def with_digest(text: str) -> str:
    """``text`` behind the header line that lets :func:`read_digested`
    verify it; write the result with :func:`atomic_write_text`."""
    return f"{DIGEST_HEADER}{sha256_hex(text)}\n{text}"


def read_digested(path: str | pathlib.Path) -> str:
    """The text of a file written as ``with_digest(text)``, verified.

    * A header line: the bytes after it must match its digest.
    * No header, but the file starts a JSON object: a file written before
      digests were embedded.  It is checked against its ``<name>.sha256``
      sidecar when one exists, and returned unverified otherwise.
    * Anything else is rejected, so damage to the header itself never
      passes a file off as the unverified older layout.

    Raises :class:`SpecificationError` when the file fails these checks
    (and lets ``OSError`` escape for an unreadable one).
    """
    path = pathlib.Path(path)
    data = path.read_bytes()
    if data.startswith(_HEADER_BYTES):
        recorded = data[len(_HEADER_BYTES) : _HEADER_LENGTH - 1]
        body = data[_HEADER_LENGTH:]
        if data[_HEADER_LENGTH - 1 : _HEADER_LENGTH] != b"\n":
            raise SpecificationError(f"malformed integrity header in {path}")
    elif data.startswith(b"{"):
        recorded, body = _legacy_sidecar(path), data
    else:
        raise SpecificationError(
            f"{path} has neither an integrity header nor a JSON object"
        )
    if recorded is not None and recorded != sha256_hex(body).encode("ascii"):
        raise SpecificationError(
            f"integrity digest mismatch for {path} (the file's bytes are not "
            "the bytes that were written)"
        )
    try:
        return body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise SpecificationError(f"{path} is not valid UTF-8: {error}") from error


def _legacy_sidecar(path: pathlib.Path) -> bytes | None:
    """The digest an older writer kept beside ``path`` in ``<name>.sha256``
    (None when there is none: a crash could land between the two writes)."""
    try:
        recorded = path.with_name(path.name + ".sha256").read_bytes().strip()
    except FileNotFoundError:
        return None
    return recorded or None


def quarantine(path: str | pathlib.Path, reason: str) -> pathlib.Path | None:
    """Move a corrupt file aside as ``<name>.corrupt`` and log why.

    Returns the quarantined path, or None when the file vanished first
    (another recovering process may have quarantined it already — both
    outcomes leave the original name free, which is all callers need).
    """
    path = pathlib.Path(path)
    quarantined = path.with_name(path.name + QUARANTINE_SUFFIX)
    try:
        os.replace(path, quarantined)
    except OSError:
        return None
    _LOGGER.warning("quarantined %s: %s", quarantined, reason)
    return quarantined
