"""Integrity-checked JSON artifacts: checksummed, versioned, atomic.

Every persistent artifact the campaign layer trusts across process
boundaries — machine checkpoints, campaign resume checkpoints, shard
spill files, manifests, service results — is written through this
module.  The on-disk form is an *envelope*, one line of JSON with sorted
keys::

    {"payload": {...}, "schema": "repro.machine-state", "schema_version": 3, "sha256": "<hex>"}

``payload`` is the actual content, ``schema`` and ``schema_version`` name
the artifact family and its version, and ``sha256`` is the digest of the
canonical payload serialisation (``json.dumps(payload, sort_keys=True)``).
The payload is stored *as* that canonical text, so one encode serves
both the checksum and the file body, and the file is exactly
``json.dumps(envelope, sort_keys=True)``.  The checksum is independent of
the envelope's own formatting, so envelopes written indented by earlier
versions still read.  Writes are atomic (temp file + ``os.replace``),
so a crash mid-write leaves either the old artifact or none — never a
torn one.  Reads verify the envelope shape, schema name, schema version
and checksum, raising :class:`~repro.errors.CheckpointCorruptionError`
with a machine-readable ``reason`` on any failure; owners translate that
into "rebuild" (re-simulate a machine checkpoint, requeue campaign
entries) and record an incident, rather than trusting corrupt bytes.

Nothing in an envelope is time- or host-dependent: two processes writing
the same payload produce byte-identical files, preserving the sharded ==
serial determinism contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from repro.errors import CheckpointCorruptionError

#: Version of the envelope format itself (not of any payload schema).
INTEGRITY_VERSION = 1

_ENVELOPE_KEYS = {"schema", "schema_version", "sha256", "payload"}


def canonical_payload(payload: object) -> str:
    """The canonical serialisation the checksum is computed over."""
    return json.dumps(payload, sort_keys=True)


def payload_checksum(payload: object) -> str:
    """SHA-256 hex digest of the canonical payload serialisation."""
    return _digest(canonical_payload(payload))


def _digest(canonical: str) -> str:
    return hashlib.sha256(canonical.encode()).hexdigest()


def wrap_artifact(canonical: str, schema: str, schema_version: int) -> str:
    """The envelope text around a payload's :func:`canonical_payload` text.

    Deterministic bytes, equal to ``json.dumps(envelope, sort_keys=True)``
    but without encoding the payload a second time.
    """
    return (
        f'{{"payload": {canonical}, "schema": {json.dumps(schema)}, '
        f'"schema_version": {json.dumps(schema_version)}, '
        f'"sha256": "{_digest(canonical)}"}}'
    )


def write_artifact(
    path: str | Path, payload: object, schema: str, schema_version: int
) -> Path:
    """Atomically write an integrity-checked artifact."""
    return write_canonical(path, canonical_payload(payload), schema, schema_version)


def write_canonical(
    path: str | Path, canonical: str, schema: str, schema_version: int
) -> Path:
    """:func:`write_artifact` for a payload already in canonical text.

    For callers that need the encoding themselves first (a machine state
    validates the very text it writes).
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = wrap_artifact(canonical, schema, schema_version)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def unwrap_artifact(text: str, schema: str, schema_version: int, source: object = None):
    """Validate an envelope's text and return its payload.

    Raises :class:`CheckpointCorruptionError` with ``reason`` one of
    ``not-json | bad-envelope | wrong-schema | wrong-version |
    checksum-mismatch``.
    """
    try:
        envelope = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'} is not valid JSON: {exc}",
            path=source,
            reason="not-json",
        ) from exc
    if not isinstance(envelope, dict) or not _ENVELOPE_KEYS.issubset(envelope):
        missing = sorted(_ENVELOPE_KEYS - set(envelope)) if isinstance(envelope, dict) else []
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'} has no integrity envelope "
            f"(missing {missing or 'object structure'})",
            path=source,
            reason="bad-envelope",
        )
    if envelope["schema"] != schema:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: schema {envelope['schema']!r} "
            f"(expected {schema!r})",
            path=source,
            reason="wrong-schema",
        )
    if envelope["schema_version"] != schema_version:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: schema version "
            f"{envelope['schema_version']!r} (expected {schema_version})",
            path=source,
            reason="wrong-version",
        )
    payload = envelope["payload"]
    digest = payload_checksum(payload)
    if digest != envelope["sha256"]:
        raise CheckpointCorruptionError(
            f"artifact {source or '<text>'}: checksum mismatch "
            f"(stored {str(envelope['sha256'])[:12]}…, computed {digest[:12]}…) — "
            f"content is corrupt",
            path=source,
            reason="checksum-mismatch",
        )
    return payload


def read_artifact(path: str | Path, schema: str, schema_version: int):
    """Read and validate an integrity-checked artifact; returns the payload.

    Raises :class:`CheckpointCorruptionError` — ``reason="missing"`` when
    the file does not exist, ``reason="unreadable"`` when it cannot be
    read at all.  Callers should read-and-catch rather than probe with
    ``exists()`` first: the single attempt has no TOCTOU window against
    concurrent writers or cleaners.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError as exc:
        raise CheckpointCorruptionError(
            f"artifact {path} does not exist", path=path, reason="missing"
        ) from exc
    except OSError as exc:
        raise CheckpointCorruptionError(
            f"artifact {path} unreadable: {exc}", path=path, reason="unreadable"
        ) from exc
    return unwrap_artifact(text, schema, schema_version, source=path)
