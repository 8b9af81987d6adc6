"""Machine-state checkpointing built on the SimComponent protocol.

A :class:`MachineState` is a versioned, JSON-safe capture of one simulated
core: the CPU/mechanism *configuration* (so a fresh machine can be rebuilt
from the file alone), the composite component snapshot, and the trace
position the capture was taken at.

The intended use is warm-up reuse: a run simulates startup + warm-up once,
captures a checkpoint, and later runs with the *identical machine
configuration* restore it instead of re-simulating — the trace generator
is advanced to the same position by draining (see
:meth:`repro.trace.engine.TraceCursor.drain`), which is far cheaper than
simulating, and the measurement window then produces counter-for-counter
identical results.  :class:`CheckpointStore` keys checkpoints by a hash of
everything that determines warm-up state, so mismatched configurations can
never share state.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.core.config import MechanismConfig
from repro.core.mechanism import TrampolineSkipMechanism
from repro.errors import CheckpointCorruptionError, ConfigError
from repro.resilience.incidents import IncidentKind
from repro.resilience.integrity import canonical_payload, read_artifact, write_canonical
from repro.uarch.cpu import CPU, CPUConfig

#: Schema version of serialised machine states.  Version 2: embeds the
#: version-2 CPU snapshot (Bloom filter key set).  Version 3: embeds the
#: version-3 CPU snapshot (cycles derived from the counters).  The
#: version is part of every checkpoint key, so older machines miss by key;
#: a stale file found anyway is rejected on load, which
#: :class:`CheckpointStore` treats as a miss.
MACHINE_STATE_VERSION = 3

#: Integrity-envelope schema name for on-disk machine states.
MACHINE_STATE_SCHEMA = "repro.machine-state"


@dataclass
class MachineState:
    """One core's complete simulation state, rebuildable from JSON.

    Attributes:
        version: schema version (:data:`MACHINE_STATE_VERSION`).
        cpu_config: :meth:`CPUConfig.as_dict` of the captured machine.
        mechanism_config: mechanism config dict, or None for a base CPU.
        cpu: the composite :meth:`CPU.snapshot` payload.
        trace_position: events consumed from the trace when captured.
        meta: free-form caller context (workload name, warm-up size, ...).
    """

    cpu_config: dict
    cpu: dict
    mechanism_config: dict | None = None
    trace_position: int = 0
    meta: dict = field(default_factory=dict)
    version: int = MACHINE_STATE_VERSION

    # ------------------------------------------------------------- capture

    @classmethod
    def capture(
        cls,
        cpu: CPU,
        trace_position: int = 0,
        meta: dict | None = None,
    ) -> "MachineState":
        """Snapshot a live CPU (and its mechanism, if any)."""
        return cls(
            cpu_config=cpu.config.as_dict(),
            mechanism_config=(
                asdict(cpu.mechanism.config) if cpu.mechanism is not None else None
            ),
            cpu=cpu.snapshot(),
            trace_position=trace_position,
            meta=dict(meta or {}),
        )

    # ------------------------------------------------------------- restore

    def restore_into(self, cpu: CPU) -> None:
        """Restore this state into an already-built, matching CPU."""
        if self.version != MACHINE_STATE_VERSION:
            raise ConfigError(
                f"machine state version {self.version!r} unsupported "
                f"(expected {MACHINE_STATE_VERSION})"
            )
        if cpu.config.as_dict() != self.cpu_config:
            raise ConfigError(
                "machine state was captured under a different CPUConfig; "
                "refusing to restore"
            )
        mech_cfg = (
            asdict(cpu.mechanism.config) if cpu.mechanism is not None else None
        )
        if mech_cfg != self.mechanism_config:
            raise ConfigError(
                "machine state was captured under a different mechanism "
                "configuration; refusing to restore"
            )
        cpu.restore(self.cpu)

    def build_cpu(self, hooks=None, registry=None) -> CPU:
        """Rebuild a fresh CPU from the stored configs and restore into it."""
        config = CPUConfig.from_dict(self.cpu_config)
        mechanism = None
        if self.mechanism_config is not None:
            mechanism = TrampolineSkipMechanism(MechanismConfig(**self.mechanism_config))
        cpu = CPU(config, mechanism=mechanism, hooks=hooks, registry=registry)
        self.restore_into(cpu)
        return cpu

    # --------------------------------------------------------- persistence

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, so equal states serialise equally)."""
        # A shallow field dict: the encoder walks the snapshot itself, so
        # there is no need to deep-copy it first as ``asdict`` would.
        return canonical_payload({f.name: getattr(self, f.name) for f in fields(self)})

    @classmethod
    def from_payload(cls, data: object) -> "MachineState":
        """Build a state from an already-parsed payload dict."""
        if not isinstance(data, dict):
            raise ConfigError(f"machine state must be a JSON object, got {type(data).__name__}")
        known = {"version", "cpu_config", "mechanism_config", "cpu", "trace_position", "meta"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown machine-state field(s): {sorted(unknown)}")
        state = cls(**data)
        if state.version != MACHINE_STATE_VERSION:
            raise ConfigError(
                f"machine state version {state.version!r} unsupported "
                f"(expected {MACHINE_STATE_VERSION})"
            )
        return state

    @classmethod
    def from_json(cls, text: str) -> "MachineState":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"machine state is not valid JSON: {exc}") from exc
        return cls.from_payload(data)

    def save(self, path: str | Path) -> Path:
        """Atomically write the state inside an integrity envelope.

        The round-trip is validated first, on the same canonical text
        that is then checksummed and written; the payload checksum and
        schema version in the envelope let :meth:`load` distinguish
        truncation and bit rot from honest absence.
        """
        text = self.validate_roundtrip()
        return write_canonical(path, text, MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION)

    @classmethod
    def load(cls, path: str | Path) -> "MachineState":
        """Load an integrity-checked machine state.

        Raises :class:`~repro.errors.CheckpointCorruptionError` when the
        envelope is damaged and :class:`ConfigError` when the payload
        inside a *valid* envelope is malformed.
        """
        payload = read_artifact(path, MACHINE_STATE_SCHEMA, MACHINE_STATE_VERSION)
        return cls.from_payload(payload)

    # ---------------------------------------------------------- validation

    def validate_roundtrip(self) -> str:
        """Prove the state survives JSON and restores bit-for-bit.

        Serialises to canonical JSON, rebuilds a fresh machine from the
        parsed copy, and compares its re-taken snapshot against that
        parsed copy (the original with tuples normalised to lists).
        Raises :class:`ConfigError` on any divergence — a checkpoint that
        fails this must never be written to disk.  Returns the validated
        text, which :meth:`save` writes.
        """
        text = self.to_json()
        clone = MachineState.from_json(text)
        retaken = clone.build_cpu().snapshot()
        original = clone.cpu
        if retaken != original:
            diverged = [
                name
                for name in original.get("components", {})
                if retaken.get("components", {}).get(name)
                != original["components"].get(name)
            ]
            raise ConfigError(
                f"machine state failed round-trip validation "
                f"(diverging components: {diverged or 'top-level fields'})"
            )
        return text


def machine_key(**parts) -> str:
    """Stable identity hash over everything that determines machine state.

    Callers pass the full recipe — workload config, link mode, CPU config,
    mechanism config, warm-up sizes — as JSON-safe values; any difference
    yields a different key, so checkpoints can never be shared across
    configurations that would diverge.
    """
    canonical = json.dumps(parts, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class CheckpointStore:
    """A directory of machine-state checkpoints keyed by config hash.

    Writes are atomic, so concurrent campaign workers that race to produce
    the same checkpoint simply last-write-wins with identical content.

    A corrupted or truncated checkpoint is *detected* (integrity envelope:
    schema version + content checksum) and treated as a miss — the caller
    re-simulates warm-up and overwrites it — never trusted.  When an
    :class:`~repro.resilience.incidents.IncidentRecorder` is attached, each
    such detection is logged as a ``checkpoint_corrupt`` incident.
    """

    def __init__(self, root: str | Path, recorder=None) -> None:
        self.root = Path(root)
        self.recorder = recorder
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path(self, key: str) -> Path:
        return self.root / f"{key}.machine.json"

    def load(self, key: str) -> MachineState | None:
        """The stored state for ``key``, or None (corrupt files count as misses).

        Read-and-catch, not exists()-then-read: a concurrent cleaner (or a
        racing writer's rename) between probe and read would otherwise turn
        an honest miss into a spurious corruption incident.
        """
        path = self.path(key)
        try:
            state = MachineState.load(path)
        except (OSError, ValueError, ConfigError, CheckpointCorruptionError) as exc:
            self.misses += 1
            reason = getattr(exc, "reason", type(exc).__name__)
            if reason == "missing":
                return None  # honest cache miss, not corruption
            if self.recorder is not None:
                self.recorder.record(
                    IncidentKind.CHECKPOINT_CORRUPT,
                    f"machine checkpoint {path.name} failed integrity "
                    f"validation ({reason}); will re-simulate",
                    key=key,
                    path=str(path),
                    reason=reason,
                )
            return None
        self.hits += 1
        return state

    def save(self, key: str, state: MachineState) -> Path:
        self.writes += 1
        return state.save(self.path(key))

    def keys(self) -> list[str]:
        if not self.root.exists():
            return []
        return sorted(p.name[: -len(".machine.json")] for p in self.root.glob("*.machine.json"))
