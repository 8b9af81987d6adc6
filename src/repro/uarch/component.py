"""The SimComponent protocol and the CPU's component registry.

Every hardware structure the simulator models — caches, TLBs, the BTB,
the direction predictor, the return-address stack, the ABTB, the Bloom
filter, the performance counters — is a *component*: an object that can
describe its geometry, serialise its complete architectural state to a
JSON-safe dict, and restore that state bit-for-bit into a freshly built
instance.  Components are what make :class:`~repro.uarch.machine.
MachineState` checkpoints possible: a warm-up window is simulated once,
snapshotted, and every configuration variant forks from the restored
state instead of re-simulating it.

Snapshot contract
-----------------

* ``snapshot()`` returns a dict containing only JSON-safe values (ints,
  floats, strings, bools, lists, dicts with string keys).  Arbitrarily
  large ints are allowed — Python's ``json`` round-trips them exactly.
* ``restore(state)`` accepts either a dict produced by ``snapshot()`` on
  a *compatible* instance (same geometry) or the result of JSON
  round-tripping one; incompatible geometry raises
  :class:`~repro.errors.ConfigError`.
* ``reset()`` returns the component to its just-constructed state.
* ``describe()`` returns a JSON-safe dict of static configuration —
  geometry, policies, sizes — never dynamic state.
* ``snapshot() → restore()`` must be exact: every subsequent event
  produces identical counters on the restored instance and on the
  original.  :func:`verify_component_roundtrip` checks this structurally
  (snapshot → restore → snapshot equality after a JSON round-trip).

The registry
------------

:class:`ComponentRegistry` maps component names to factories over
:class:`~repro.uarch.cpu.CPUConfig`; the CPU assembles itself from a
registry instead of hard-wiring constructor calls, so alternative
structures (a different BTB organisation, a perfect cache) drop in by
registering a factory under the same name.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Protocol, runtime_checkable

from repro.errors import ConfigError


@runtime_checkable
class SimComponent(Protocol):
    """Protocol every simulated hardware structure implements."""

    def snapshot(self) -> dict:
        """Complete architectural state as a JSON-safe dict."""
        ...  # pragma: no cover - protocol

    def restore(self, state: dict) -> None:
        """Restore state captured by :meth:`snapshot` on a compatible
        instance."""
        ...  # pragma: no cover - protocol

    def reset(self) -> None:
        """Return to the just-constructed state (state *and* stats)."""
        ...  # pragma: no cover - protocol

    def describe(self) -> dict:
        """Static configuration (geometry, policy) as a JSON-safe dict."""
        ...  # pragma: no cover - protocol


#: A factory building one component from a CPUConfig.
ComponentFactory = Callable[[object], SimComponent]


class ComponentRegistry:
    """Named component factories the CPU assembles itself from.

    The default registry (:func:`default_registry`) builds the paper's
    machine; experiments can ``clone()`` it and override individual
    entries to swap structures without touching the CPU.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, ComponentFactory] = {}

    def register(self, name: str, factory: ComponentFactory) -> None:
        """Add (or replace) the factory for ``name``."""
        self._factories[name] = factory

    def factory(self, name: str) -> ComponentFactory:
        try:
            return self._factories[name]
        except KeyError:
            raise ConfigError(
                f"no component registered under {name!r}; "
                f"known: {sorted(self._factories)}"
            ) from None

    def names(self) -> list[str]:
        """Registered component names, in registration order."""
        return list(self._factories)

    def build(self, config) -> Dict[str, SimComponent]:
        """Instantiate every registered component for ``config``."""
        return {name: factory(config) for name, factory in self._factories.items()}

    def clone(self) -> "ComponentRegistry":
        """An independent copy (override entries without global effect)."""
        out = ComponentRegistry()
        out._factories.update(self._factories)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._factories


def default_registry() -> "ComponentRegistry":
    """The paper's machine: L1I/L1D/L2, I/D-TLB, BTB, gshare, RAS,
    perf counters."""
    # Imported here to avoid a cycle (cpu.py imports this module).
    from repro.uarch.btb import BTB
    from repro.uarch.cache import SetAssociativeCache
    from repro.uarch.counters import PerfCounters
    from repro.uarch.predictor import GsharePredictor, ReturnAddressStack
    from repro.uarch.tlb import TLB

    registry = ComponentRegistry()
    registry.register(
        "l1i", lambda c: SetAssociativeCache("L1I", c.l1i_bytes, c.line_bytes, c.l1i_ways)
    )
    registry.register(
        "l1d", lambda c: SetAssociativeCache("L1D", c.l1d_bytes, c.line_bytes, c.l1d_ways)
    )
    registry.register(
        "l2", lambda c: SetAssociativeCache("L2", c.l2_bytes, c.line_bytes, c.l2_ways)
    )
    registry.register("itlb", lambda c: TLB("ITLB", c.itlb_entries, c.itlb_ways))
    registry.register("dtlb", lambda c: TLB("DTLB", c.dtlb_entries, c.dtlb_ways))
    registry.register("btb", lambda c: BTB(c.btb_entries, c.btb_ways))
    registry.register("gshare", lambda c: GsharePredictor(c.gshare_entries, c.history_bits))
    registry.register("ras", lambda c: ReturnAddressStack(c.ras_depth))
    registry.register("counters", lambda c: PerfCounters(c.cycle_weights()))
    return registry


# ------------------------------------------------------------ state codecs
#
# Shared helpers for components whose state is a dict keyed by integers
# (cache sets, BTB sets).  JSON objects force string keys, so tables are
# encoded as lists of [key, value...] rows instead.


def encode_table(table: dict) -> list:
    """``{int: scalar}`` → ``[[key, value], ...]`` (JSON-safe, ordered)."""
    return [[int(k), v] for k, v in table.items()]


def decode_table(rows: list) -> dict:
    """Inverse of :func:`encode_table`."""
    return {int(k): v for k, v in rows}


def check_geometry(name: str, state: dict, **expected) -> None:
    """Raise :class:`ConfigError` when a snapshot's recorded geometry does
    not match the instance it is being restored into."""
    for key, want in expected.items():
        got = state.get(key)
        if got != want:
            raise ConfigError(
                f"{name}: snapshot {key}={got!r} does not match instance {key}={want!r}"
            )


def verify_component_roundtrip(component: SimComponent, fresh: SimComponent) -> None:
    """Assert ``fresh.restore(json(component.snapshot()))`` reproduces the
    exact snapshot.  Raises :class:`ConfigError` on any divergence."""
    state = component.snapshot()
    recovered = json.loads(json.dumps(state))
    fresh.restore(recovered)
    again = fresh.snapshot()
    if again != state:
        raise ConfigError(
            f"{type(component).__name__}: snapshot/restore round-trip diverged"
        )
