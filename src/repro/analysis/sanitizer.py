"""Runtime payload sanitizer: freeze sent views until the barrier commits.

The network ships payloads zero-copy (see :mod:`repro.cluster.network`):
a sender must not mutate an array's buffers after handing it to
``send_batches``.  The static REP005 rule catches the lexically obvious
cases; this module catches the rest at runtime.  While enabled, every
numpy array reachable from a payload staged by a lane-bound send — the
hook sits on the network's single staging point, so every row's
payloads pass through it — including
the arrays inside :class:`~repro.storage.table.LocalPartition` batches
and the view's base chain, so writes through the original buffer are
caught too — is marked read-only until the phase barrier
(``end_phase``/``abort_phase``) commits or discards the lane.  A latent
write-after-send then raises ``ValueError: assignment destination is
read-only`` at the exact offending store instead of silently corrupting
a message in flight.

Sends outside an open phase keep immediate semantics and are not
frozen: they are coordinator-side, single-threaded, and have no barrier
to thaw at.

Enabling is process-global and reference-counted, so nested
``sanitized()`` blocks and a conftest-level enable compose::

    from repro.analysis import sanitized

    with sanitized():
        join.run(cluster, r, s)   # aliasing bugs raise immediately

The tier-1 test suite runs entirely sanitized (see ``tests/conftest.py``;
set ``REPRO_SANITIZE=0`` to opt out).

Alongside the payload freezer, enabling installs a **race tracker**: the
concurrency-critical structures (plan cache, warm executor pool, service
counters) call :func:`track_shared` at each guarded access, recording
which thread touched which shared object under which locks.  A
cross-thread write/write or read/write pair with no lock in common
raises :class:`~repro.errors.RaceError` deterministically at the second
access — the runtime complement of the static REP007/REP009 rules.
When the sanitizer is off, :func:`track_shared` is a single ``None``
check and the hot paths pay nothing.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

import numpy as np

from ..cluster.network import Network
from ..errors import RaceError

__all__ = [
    "sanitizer_enable",
    "sanitizer_disable",
    "sanitizer_enabled",
    "sanitized",
    "RaceTracker",
    "race_tracker",
    "shared_key",
    "track_shared",
]

_lock = threading.Lock()
_depth = 0
_saved: dict[str, Any] = {}

#: The process-wide tracker, alive while the sanitizer is enabled.
_race_tracker: "RaceTracker | None" = None


class RaceTracker:
    """Record shared-object accesses and raise on unsynchronized conflict.

    For every registered key the tracker keeps, per accessing thread,
    the distinct *access shapes* seen so far: a ``(write, lock-ids)``
    pair.  A new access conflicts when another thread holds a recorded
    shape such that at least one side is a write and the two lock sets
    are disjoint — no common lock means no ordering, and the pair is a
    data race by definition.  The conflict raises at the second access,
    on the thread performing it, so a test exercising a fixed
    interleaving fails deterministically at the same line every run.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> {thread id -> (thread name, {(write, frozen lock ids)})}
        self._accesses: dict[str, dict[int, tuple[str, set]]] = {}

    def record(self, key: str, *, write: bool, locks: Iterable[Any] = ()) -> None:
        """Record one access; raise :class:`RaceError` on conflict."""
        tid = threading.get_ident()
        name = threading.current_thread().name
        shape = (bool(write), frozenset(id(lock) for lock in locks))
        with self._lock:
            per_key = self._accesses.setdefault(key, {})
            for other_tid, (other_name, shapes) in per_key.items():
                if other_tid == tid:
                    continue
                for other_write, other_locks in shapes:
                    if not (shape[0] or other_write):
                        continue
                    if shape[1] & other_locks:
                        continue
                    kind = (
                        "write/write"
                        if shape[0] and other_write
                        else "read/write"
                    )
                    raise RaceError(
                        f"race on {key!r}: {kind} between threads "
                        f"{other_name!r} and {name!r} with no common lock",
                        key=key,
                        kind=kind,
                        threads=(other_name, name),
                    )
            mine = per_key.setdefault(tid, (name, set()))
            mine[1].add(shape)

    def keys(self) -> list[str]:
        """Registered shared-object keys, sorted (for introspection)."""
        with self._lock:
            return sorted(self._accesses)


def race_tracker() -> RaceTracker | None:
    """The live tracker, or None while the sanitizer is disabled."""
    return _race_tracker


def track_shared(key: str, *, write: bool, locks: Iterable[Any] = ()) -> None:
    """Record an access to a registered shared object (no-op when off).

    Callers pass the lock *objects* they hold around the access; the
    tracker compares identities, so the same lock reached through an
    alias still counts as common coverage.
    """
    tracker = _race_tracker
    if tracker is not None:
        tracker.record(key, write=write, locks=locks)


_shared_tokens = itertools.count()


def shared_key(prefix: str) -> str:
    """Mint a process-unique tracking key for one shared object.

    Instrumented classes call this once at construction and reuse the
    key at every :func:`track_shared` site.  ``id(self)`` is not a safe
    suffix: ids are recycled after garbage collection, so a new object
    could inherit a dead instance's recorded accesses (with different
    lock identities) and trip a false race.  The counter never repeats.
    """
    return f"{prefix}#{next(_shared_tokens)}"

#: Per-network attribute holding {id(array): (array, original_writeable)}
#: for every array frozen during the currently open phase.
_FROZEN_ATTR = "_sanitizer_frozen"

_freeze_lock = threading.Lock()


def _payload_arrays(payload: Any, depth: int = 0) -> Iterator[np.ndarray]:
    """Yield every numpy array reachable from a message payload.

    Understands the payload shapes the operators actually send: bare
    ndarrays, ``LocalPartition``-like objects (``keys`` plus a
    ``columns`` dict), and lists/tuples/dicts of those.  The walk is
    bounded so a pathological payload cannot recurse forever.
    """
    if depth > 4 or payload is None:
        return
    if isinstance(payload, np.ndarray):
        yield payload
        return
    if isinstance(payload, (list, tuple)):
        for item in payload:
            yield from _payload_arrays(item, depth + 1)
        return
    if isinstance(payload, dict):
        for item in payload.values():
            yield from _payload_arrays(item, depth + 1)
        return
    keys = getattr(payload, "keys", None)
    columns = getattr(payload, "columns", None)
    if isinstance(keys, np.ndarray):
        yield keys
    if isinstance(columns, dict):
        for item in columns.values():
            yield from _payload_arrays(item, depth + 1)


def _chain_depth(array: np.ndarray) -> int:
    """Number of ``.base`` hops from a view to its owning array."""
    depth = 0
    base = array.base
    while isinstance(base, np.ndarray):
        depth += 1
        base = base.base
    return depth


def _freeze_payload(network: Network, payload: Any) -> None:
    """Mark payload arrays (and their base chains) read-only.

    Each array is recorded once with its pre-freeze writeability, under
    a lock so two lane-bound sends of views over the same buffer cannot
    record an already-frozen state as the original.
    """
    with _freeze_lock:
        frozen = network.__dict__.setdefault(_FROZEN_ATTR, {})
        for array in _payload_arrays(payload):
            target: np.ndarray | None = array
            while isinstance(target, np.ndarray):
                key = id(target)
                if key not in frozen:
                    frozen[key] = (target, target.flags.writeable)
                    target.flags.writeable = False
                target = target.base  # writes through the base alias the view


def _thaw_network(network: Network) -> None:
    """Restore every frozen array to its pre-send writeability.

    Owning arrays thaw before their views: numpy refuses to make a view
    writeable while its base is still read-only.
    """
    with _freeze_lock:
        frozen = network.__dict__.pop(_FROZEN_ATTR, {})
    for array, writeable in sorted(frozen.values(), key=lambda e: _chain_depth(e[0])):
        if writeable:
            array.flags.writeable = True


def _sanitized_stage_row(self: Network, src, category, dsts, nbytes, payloads):
    _saved["stage_row"](self, src, category, dsts, nbytes, payloads)
    if payloads is not None and getattr(self._tls, "lane", None) is not None:
        for payload in payloads:
            _freeze_payload(self, payload)


def _sanitized_end_phase(self: Network) -> None:
    # Thaw even when the barrier raises (a fault injector exhausting its
    # retry budget mid-commit): the phase is closed either way, and a
    # degraded re-run must not inherit read-only arrays.
    try:
        _saved["end_phase"](self)
    finally:
        _thaw_network(self)


def _sanitized_abort_phase(self: Network) -> None:
    _saved["abort_phase"](self)
    _thaw_network(self)


def sanitizer_enable() -> None:
    """Install the sanitizer on :class:`Network` (reference-counted)."""
    global _depth, _race_tracker
    with _lock:
        _depth += 1
        if _depth > 1:
            return
        _race_tracker = RaceTracker()
        _saved["stage_row"] = Network._stage_row
        _saved["end_phase"] = Network.end_phase
        _saved["abort_phase"] = Network.abort_phase
        Network._stage_row = _sanitized_stage_row  # type: ignore[method-assign]
        Network.end_phase = _sanitized_end_phase  # type: ignore[method-assign]
        Network.abort_phase = _sanitized_abort_phase  # type: ignore[method-assign]


def sanitizer_disable() -> None:
    """Drop one enable; the patch is removed when the count reaches zero."""
    global _depth, _race_tracker
    with _lock:
        if _depth == 0:
            return
        _depth -= 1
        if _depth > 0:
            return
        _race_tracker = None
        Network._stage_row = _saved.pop("stage_row")  # type: ignore[method-assign]
        Network.end_phase = _saved.pop("end_phase")  # type: ignore[method-assign]
        Network.abort_phase = _saved.pop("abort_phase")  # type: ignore[method-assign]


def sanitizer_enabled() -> bool:
    """True while at least one enable is outstanding."""
    return _depth > 0


@contextmanager
def sanitized():
    """Context manager form of enable/disable."""
    sanitizer_enable()
    try:
        yield
    finally:
        sanitizer_disable()
