"""Run-time guards for stage purity and worker state (DESIGN §10).

The artifact cache serves a stage's output by key, which is sound only
if the stage computes from its inputs alone and a worker process keeps
no state from one shard task to the next.  These guards watch the code
as it actually runs:

* :func:`purity_guard` records every environment read, clock read,
  global-RNG draw, file/socket/directory/subprocess audit event and
  change to a ``repro`` module global made inside it;
* :class:`WorkerStatePlan` is a process-fault plan that injects nothing:
  the worker consults it before and after every shard task, and it
  fails the task when a ``repro`` module global differs from what the
  worker held at its first task.

Both compare module globals the same way (:func:`snapshot_globals`):
each binding by identity, and the items of a dict, list or set one
level deep.  What neither can see is written up in DESIGN §10.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import random
import sys
import threading
import time
from collections.abc import MutableMapping
from contextlib import contextmanager
from typing import Iterator

import numpy

import repro

#: Audit events that reach the filesystem, the network or another
#: process; every ``socket.*`` event counts as well.
AUDITED_EVENTS = frozenset({"open", "os.listdir", "os.scandir",
                            "subprocess.Popen"})

#: The ``time`` functions the purity guard wraps.
CLOCKS = ("time", "time_ns", "perf_counter", "perf_counter_ns",
          "monotonic", "monotonic_ns", "process_time", "process_time_ns")

#: Per-thread list of what the running guard recorded; ``None`` when no
#: guard is active on this thread.
_guarded = threading.local()
_hook_installed = False


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so a guard sees no lazy import."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            importlib.import_module(info.name)


def _watched(name: str, skip: str | None) -> bool:
    if name != "repro" and not name.startswith("repro."):
        return False
    return skip is None or (name != skip and not name.startswith(skip + "."))


def _items(value: object) -> object:
    """One level of a container's contents, or ``None``."""
    if isinstance(value, dict):
        return [element for pair in value.items() for element in pair]
    if isinstance(value, list):
        return list(value)
    if isinstance(value, set):
        return set(value)
    return None


def snapshot_globals(skip: str | None = None) -> dict[str, dict]:
    """Every ``repro`` module's globals, except those under ``skip``.

    Values are held by reference, so an identity check on a later
    snapshot cannot be fooled by a reused ``id``.
    """
    return {name: {key: (value, _items(value))
                   for key, value in vars(module).items()}
            for name, module in list(sys.modules.items())
            if module is not None and _watched(name, skip)}


def _same_items(before: object, after: object) -> bool:
    if isinstance(before, set) or isinstance(after, set):
        return before == after
    if before is None or after is None:
        return before is after
    return len(before) == len(after) and all(
        old is new for old, new in zip(before, after))


def changed_globals(before: dict[str, dict],
                    after: dict[str, dict]) -> list[str]:
    """Each module global bound, deleted, rebound or changed in place."""
    changes = []
    for module in sorted(set(before) | set(after)):
        old = before.get(module, {})
        new = after.get(module, {})
        for name in sorted(set(old) | set(new)):
            where = "%s.%s" % (module, name)
            if name not in old:
                changes.append("%s bound" % where)
            elif name not in new:
                changes.append("%s deleted" % where)
            elif old[name][0] is not new[name][0]:
                changes.append("%s rebound" % where)
            elif not _same_items(old[name][1], new[name][1]):
                changes.append("%s changed in place" % where)
    return changes


def _record(event: str) -> None:
    found = getattr(_guarded, "found", None)
    if found is not None:
        found.append(event)


def _audit(event: str, args: tuple) -> None:
    # Installed once for the whole session (an audit hook cannot be
    # removed), so it must cost next to nothing when no guard is on.
    if getattr(_guarded, "found", None) is None:
        return
    if event in AUDITED_EVENTS or event.startswith("socket."):
        _record("audit %s %r" % (event, args[:1]))


class _RecordingEnviron(MutableMapping):
    """``os.environ`` stand-in that records every access."""

    def __init__(self, real: MutableMapping) -> None:
        self._real = real

    def __getitem__(self, key):
        _record("os.environ[%r]" % (key,))
        return self._real[key]

    def __setitem__(self, key, value):
        _record("os.environ[%r] = ..." % (key,))
        self._real[key] = value

    def __delitem__(self, key):
        _record("del os.environ[%r]" % (key,))
        del self._real[key]

    def __iter__(self):
        _record("iter(os.environ)")
        return iter(self._real)

    def __len__(self):
        _record("len(os.environ)")
        return len(self._real)


def _clock(name: str, real):
    def read(*args):
        _record("time.%s()" % name)
        return real(*args)
    return read


def _rng_states() -> tuple:
    kind, keys, position, has_gauss, gauss = numpy.random.get_state()
    return (random.getstate(),
            (kind, keys.tobytes(), position, has_gauss, gauss))


@contextmanager
def purity_guard() -> Iterator[list[str]]:
    """Record every impure act of the code run inside.

    Yields the list the findings go into.  Environment, clock and audit
    findings arrive as they happen; global-RNG and module-global changes
    are appended when the block exits.  Call
    :func:`import_all_repro_modules` first: a lazy import opens files.
    """
    global _hook_installed
    if not _hook_installed:
        sys.addaudithook(_audit)
        _hook_installed = True
    found: list[str] = []
    real_environ = os.environ
    real_clocks = {name: getattr(time, name) for name in CLOCKS}
    rng_before = _rng_states()
    globals_before = snapshot_globals()
    os.environ = _RecordingEnviron(real_environ)
    for name, real in real_clocks.items():
        setattr(time, name, _clock(name, real))
    _guarded.found = found
    try:
        yield found
    finally:
        _guarded.found = None
        os.environ = real_environ
        for name, real in real_clocks.items():
            setattr(time, name, real)
    if _rng_states() != rng_before:
        found.append("global RNG state changed")
    found.extend(changed_globals(globals_before, snapshot_globals()))


class WorkerStatePlan:
    """A process-fault plan that injects nothing and watches worker state.

    The worker calls :meth:`fault_at` before and after every shard task.
    The first call in a worker process takes the baseline of every
    ``repro`` module's globals except ``repro.obs``, which records spans
    and metrics by design; every later call raises if any of them
    differs, which fails that shard.  Each worker process holds its own
    copy of the plan: a forked worker inherits the parent's, which never
    calls it, and a spawned one unpickles it.
    """

    def __init__(self) -> None:
        self._baseline: dict[str, dict] | None = None

    def fault_at(self, stage: str, shard_index: int,
                 attempt: int) -> None:
        if self._baseline is None:
            import_all_repro_modules()
            self._baseline = snapshot_globals(skip="repro.obs")
            return
        changes = changed_globals(self._baseline,
                                  snapshot_globals(skip="repro.obs"))
        if changes:
            raise RuntimeError("worker state changed by %s shard %d: %s"
                               % (stage, shard_index, "; ".join(changes)))
