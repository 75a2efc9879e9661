"""Kernel-backend registry: ``numpy`` | ``numba``.

The plan executor (and every other dispatch site of the fused ragged
kernel — the quote service's base-vector fill, the fleet worker's
segment execution, the GPU engines' functional compute) resolves its
``backend=`` argument here, so **every** engine gains compiled kernels
with zero engine-code changes.

Selection precedence (first match wins):

1. an explicit ``backend=`` argument — a registry name or a
   :class:`~repro.backends.base.KernelBackend` instance;
2. the ``REPRO_KERNEL_BACKEND`` environment variable;
3. the default: ``numpy``, the permanent oracle.

The special name ``auto`` picks the best *available* backend (highest
``priority``; compiled backends outrank the oracle).  A requested
backend that is unavailable — Numba not installed —
falls back to ``numpy`` and says so **once** per process via
``warnings`` and the ``repro.backends`` logger: fallback is
silent-correct (results are oracle results) and loud-informative (you
are told you are not getting the compiled path, and why).  Unknown
names raise when passed explicitly (a programmer error) but only warn
when they arrive via the environment (a deployment typo must not take
the service down).

Backend identity is deliberately **excluded** from plan fingerprints,
engine capabilities, store keys and fleet manifests: backends are held
to the oracle's results (see ``KernelBackend.tolerance``), so a segment
computed by a numba worker and one computed by a numpy worker are the
same content — mixed-backend fleets assemble digest-identical YLTs,
which ``tests/test_backends.py`` pins.
"""

from __future__ import annotations

import logging
import os
import threading
import warnings
from typing import Dict, List, Type

from repro.backends.base import KernelBackend, NumpyBackend
from repro.backends.numba_backend import NumbaBackend

__all__ = [
    "KERNEL_BACKEND_ENV",
    "KernelBackend",
    "NumpyBackend",
    "NumbaBackend",
    "available_backends",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "unregister_backend",
]

#: environment variable consulted when no explicit ``backend=`` is given.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

#: sentinel name selecting the best available backend.
AUTO = "auto"

logger = logging.getLogger("repro.backends")

_LOCK = threading.Lock()
_REGISTRY: Dict[str, Type[KernelBackend]] = {}
_INSTANCES: Dict[str, KernelBackend] = {}
#: (requested, resolved) pairs already announced — log/warn once each.
_ANNOUNCED: set = set()


def register_backend(
    cls: Type[KernelBackend], replace: bool = False
) -> Type[KernelBackend]:
    """Add a backend class to the registry (usable as a decorator).

    ``replace=True`` allows overriding an existing name (tests register
    instrumented doubles); otherwise a duplicate name raises.
    """
    name = cls.name
    with _LOCK:
        if not replace and name in _REGISTRY and _REGISTRY[name] is not cls:
            raise ValueError(f"backend {name!r} is already registered")
        _REGISTRY[name] = cls
        _INSTANCES.pop(name, None)
    return cls


def unregister_backend(name: str) -> None:
    """Remove a backend (test cleanup; unknown names are a no-op)."""
    with _LOCK:
        _REGISTRY.pop(name, None)
        _INSTANCES.pop(name, None)


register_backend(NumpyBackend)
register_backend(NumbaBackend)


def backend_names() -> List[str]:
    """All registered backend names (available or not)."""
    with _LOCK:
        return sorted(_REGISTRY)


def available_backends() -> List[str]:
    """Names of the backends that can run in this process, best first."""
    with _LOCK:
        classes = list(_REGISTRY.values())
    usable = [cls for cls in classes if cls.available()]
    usable.sort(key=lambda cls: (-cls.priority, cls.name))
    return [cls.name for cls in usable]


def get_backend(name: str) -> KernelBackend:
    """The memoised instance of a registered backend (no availability
    check — callers that bypass :func:`resolve_backend` own the risk)."""
    with _LOCK:
        cls = _REGISTRY.get(name)
        if cls is None:
            raise ValueError(
                f"unknown kernel backend {name!r}; registered: "
                f"{sorted(_REGISTRY)}"
            )
        instance = _INSTANCES.get(name)
        if instance is None:
            instance = _INSTANCES[name] = cls()
        return instance


def _announce(requested: str, resolved: str, detail: str | None) -> None:
    """Log the selection once; warn once when it is a fallback."""
    key = (requested, resolved, bool(detail))
    with _LOCK:
        if key in _ANNOUNCED:
            return
        _ANNOUNCED.add(key)
    if detail:
        warnings.warn(detail, RuntimeWarning, stacklevel=4)
        logger.warning("%s", detail)
    else:
        logger.info(
            "kernel backend %r selected (requested %r)", resolved, requested
        )


def resolve_backend(
    backend: "KernelBackend | str | None" = None,
) -> KernelBackend:
    """Resolve a ``backend=`` value to a usable backend instance.

    Precedence: explicit argument > ``REPRO_KERNEL_BACKEND`` > numpy.
    Unavailable (or env-misspelled) requests fall back to the numpy
    oracle with a once-per-process warning; ``"auto"`` picks the best
    available backend.  Instances pass through untouched, so hot paths
    may resolve once and hand the instance down.
    """
    if isinstance(backend, KernelBackend):
        return backend
    requested = backend
    from_env = False
    if requested is None:
        env = os.environ.get(KERNEL_BACKEND_ENV, "").strip()
        if env:
            requested, from_env = env, True
    if requested is None or requested == NumpyBackend.name:
        return get_backend(NumpyBackend.name)

    if requested == AUTO:
        best = available_backends()[0]
        _announce(AUTO, best, None)
        return get_backend(best)

    with _LOCK:
        cls = _REGISTRY.get(requested)
    if cls is None:
        message = (
            f"unknown kernel backend {requested!r} "
            f"(registered: {backend_names()}); using 'numpy'"
        )
        if not from_env:
            raise ValueError(message)
        _announce(requested, NumpyBackend.name, message)
        return get_backend(NumpyBackend.name)
    if not cls.available():
        reason = cls.unavailable_reason() or "unavailable"
        _announce(
            requested,
            NumpyBackend.name,
            f"kernel backend {requested!r} requested but unavailable "
            f"({reason}); falling back to the numpy oracle",
        )
        return get_backend(NumpyBackend.name)
    _announce(requested, requested, None)
    return get_backend(requested)


def active_backend_name(backend: "KernelBackend | str | None" = None) -> str:
    """The name :func:`resolve_backend` would dispatch to (for meta/stats)."""
    return resolve_backend(backend).name
