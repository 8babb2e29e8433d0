"""Vectorized population-scale backend (``ScaleConfig.backend="vector"``).

A second simulation engine that keeps all node state in numpy
structure-of-arrays — positions, battery ledgers, queue rings, policy
state, per-link AR(1) shadowing/fading states — and advances the whole
population with batched array operations on a fixed channel-coherence
time step, instead of per-node event callbacks.

The event kernel (:mod:`repro.network`, the default) is the reference:
it is exact at the per-packet, per-callback level and every paper figure
is produced by it, byte-identically.  The vector engine trades per-event
exactness for array throughput, which is what makes N = 10⁴–10⁵ node
populations practical on one CPU.  The contract between the two backends
is enforced by :mod:`repro.vector.equivalence`:

* **golden fields** — run identity, the sampling timeline and the
  deterministic dynamics replay (sample times, series stride, churn/
  regime counters, death bookkeeping on death-free runs) are *equal*,
  because both engines consume the same named RNG streams
  (``topology``, ``leach``, ``dynamics/*``) in the same order;
* **statistical fields** — traffic, MAC contention, channel noise and
  energy metering use dedicated ``vector/*`` streams and a fluid-ish
  MAC abstraction, so delivery rate, delay, collisions and
  energy-per-packet agree within calibrated tolerance bands, not
  bit-for-bit.

The engine covers the full channel envelope — exponential and
Jakes-Doppler fading kernels, Rayleigh and Rician K>0.

Select it per run with ``cfg.with_scale(backend="vector")``; the default
``"event"`` leaves every existing output byte-identical.
``backend="auto"`` resolves per config — vector for populations of
:data:`~repro.vector.support.AUTO_VECTOR_MIN_NODES` and up, event
otherwise (see :func:`~repro.vector.support.resolve_backend`).
:func:`repro.api.simulate` runs either engine: :mod:`.engine`'s
``measure`` returns what the vector engine measured, and
:func:`repro.api.engine.derive` computes every derived field, as it
does for the event kernel.  This package imports only ``.support``, so
resolving a backend (which digesting an ``"auto"`` config does) loads
no engine.
"""

from .support import AUTO_VECTOR_MIN_NODES, resolve_backend

__all__ = ["AUTO_VECTOR_MIN_NODES", "resolve_backend"]
