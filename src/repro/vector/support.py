"""Backend selection — importable without numpy.

The vector engine covers the full channel envelope — exponential
(Gauss-Markov) and Jakes-Doppler fading kernels, Rayleigh and Rician
K>0 envelopes — so ``"auto"`` (:func:`resolve_backend`) decides by
population size alone.  Kept dependency-light so the config layer can
consult it during serialisation without dragging in the numpy-heavy
engine.
"""

from __future__ import annotations

__all__ = ["AUTO_VECTOR_MIN_NODES", "resolve_backend"]

#: Population size at which ``backend="auto"`` switches to the vector
#: engine.  Below this the event kernel is fast enough that exact
#: per-packet behaviour wins; at and above it the structure-of-arrays
#: engine's throughput dominates (see ``benchmarks/bench_scale.py``).
AUTO_VECTOR_MIN_NODES = 1000


def resolve_backend(cfg) -> str:
    """The concrete engine for ``cfg``: ``"event"`` or ``"vector"``.

    Explicit choices pass through; ``"auto"`` picks the vector engine
    exactly when the population is large enough to benefit
    (:data:`AUTO_VECTOR_MIN_NODES`), whatever the channel model
    (exponential/Jakes, Rayleigh/Rician).  A pure function of the
    config, so auto-selection is deterministic and safe to consult from
    :meth:`~repro.config.NetworkConfig.to_dict`.
    """
    backend = cfg.scale.backend
    if backend != "auto":
        return backend
    return "vector" if cfg.n_nodes >= AUTO_VECTOR_MIN_NODES else "event"
