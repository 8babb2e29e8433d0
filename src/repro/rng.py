"""Deterministic, named random-number streams.

Reproducibility discipline: a simulation owns a single :class:`RngRegistry`
seeded once; every stochastic component (each link's fading, each traffic
source, the LEACH election, MAC backoff, ...) asks the registry for a
*named* stream.  Stream seeds are derived from the master seed and the name
via ``numpy.random.SeedSequence`` entropy spawning, so:

* two runs with the same master seed are bit-identical, regardless of the
  order in which components are constructed;
* changing one component's draws (e.g. sampling fading more often) never
  perturbs any other component's stream.

:func:`derive_seed` through numpy is the reference derivation.
:func:`pcg64_states` is its bulk path for callers that seed thousands of
single-use streams at once (the vector engine's per-node churn chains):
it must return exactly the PCG64 state :meth:`RngRegistry.derive` starts
from, which ``tests/test_rng.py`` checks against numpy.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "RngRegistry",
    "NormalBlockCache",
    "as_normal_cache",
    "derive_seed",
    "pcg64_states",
]


def derive_seed(master_seed: int, name: str) -> np.random.SeedSequence:
    """Build a :class:`numpy.random.SeedSequence` for ``name``.

    The name is hashed with CRC32 (stable across processes and Python
    versions, unlike ``hash``) and mixed into the spawn key.
    """
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(tag,))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (pcg64.h).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M128 = (1 << 128) - 1


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    value = (value ^ hash_const) & _M32
    hash_const = (hash_const * _MULT_A) & _M32
    value = (value * hash_const) & _M32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ (r >> 16)


def pcg64_states(master_seed: int, names: Sequence[str]) -> List[Tuple[int, int]]:
    """The PCG64 ``(state, inc)`` that :meth:`RngRegistry.derive` starts from.

    Bulk form of ``derive(name).bit_generator.state["state"]`` for every
    name, bit for bit: ``SeedSequence(master_seed, spawn_key=(crc32,))``
    hashes the master seed's words into its pool first and the name's
    spawn word last, so the pool before that last word is computed once;
    the last word is mixed in, and ``generate_state(4, uint64)`` run, for
    all names at once on uint32 arrays.  Each name's two 128-bit LCG
    seeding steps run on Python ints.  Re-seat one ``PCG64`` per name
    through its ``state`` setter to draw from the stream.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    words = []
    rest = int(master_seed)
    while True:
        words.append(rest & _M32)
        rest >>= 32
        if not rest:
            break
    # A spawn key pads short run entropy to the pool size with zeros.
    words += [0] * (_POOL - len(words))
    pool = []
    hc = _INIT_A
    for w in words[:_POOL]:
        v, hc = _hashmix(w, hc)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], v)
    for w in words[_POOL:]:
        for dst in range(_POOL):
            v, hc = _hashmix(w, hc)
            pool[dst] = _mix(pool[dst], v)
    # The name's spawn word, mixed into each pool word for every name.
    tags = np.fromiter(
        (zlib.crc32(name.encode("utf-8")) for name in names),
        dtype=np.uint32,
        count=len(names),
    )
    mixed = []
    for dst in range(_POOL):
        hc_in = hc
        hc = (hc * _MULT_A) & _M32
        v = (tags ^ np.uint32(hc_in)) * np.uint32(hc)
        v ^= v >> np.uint32(16)
        r = np.uint32((_MIX_L * pool[dst]) & _M32) - np.uint32(_MIX_R) * v
        mixed.append(r ^ (r >> np.uint32(16)))
    # generate_state(4, uint64): eight uint32 words, read little-endian
    # in pairs.
    hb = _INIT_B
    out32 = []
    for i in range(2 * _POOL):
        hb_in = hb
        hb = (hb * _MULT_B) & _M32
        d = (mixed[i % _POOL] ^ np.uint32(hb_in)) * np.uint32(hb)
        out32.append(d ^ (d >> np.uint32(16)))
    s_hi, s_lo, i_hi, i_lo = (
        (
            out32[2 * j].astype(np.uint64)
            | (out32[2 * j + 1].astype(np.uint64) << np.uint64(32))
        ).tolist()
        for j in range(4)
    )
    states = []
    for a, b, c, d in zip(s_hi, s_lo, i_hi, i_lo):
        # pcg_setseq_128_srandom_r: state = 0, step, += seed, step.
        inc = ((((c << 64) | d) << 1) | 1) & _M128
        states.append(((((inc + ((a << 64) | b)) * _PCG_MULT) + inc) & _M128, inc))
    return states


class NormalBlockCache:
    """Standard normals drawn in blocks, served one at a time.

    ``Generator.normal()`` pays the full numpy scalar-call overhead on
    every draw — two orders of magnitude more than the ziggurat sample
    itself.  The channel processes (fading, shadowing, CSI noise) consume
    normals one at a time on the CSI-meter cadence, so this cache
    pre-draws ``block_size`` standard normals with one vectorised
    ``standard_normal`` call and serves them sequentially as plain Python
    floats.

    **Bit-reproducibility contract.** numpy generates block draws one
    value at a time from the same bit stream as scalar draws, so the
    sequence served here is *bit-identical* to what sequential
    ``Generator.normal`` calls would have produced (asserted by the
    stream-equivalence tests in ``tests/test_perf_golden.py``).  The one
    requirement is ownership: every normal consumed from the underlying
    generator must flow through the same cache.  That is exactly the
    registry discipline — one dedicated stream per stochastic component —
    so a :class:`~repro.channel.link.Link` builds a single cache and
    shares it between its shadowing and fading processes, preserving
    their interleaved draw order on the link's stream.
    """

    __slots__ = ("_gen", "_buf", "_idx", "block_size")

    def __init__(self, gen: np.random.Generator, block_size: int = 256) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be > 0, got {block_size}")
        self._gen = gen
        self.block_size = int(block_size)
        self._buf: list = []
        self._idx = 0

    def standard_normal(self) -> float:
        """The next N(0, 1) draw from the underlying stream."""
        i = self._idx
        buf = self._buf
        if i >= len(buf):
            buf = self._buf = self._gen.standard_normal(self.block_size).tolist()
            i = 0
        self._idx = i + 1
        return buf[i]

    def normal(self, loc: float = 0.0, scale: float = 1.0) -> float:
        """Scalar ``Generator.normal`` replacement (bit-identical result).

        Mirrors numpy's ``loc + scale * standard_normal()`` formula so the
        float result matches a direct generator call exactly.
        """
        return loc + scale * self.standard_normal()

    def take3(self):
        """Three sequential draws as a tuple (bulk take).

        Exactly ``(standard_normal(), standard_normal(), standard_normal())``
        — the buffered fast path just avoids three method calls when the
        block holds enough.  The fused Link sampler additionally inlines
        this body's fast path (even one method call per advance is
        measurable against the scale gate) and falls back here across
        block boundaries; any change to ``_buf``/``_idx`` bookkeeping
        must update that inline copy in :mod:`repro.channel.link`.
        """
        buf = self._buf
        i = self._idx
        if i + 3 <= len(buf):
            self._idx = i + 3
            return buf[i], buf[i + 1], buf[i + 2]
        return (
            self.standard_normal(),
            self.standard_normal(),
            self.standard_normal(),
        )

    def rebind(self, gen: np.random.Generator) -> None:
        """Point the cache at a fresh generator, discarding buffered draws.

        The next draw pulls a new block from ``gen``'s start, so a rebound
        cache serves exactly the sequence a newly constructed cache would
        — this is what lets a pooled :class:`~repro.channel.link.Link`
        recycle its cache object across rounds without perturbing any
        stream.
        """
        self._gen = gen
        self._buf = []
        self._idx = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NormalBlockCache(block_size={self.block_size}, "
            f"buffered={len(self._buf) - self._idx})"
        )


def as_normal_cache(
    rng: Union[np.random.Generator, NormalBlockCache]
) -> NormalBlockCache:
    """Wrap a generator in a :class:`NormalBlockCache`; pass caches through.

    Lets the channel processes accept either a raw per-component stream
    (tests, ad-hoc construction) or an explicitly shared cache (a Link's
    shadowing + fading pair, which interleave draws on one stream).
    """
    if isinstance(rng, NormalBlockCache):
        return rng
    return NormalBlockCache(rng)


class RngRegistry:
    """Factory and cache of named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    master_seed:
        Any non-negative integer.  Two registries with equal seeds produce
        identical streams for identical names.

    Examples
    --------
    >>> rngs = RngRegistry(42)
    >>> a = rngs.stream("fading/link-0")
    >>> b = rngs.stream("fading/link-1")
    >>> a is rngs.stream("fading/link-0")
    True
    """

    __slots__ = ("_master_seed", "_streams")

    def __init__(self, master_seed: int = 0) -> None:
        if master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {master_seed}")
        self._master_seed = int(master_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def master_seed(self) -> int:
        """The seed this registry was built from."""
        return self._master_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``, creating it on demand."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(
                np.random.PCG64(derive_seed(self._master_seed, name))
            )
            self._streams[name] = gen
        return gen

    def derive(self, name: str) -> np.random.Generator:
        """A fresh generator for ``name``, *not* cached in the registry.

        Identical stream to what :meth:`stream` would create for the same
        name — use it for single-consumer, never-revisited names (the
        per-round ``link/r<N>/...`` streams), where caching would grow the
        registry by thousands of dead generators per simulated round.
        Never mix: a name must go through either :meth:`stream` or
        :meth:`derive`, since a derived generator cannot continue a cached
        stream's position.
        """
        return np.random.Generator(
            np.random.PCG64(derive_seed(self._master_seed, name))
        )

    def names(self) -> Iterable[str]:
        """Names of all streams created so far (insertion order)."""
        return tuple(self._streams)

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RngRegistry(master_seed={self._master_seed}, "
            f"streams={len(self._streams)})"
        )
