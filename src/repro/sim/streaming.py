"""Chunked packet streams: the array engine's input format.

A :class:`PacketStream` declares its *length* up front and yields
destinations in fixed-size chunks.  The array engine's one event loop
(:meth:`repro.sim.array_engine.ArrayEngine.run_streamed`) pulls chunks on
demand, merges per-LC arrival windows, and recycles per-packet state as
packets retire — peak memory tracks the chunk size and the in-flight
population, not the packet count.  A materialized per-LC array is simply
a stream with one chunk (:meth:`PacketStream.from_array`), which is how
``SpalSimulator.run`` feeds plain arrays to the array engine.

The chunking is *semantically invisible*: a run over
``PacketStream.from_array(a, chunk_size=c)`` is bit-identical to the run
over ``a`` itself — and to the scalar loop over ``a`` — for every ``c``
(including per-packet chunks and one whole-trace chunk).
``tests/test_streaming.py`` pins this with golden-digest comparisons and
a Hypothesis sweep over random chunk boundaries.

Streams declare their length because the engine pre-assigns the arrival
sequence-number block (event keys embed the scalar scheduler's lc-major
packet numbering) and the conservation check needs the offered total.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ..errors import SimulationError

#: Default stream chunk: big enough to amortize per-chunk NumPy overhead,
#: small enough that a few buffered chunks per LC stay in cache.
DEFAULT_CHUNK = 65_536


def _as_dest_array(chunk) -> np.ndarray:
    """Destinations as ``uint64`` — except 128-bit (IPv6) addresses, which
    stay as an object array of Python ints (uint64 would overflow)."""
    arr = np.asarray(chunk)
    if arr.dtype == object:
        return arr
    return np.ascontiguousarray(arr.astype(np.uint64, copy=False))


class PacketStream:
    """A per-LC destination source of known length, consumed in chunks.

    ``factory()`` must return a fresh iterator of ``uint64``-coercible
    arrays whose lengths sum to ``length``.  The factory (rather than a
    bare iterator) keeps streams reusable — simulators are single-use, but
    differential tests drive the same stream definition through several
    runs.
    """

    __slots__ = ("_length", "_factory")

    def __init__(
        self,
        length: int,
        factory: Callable[[], Iterator[np.ndarray]],
    ):
        if length < 0:
            raise SimulationError("stream length must be non-negative")
        self._length = int(length)
        self._factory = factory

    def __len__(self) -> int:
        return self._length

    def chunks(self) -> Iterator[np.ndarray]:
        """A fresh pass over the stream's destination chunks."""
        return iter(self._factory())

    @classmethod
    def from_array(
        cls, dests: Sequence[int], chunk_size: Optional[int] = None
    ) -> "PacketStream":
        """Wrap a materialized array, re-chunked at ``chunk_size``
        (``None`` = one whole-trace chunk — the ∞ case differential tests
        use as the streaming-path baseline)."""
        arr = _as_dest_array(dests)
        if chunk_size is not None and chunk_size <= 0:
            raise SimulationError("chunk_size must be positive")

        def factory() -> Iterator[np.ndarray]:
            if chunk_size is None:
                if len(arr):
                    yield arr
                return
            for lo in range(0, len(arr), chunk_size):
                yield arr[lo:lo + chunk_size]

        return cls(len(arr), factory)

    @classmethod
    def from_generator(
        cls,
        length: int,
        make_chunk: Callable[[int, int], np.ndarray],
        chunk_size: int = DEFAULT_CHUNK,
    ) -> "PacketStream":
        """A synthetic stream: ``make_chunk(start, n)`` produces the
        destinations for positions ``[start, start + n)`` on demand.  The
        scale harness drives 10^6+-packet runs through this without ever
        holding more than one chunk per LC."""
        if chunk_size <= 0:
            raise SimulationError("chunk_size must be positive")

        def factory() -> Iterator[np.ndarray]:
            for lo in range(0, length, chunk_size):
                n = min(chunk_size, length - lo)
                yield _as_dest_array(make_chunk(lo, n))

        return cls(length, factory)

    def materialize(self) -> np.ndarray:
        """The whole stream as one array (the scalar engine's entry
        point — it is the readable reference loop, not the scale path,
        and schedules per-packet objects anyway)."""
        parts = [_as_dest_array(c) for c in self.chunks()]
        out = (
            np.concatenate(parts)
            if parts
            else np.empty(0, dtype=np.uint64)
        )
        if len(out) != self._length:
            raise SimulationError(
                f"stream declared {self._length} packets but produced "
                f"{len(out)}"
            )
        return out


def random_stream(
    length: int,
    width: int = 32,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK,
) -> PacketStream:
    """Uniform random destinations over the address space, generated
    chunk-by-chunk (each chunk re-derives its RNG from ``(seed, start)``
    so chunks are independent of consumption order)."""
    if width <= 0 or width > 64:
        raise SimulationError("random_stream supports widths 1..64")
    high = (1 << width) - 1

    def make_chunk(start: int, n: int) -> np.ndarray:
        rng = np.random.default_rng((seed, start))
        return rng.integers(0, high, size=n, dtype=np.uint64, endpoint=True)

    return PacketStream.from_generator(length, make_chunk, chunk_size)
