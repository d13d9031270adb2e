"""Chunked packet streams: the array engine's input format.

A :class:`PacketStream` declares its *length* up front and yields
destinations in fixed-size chunks.  The array engine's one event loop
(:meth:`repro.sim.array_engine.ArrayEngine.run_streamed`) pulls chunks on
demand and merges them into arrival windows of at most a fixed number
of arrivals in total, whatever the LC count.  Only packets that leave
the cache-hit path hold per-packet state, recycled as they retire —
peak memory follows the window cap and the in-flight population, not
the chunk size, the LC count or the packet count.  A materialized
per-LC array is simply a stream with one chunk
(:meth:`PacketStream.from_array`), which is how ``SpalSimulator.run``
feeds plain arrays to the array engine.

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

from ..core.domain import is_int
from ..errors import SimulationError

#: Default stream chunk: big enough to amortize per-chunk NumPy overhead,
#: small enough that a few buffered chunks per LC stay in cache.
DEFAULT_CHUNK = 65_536


def dest_column(col, width: int, lc: int) -> np.ndarray:
    """LC ``lc``'s destinations ``col`` as the engines read them:
    contiguous ``uint64``, or above 64 bits an object array of ints.
    ``col`` MUST hold ``width``-bit addresses in an integer dtype, or an
    object column of ints above 64 bits (an empty one may have any dtype);
    this is checked before the ``uint64`` cast, so a fractional or negative
    one raises :class:`SimulationError` instead of being cut or wrapped.
    A plain sequence of ints is read exactly at every width (NumPy alone
    reads one at or above 2**63 beside smaller ones as float64)."""
    arr = np.asarray(col)
    if not len(arr):
        return np.empty(0, dtype=np.uint64)
    kind = arr.dtype.kind
    if (kind in "fO" and not isinstance(col, np.ndarray)
            and all(map(is_int, col))):
        arr = np.array(col, dtype=object)
    elif not (kind in "iu" or (
            kind == "O" and width > 64 and all(map(is_int, arr)))):
        raise SimulationError(
            f"stream for LC {lc} holds non-integer destinations "
            f"(dtype {arr.dtype})"
        )
    if (kind != "u" and arr.min() < 0) or int(arr.max()) >> width:
        raise SimulationError(
            f"stream for LC {lc} holds a destination outside the "
            f"{width}-bit address space"
        )
    if width > 64 and arr.dtype.kind == "O":
        return arr
    return np.ascontiguousarray(arr, np.uint64)


class PacketStream:
    """A per-LC destination source of known length, consumed in chunks.

    ``factory()`` must return a fresh iterator of :func:`dest_column`
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
        arr = np.asarray(dests)
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
                yield make_chunk(lo, n)

        return cls(length, factory)

    def materialize(self, width: int = 128, lc: int = 0) -> np.ndarray:
        """The whole stream as one array, each chunk checked by
        :func:`dest_column` (the scalar engine's entry point — it is the
        readable reference loop, not the scale path, and schedules
        per-packet objects anyway)."""
        parts = [dest_column(c, width, lc) for c in self.chunks()]
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
