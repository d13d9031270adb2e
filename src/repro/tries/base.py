"""Common interface for longest-prefix-match structures.

Every trie in this package implements :class:`LongestPrefixMatcher` and
accounts two quantities the paper's evaluation consumes:

* **storage** (:meth:`storage_bytes`) — the SRAM footprint of the structure
  under an explicit per-node byte model (Fig. 3 / Sec. 4);
* **memory accesses per lookup** — counted through an :class:`AccessCounter`
  that every lookup routine charges once per dependent memory read
  (Sec. 5.1: Lulea ≈6.2–6.6, DP trie ≈16 accesses per lookup).

From accesses the FE matching time is derived exactly as the paper does:
``time = accesses × SRAM_ACCESS_NS + CODE_EXEC_NS`` and
``cycles = ceil(time / CYCLE_NS)``.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..batching import MAX_KERNEL_WIDTH, batch_enabled
from ..routing.prefix import Prefix
from ..routing.table import NextHop, RoutingTable

#: A compiled batch kernel: uint64 addresses -> (int64 hops, int64 accesses).
BatchKernel = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]

#: Timing constants from the paper (Sec. 5.1).
CYCLE_NS = 5.0
SRAM_ACCESS_NS = 12.0
CODE_EXEC_NS = 120.0


@dataclass
class AccessCounter:
    """Tally of memory accesses performed during lookups."""

    lookups: int = 0
    accesses: int = 0
    max_accesses: int = 0
    _current: int = field(default=0, repr=False)

    def start(self) -> None:
        self.lookups += 1
        self._current = 0

    def touch(self, n: int = 1) -> None:
        """Charge ``n`` dependent memory reads to the current lookup."""
        self.accesses += n
        self._current += n

    def finish(self) -> None:
        if self._current > self.max_accesses:
            self.max_accesses = self._current

    @property
    def mean_accesses(self) -> float:
        return self.accesses / self.lookups if self.lookups else 0.0

    def reset(self) -> None:
        self.lookups = self.accesses = self.max_accesses = self._current = 0


def matching_time_ns(mean_accesses: float) -> float:
    """FE matching time per the paper's model (Sec. 5.1)."""
    return mean_accesses * SRAM_ACCESS_NS + CODE_EXEC_NS


def matching_cycles(mean_accesses: float) -> int:
    """FE matching time in 5 ns cycles (≈40 for Lulea, ≈62 for DP trie)."""
    return math.ceil(matching_time_ns(mean_accesses) / CYCLE_NS)


@dataclass(frozen=True)
class UpdateResult:
    """Cost report for one incremental matcher update.

    ``kind`` is ``"patch"`` (localized surgery) or ``"rebuild"`` (the whole
    structure was reconstructed); ``work`` counts the memory words written.
    Service time follows the paper's FE cost model — one SRAM access per
    word written plus a fixed code-execution overhead — so update service
    and lookup matching share one clock.
    """

    kind: str
    work: int

    @property
    def service_ns(self) -> float:
        return self.work * SRAM_ACCESS_NS + CODE_EXEC_NS

    @property
    def service_cycles(self) -> int:
        return math.ceil(self.service_ns / CYCLE_NS)


class LongestPrefixMatcher(ABC):
    """Abstract LPM structure built from a :class:`RoutingTable`."""

    #: Human-readable short name used in figures ("DP", "LL", "LC", ...).
    name: str = "?"

    def __init__(self) -> None:
        self.counter = AccessCounter()
        self._batch_kernel: Optional[BatchKernel] = None
        self._batch_compiled = False
        #: Optional :class:`repro.obs.profile.KernelProfile`; when attached,
        #: :meth:`lookup_batch` records the compile-vs-traverse time split
        #: and per-lookup access counts.  ``None`` (the default) costs one
        #: truthiness check per batch call.
        self.profiler = None

    @abstractmethod
    def lookup(self, address: int) -> NextHop:
        """Longest-prefix match; returns :data:`NO_ROUTE` when nothing matches."""

    @abstractmethod
    def storage_bytes(self) -> int:
        """SRAM footprint under this structure's byte model."""

    def apply_update(
        self, prefix: Prefix, next_hop: Optional[NextHop]
    ) -> "UpdateResult":
        """Apply one routing update in place (``next_hop=None`` withdraws).

        Returns an :class:`UpdateResult` describing the work done.  The
        default raises :class:`NotImplementedError`; structures without an
        incremental path rely on callers falling back to a full rebuild
        (:meth:`repro.core.SpalRouter.apply_update` does exactly that).
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no incremental update path"
        )

    # -- batch lookups -----------------------------------------------------

    def _compile_batch_kernel(self) -> Optional[BatchKernel]:
        """Build this structure's vectorized kernel, or None to always use
        the scalar fallback.  Called lazily on the first :meth:`lookup_batch`
        and again after :meth:`_invalidate_batch`."""
        return None

    def _invalidate_batch(self) -> None:
        """Drop the compiled kernel (mutating structures call this on every
        insert/delete; the kernel recompiles on the next batch lookup)."""
        self._batch_kernel = None
        self._batch_compiled = False

    def lookup_batch(
        self, addresses: Union[np.ndarray, Sequence[int]]
    ) -> np.ndarray:
        """Vectorized longest-prefix match over many addresses at once.

        Returns an int64 array of next hops, element ``i`` bit-identical to
        ``lookup(int(addresses[i]))``.  Structures with an array-packed
        kernel traverse level-synchronously (all in-flight addresses advance
        one level per vector op); everything else — and every structure when
        ``REPRO_BATCH=0`` or the width exceeds 64 bits — falls back to a
        scalar loop.  The access counter advances exactly as the equivalent
        scalar loop would.
        """
        n = len(addresses)
        if n == 0:
            return np.empty(0, dtype=np.int64)
        width = getattr(self, "width", 0)
        profiler = self.profiler
        if batch_enabled() and 0 < width <= MAX_KERNEL_WIDTH:
            if not self._batch_compiled:
                if profiler is not None:
                    t0 = time.perf_counter()
                    self._batch_kernel = self._compile_batch_kernel()
                    profiler.record_compile(time.perf_counter() - t0)
                else:
                    self._batch_kernel = self._compile_batch_kernel()
                self._batch_compiled = True
            kernel = self._batch_kernel
            if kernel is not None:
                if profiler is not None:
                    t0 = time.perf_counter()
                    hops, accesses = kernel(
                        np.asarray(addresses, dtype=np.uint64)
                    )
                    profiler.record_batch(accesses, time.perf_counter() - t0)
                else:
                    hops, accesses = kernel(
                        np.asarray(addresses, dtype=np.uint64)
                    )
                counter = self.counter
                counter.lookups += n
                counter.accesses += int(accesses.sum())
                peak = int(accesses.max())
                if peak > counter.max_accesses:
                    counter.max_accesses = peak
                return hops
        out = np.empty(n, dtype=np.int64)
        lookup = self.lookup
        if profiler is not None:
            t0 = time.perf_counter()
            for i, address in enumerate(addresses):
                out[i] = lookup(int(address))
            profiler.record_scalar(n, time.perf_counter() - t0)
            return out
        for i, address in enumerate(addresses):
            out[i] = lookup(int(address))
        return out

    def storage_kbytes(self) -> float:
        return self.storage_bytes() / 1024.0

    def pool_bytes(self) -> int:
        """Measured bytes of the structure's backing arrays.

        Packed matchers override this with the live
        :meth:`repro.tries.pool.NodePool.nbytes` of their pools; the
        default falls back to the idealized :meth:`storage_bytes` model.
        """
        return self.storage_bytes()

    def measure(
        self, addresses: Iterable[int], profiler=None
    ) -> Tuple[float, int]:
        """Run lookups over ``addresses``; return (mean, max) accesses.

        ``profiler`` optionally attaches a
        :class:`repro.obs.profile.KernelProfile` for this call only
        (compile/traverse time split, per-level node-touch counts); the
        measured accesses are unaffected either way.
        """
        self.counter.reset()
        addrs = (
            addresses
            if isinstance(addresses, (list, np.ndarray))
            else [int(a) for a in addresses]
        )
        if profiler is not None:
            previous = self.profiler
            self.profiler = profiler
            try:
                self.lookup_batch(addrs)
            finally:
                self.profiler = previous
        else:
            self.lookup_batch(addrs)
        return self.counter.mean_accesses, self.counter.max_accesses


def check_matcher(
    matcher: LongestPrefixMatcher,
    table: RoutingTable,
    addresses: Iterable[int],
) -> None:
    """Assert the matcher agrees with the reference oracle (test helper)."""
    for address in addresses:
        address = int(address)
        got = matcher.lookup(address)
        want = table.lookup(address)
        if got != want:
            raise AssertionError(
                f"{matcher.name} lookup({address:#x}) = {got}, oracle = {want}"
            )


def sorted_routes(table: RoutingTable) -> list[tuple[Prefix, NextHop]]:
    """Routes sorted by (value, length): canonical build order for tries."""
    return sorted(table.routes(), key=lambda r: (r[0].value, r[0].length))


def sorted_route_arrays(
    table: RoutingTable,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(values, lengths, hops)`` columns sorted by (value, length).

    The array-native counterpart of :func:`sorted_routes` for widths that
    fit uint64: no :class:`Prefix` objects are created, so full-BGP-scale
    tables sort in a single ``lexsort``.  Columnar tables
    (:class:`repro.routing.arraytable.ArrayRoutingTable`) hand over their
    columns directly; dict-backed tables are columnized first.
    """
    if table.width > 64:
        raise ValueError("sorted_route_arrays requires width <= 64")
    from ..routing.arraytable import table_columns

    values, lengths, hops = table_columns(table)
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    hops = np.asarray(hops, dtype=np.int64)
    order = np.lexsort((lengths, values))
    return values[order], lengths[order], hops[order]
