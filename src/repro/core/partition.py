"""SPAL table partitioning (paper Sec. 3.1).

The routing table is fragmented into ψ ROT-partitions using η = ⌈log2 ψ⌉
selected bit positions of the prefixes.  A prefix belongs to every partition
whose bit pattern is compatible with it: at each selected position the prefix
either has that bit value or a wildcard ``*`` (position beyond its length).

Bit selection follows the paper's two criteria, applied recursively:

* **Criterion (1)** — minimise replication: choose the bit ``b_ν`` with the
  smallest Φ* (number of prefixes whose bit ν is ``*``), since each such
  prefix appears in both subsets.
* **Criterion (2)** — balance: minimise |Φ0 − Φ1| over the prefixes whose
  bit ν is defined.

For multiple control bits the criteria are applied recursively: the first
bit is chosen over the whole set; the second is chosen by evaluating
candidate bits on each of the two subsets separately and picking the single
position best for both subsets combined, and so on — all partitions use the
same global bit positions, which is what lets a line card route a packet to
its home LC by examining η fixed positions of the destination address
(the LR1 detector of Fig. 2).

ψ need not be a power of two: the 2^η bit patterns are assigned to ψ line
cards with a balanced (longest-processing-time) mapping, so e.g. ψ = 3 gives
two LCs one pattern each and one LC two patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import PartitionError, UnreachablePatternError
from ..routing.arraytable import ArrayRoutingTable, _take, table_columns
from ..routing.prefix import Prefix
from ..routing.table import NextHop, RoutingTable


def _candidate_list(
    candidate_positions: Optional[Sequence[int]], width: int, n_bits: int
) -> List[int]:
    """The candidate control-bit positions, checked: every bit of the
    address width by default, else a non-empty list of distinct positions
    inside it (kept in the caller's order, which breaks ties), with at
    least ``n_bits`` of them."""
    if candidate_positions is None:
        candidates = list(range(width))
    else:
        candidates = [int(c) for c in candidate_positions]
        if not candidates:
            raise PartitionError("no candidate bit positions given")
        if len(set(candidates)) != len(candidates):
            raise PartitionError("duplicate candidate bit positions")
        if any(not 0 <= c < width for c in candidates):
            raise PartitionError("candidate bit position out of range")
    if n_bits > len(candidates):
        raise PartitionError(
            f"cannot choose {n_bits} bits from {len(candidates)} candidates"
        )
    return candidates


def select_partition_bits(
    table: RoutingTable,
    n_bits: int,
    candidate_positions: Optional[Sequence[int]] = None,
) -> List[int]:
    """Choose ``n_bits`` control-bit positions per the paper's criteria.

    ``candidate_positions`` defaults to every bit of the address width; the
    paper notes large positions (ν > 24) are effectively ruled out by
    Criterion (1) because most prefixes are shorter, so no explicit cut-off
    is needed.  An explicit list must be non-empty, distinct and inside
    the width; on equal scores the earlier candidate wins.

    Each bit is chosen recursively: every current subset (the replicated
    rows compatible with one pattern over the bits chosen so far) is
    split hypothetically on each remaining candidate, and the candidate
    with the smallest (max partition size, total size, spread) wins.  Φ*
    inflates both max and total (Criterion 1) and |Φ0−Φ1| inflates the
    max and the spread (Criterion 2); the max comes first because each
    LC's SRAM is sized by its own partition.  One round scores every
    (subset, candidate) pair with ``width / 8 + 1`` ``bincount`` passes
    over the table's packed columns (:func:`_best_bit`), at every width.
    """
    if n_bits < 0:
        raise PartitionError(f"n_bits must be non-negative, got {n_bits}")
    candidates = _candidate_list(candidate_positions, table.width, n_bits)
    if n_bits == 0:
        return []
    values, lengths, _ = table_columns(table)
    return _split_routes(values, lengths, table.width, n_bits, candidates)[0]


#: ``_BYTE_BITS[v, j]`` is bit ``j`` (MSB first) of the byte value ``v``.
_BYTE_BITS = (np.arange(256)[:, None] >> (7 - np.arange(8))) & 1


def _address_bytes(values, width: int) -> np.ndarray:
    """The values as a ``(⌈width / 8⌉, n)`` uint8 matrix, one row per
    address byte, most significant first: bit position ``p`` is bit
    ``7 - p % 8`` of row ``p // 8``.

    A uint64 column is shifted to the top of the word and read
    big-endian; Python ints (above 64 bits) go through ``int.to_bytes``.
    """
    n_bytes = (width + 7) // 8
    if isinstance(values, np.ndarray):
        top = values.astype(np.uint64) << np.uint64(64 - width)
        matrix = top.astype(">u8").view(np.uint8).reshape(-1, 8)[:, :n_bytes]
    else:
        pad = 8 * n_bytes - width
        raw = b"".join((v << pad).to_bytes(n_bytes, "big") for v in values)
        matrix = np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_bytes)
    return np.ascontiguousarray(matrix.T)


def _best_bit(
    matrix: np.ndarray,
    rows: np.ndarray,
    lengths: np.ndarray,
    labels: np.ndarray,
    n_subsets: int,
    candidates: Sequence[int],
    width: int,
) -> int:
    """The candidate whose hypothetical split of every subset gives the
    smallest (max, total, spread) key; the first one on a tie.

    ``rows`` index the byte ``matrix``; ``lengths`` and ``labels`` (the
    subset of each row) run parallel to them.  For every (subset,
    position) pair at once:

    * Φ* (rows with ``length <= position``) is the running sum of the
      subset's length histogram;
    * Φ1 is the subset's histogram of each address byte times
      :data:`_BYTE_BITS`.  A set bit lies inside its route's length
      (tables reject set host bits), so no wildcard row counts;
    * Φ0 is the subset size minus Φ* minus Φ1.
    """
    span = width + 1
    wild = np.bincount(
        labels * span + lengths, minlength=n_subsets * span
    ).reshape(n_subsets, span).cumsum(axis=1)
    size = wild[:, width:]
    wild = wild[:, :width]
    ones = np.zeros((n_subsets, 8 * len(matrix)), dtype=np.int64)
    base = labels << 8
    for byte in sorted({c >> 3 for c in candidates}):
        counts = np.bincount(
            base + matrix[byte][rows], minlength=n_subsets << 8
        ).reshape(n_subsets, 256)
        ones[:, 8 * byte:8 * byte + 8] = counts @ _BYTE_BITS
    ones = ones[:, :width]
    zero_side = size - ones      # Φ0 + Φ*
    one_side = ones + wild       # Φ1 + Φ*
    largest = np.maximum(zero_side.max(axis=0), one_side.max(axis=0))
    smallest = np.minimum(zero_side.min(axis=0), one_side.min(axis=0))
    total = (size + wild).sum(axis=0)
    return min(
        candidates,
        key=lambda c: (
            int(largest[c]), int(total[c]), int(largest[c] - smallest[c])
        ),
    )


def _split_rows(rows, lengths, labels, bit, wild):
    """Split labelled rows on one control bit: ``labels`` gains the bit as
    its new low bit, and a wildcard row is replicated into both halves.

    ``np.repeat`` puts each replica right after its original, so rows
    that were in source order stay in source order.
    """
    labels = labels * 2 + np.where(wild, 0, bit)
    if not wild.any():
        return rows, lengths, labels
    copies = 1 + wild.astype(np.int64)
    labels = np.repeat(labels, copies)
    labels[np.cumsum(copies)[wild] - 1] += 1
    return np.repeat(rows, copies), np.repeat(lengths, copies), labels


def _split_routes(
    values,
    lengths: np.ndarray,
    width: int,
    n_bits: int,
    candidates: Sequence[int] = (),
    bits: Optional[Sequence[int]] = None,
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """``(bits, rows, patterns)``: the control bits, and one
    ``(row, pattern)`` pair per route and bit pattern it is compatible
    with, computed from a table's packed columns.

    The bits are ``bits`` when given, else ``n_bits`` of ``candidates``
    chosen one round at a time by :func:`_best_bit` over the rows split
    so far.  A route is replicated at each selected position past its
    length (:func:`_split_rows`), so ``rows`` (indexes into the table's
    iteration order) stays in source order.
    """
    matrix = _address_bytes(values, width)
    lengths = np.asarray(lengths, dtype=np.int64)
    rows = np.arange(len(lengths), dtype=np.int64)
    patterns = np.zeros(len(lengths), dtype=np.int64)
    remaining = list(candidates)
    chosen: List[int] = []
    for _ in range(n_bits if bits is None else len(bits)):
        if bits is None:
            position = _best_bit(
                matrix, rows, lengths, patterns, 1 << len(chosen),
                remaining, width,
            )
            remaining.remove(position)
        else:
            position = bits[len(chosen)]
        chosen.append(position)
        bit = (matrix[position >> 3][rows] >> (7 - (position & 7))) & 1
        rows, lengths, patterns = _split_rows(
            rows, lengths, patterns, bit, lengths <= position
        )
    return chosen, rows, patterns


def pattern_of(address: int, bits: Sequence[int], width: int) -> int:
    """The control-bit pattern of an address: bit ``bits[0]`` is the MSB of
    the pattern (this is the LR1 detector of Fig. 2)."""
    pattern = 0
    for position in bits:
        pattern = (pattern << 1) | ((address >> (width - 1 - position)) & 1)
    return pattern


def _address_column(addresses, width: int) -> np.ndarray:
    """The addresses as one numpy column: uint64 up to 64 bits, Python
    ints (object) beyond, where numpy has no integer dtype wide enough."""
    return np.asarray(addresses, dtype=np.uint64 if width <= 64 else object)


def pattern_of_batch(
    addresses: np.ndarray, bits: Sequence[int], width: int
) -> np.ndarray:
    """Vectorized :func:`pattern_of`: one int64 pattern per address, at
    any width (uint64 up to 64 bits, Python ints above)."""
    addrs = _address_column(addresses, width)
    pattern = np.zeros(addrs.shape[0], dtype=np.int64)
    for position in bits:
        bit = ((addrs >> (width - 1 - position)) & 1).astype(np.int64)
        pattern = (pattern << 1) | bit
    return pattern


def patterns_of_prefix(prefix: Prefix, bits: Sequence[int]) -> List[int]:
    """All control-bit patterns a prefix is compatible with (wildcard
    positions expand to both values)."""
    patterns = [0]
    for position in bits:
        bit = prefix.bit(position) if position < prefix.width else -1
        if bit == -1 or position >= prefix.length:
            patterns = [p << 1 for p in patterns] + [
                (p << 1) | 1 for p in patterns
            ]
        else:
            patterns = [(p << 1) | bit for p in patterns]
    return patterns


def assign_patterns_to_lcs(
    pattern_sizes: Sequence[int], n_lcs: int
) -> List[int]:
    """Balanced pattern → LC assignment (LPT bin packing).

    Returns ``lc_of_pattern``: for each of the 2^η patterns, the LC index
    holding it.  With ψ a power of two this is the identity; otherwise
    patterns are spread so LC forwarding-table sizes stay as equal as
    possible (paper: ψ can be "any integer, say 3, 5, 6, 7").
    """
    n_patterns = len(pattern_sizes)
    if n_lcs <= 0:
        raise PartitionError(f"need at least one LC, got {n_lcs}")
    if n_lcs > n_patterns:
        raise PartitionError(
            f"{n_lcs} LCs but only {n_patterns} patterns; increase n_bits"
        )
    if n_lcs == n_patterns:
        return list(range(n_patterns))
    order = sorted(range(n_patterns), key=lambda i: -pattern_sizes[i])
    loads = [0] * n_lcs
    counts = [0] * n_lcs
    lc_of_pattern = [0] * n_patterns
    remaining = n_patterns
    for pattern in order:
        # Longest-processing-time: put the biggest unassigned pattern on the
        # least-loaded LC that can still accept one (every LC must end up
        # with at least one pattern).
        must_fill = [
            lc for lc in range(n_lcs) if counts[lc] == 0
        ]
        if len(must_fill) == remaining:
            lc = min(must_fill, key=lambda i: loads[i])
        else:
            lc = min(range(n_lcs), key=lambda i: loads[i])
        lc_of_pattern[pattern] = lc
        loads[lc] += pattern_sizes[pattern]
        counts[lc] += 1
        remaining -= 1
    return lc_of_pattern


@dataclass(eq=False)
class PartitionPlan:
    """A complete SPAL partitioning of one routing table.

    Attributes
    ----------
    bits:
        Selected control-bit positions (η of them, MSB of the pattern first).
    n_lcs:
        ψ, the number of line cards.
    lc_of_pattern:
        Pattern → LC mapping (identity when ψ is a power of two).
    tables:
        One forwarding :class:`RoutingTable` per LC (the ROT-partition
        union for its patterns).
    """

    bits: List[int]
    n_lcs: int
    lc_of_pattern: List[int]
    tables: List[RoutingTable]
    source_version: int = 0
    #: Replica LCs per pattern (parallel to ``lc_of_pattern``; entry 0 is
    #: the primary).  Populated when ``partition_table(replicas > 1)``.
    replicas_of_pattern: Optional[List[List[int]]] = None
    #: LCs currently marked failed (affects ``home_lc`` replica choice).
    failed_lcs: "set[int]" = field(default_factory=set)
    #: Mutation counter: bumped by every :meth:`fail_lc`/:meth:`restore_lc`.
    #: Anything cached from the failure state (the padded live-replica
    #: table below) keys on this and recomputes on mismatch.
    epoch: int = 0
    #: Cached ``(epoch, live_tab, n_live)`` for :meth:`home_lc_batch`.
    _live_cache: Optional[tuple] = field(
        default=None, init=False, repr=False
    )

    @property
    def width(self) -> int:
        return self.tables[0].width

    def home_lc(self, address: int) -> int:
        """The home LC of an address (LR1 detector): :meth:`home_of_pattern`
        of its control-bit pattern."""
        return self.home_of_pattern(
            pattern_of(address, self.bits, self.width), address
        )

    def home_of_pattern(self, pattern: int, address: int) -> int:
        """The home LC of ``address``, whose control-bit pattern is
        ``pattern``: with replication, the live replica its low bits pick
        (one flow stays on one replica, cacheable there)."""
        if self.replicas_of_pattern is None:
            return self.lc_of_pattern[pattern]
        replicas = self.replicas_of_pattern[pattern]
        live = [lc for lc in replicas if lc not in self.failed_lcs]
        if not live:
            raise UnreachablePatternError(
                f"all replicas of pattern {pattern:#b} have failed"
            )
        return live[address % len(live)]

    def live_replicas(self, address: int) -> List[int]:
        """The live LCs able to answer lookups for ``address``, primary
        first.  Empty when every holder has failed (an unreplicated plan
        has exactly one holder)."""
        pattern = pattern_of(address, self.bits, self.width)
        if self.replicas_of_pattern is None:
            holders = [self.lc_of_pattern[pattern]]
        else:
            holders = self.replicas_of_pattern[pattern]
        return [lc for lc in holders if lc not in self.failed_lcs]

    def home_lc_batch(self, addresses: Sequence[int]) -> np.ndarray:
        """Vectorized :meth:`home_lc` over a whole address stream, at any
        width: one column body for uint64 and Python-int addresses."""
        if len(addresses) == 0:
            return np.empty(0, dtype=np.int64)
        addrs = _address_column(addresses, self.width)
        patterns = pattern_of_batch(addrs, self.bits, self.width)
        if self.replicas_of_pattern is None:
            return np.asarray(self.lc_of_pattern, dtype=np.int64)[patterns]
        live_tab, n_live = self._live_replica_table()
        counts = n_live[patterns]
        if not counts.all():
            dead = int(patterns[counts == 0][0])
            raise UnreachablePatternError(
                f"all replicas of pattern {dead:#b} have failed"
            )
        choice = (addrs % counts.astype(addrs.dtype)).astype(np.int64)
        return live_tab[patterns, choice]

    def _live_replica_table(self) -> tuple:
        """Padded live-replica table: row per pattern, failed LCs dropped.

        Cached per :attr:`epoch` so repeated ``home_lc_batch`` calls under
        an unchanged failure set don't rebuild it.
        """
        cached = self._live_cache
        if cached is not None and cached[0] == self.epoch:
            return cached[1], cached[2]
        assert self.replicas_of_pattern is not None
        n_patterns = len(self.replicas_of_pattern)
        max_r = max(len(r) for r in self.replicas_of_pattern)
        live_tab = np.zeros((n_patterns, max_r), dtype=np.int64)
        n_live = np.zeros(n_patterns, dtype=np.int64)
        for p, replicas in enumerate(self.replicas_of_pattern):
            live = [lc for lc in replicas if lc not in self.failed_lcs]
            n_live[p] = len(live)
            live_tab[p, : len(live)] = live
        self._live_cache = (self.epoch, live_tab, n_live)
        return live_tab, n_live

    def fail_lc(self, lc: int) -> None:
        """Mark an LC failed: its home load shifts to surviving replicas.

        Without replication a failed LC's patterns become unreachable —
        the fault-tolerance argument for ``replicas > 1``.
        """
        if not 0 <= lc < self.n_lcs:
            raise PartitionError(f"LC {lc} out of range")
        if lc not in self.failed_lcs:
            self.failed_lcs.add(lc)
            self.epoch += 1

    def restore_lc(self, lc: int) -> None:
        """Clear an LC's failed mark (idempotent for live LCs)."""
        if not 0 <= lc < self.n_lcs:
            raise PartitionError(f"LC {lc} out of range")
        if lc in self.failed_lcs:
            self.failed_lcs.discard(lc)
            self.epoch += 1

    def copy_for_faults(self) -> "PartitionPlan":
        """An independent view of this plan for a fault-injected run.

        Shares the (read-only) forwarding tables and pattern maps but owns
        its ``failed_lcs`` set and epoch, so a simulator applying a
        :class:`~repro.core.faults.FaultSchedule` never mutates a plan that
        other runs (or a memoizing caller) also hold.
        """
        return PartitionPlan(
            bits=self.bits,
            n_lcs=self.n_lcs,
            lc_of_pattern=self.lc_of_pattern,
            tables=self.tables,
            source_version=self.source_version,
            replicas_of_pattern=self.replicas_of_pattern,
            failed_lcs=set(self.failed_lcs),
            epoch=self.epoch,
        )

    def copy_for_updates(self) -> "PartitionPlan":
        """An independent view for a run that applies routing updates.

        Unlike :meth:`copy_for_faults` this also deep-copies the per-LC
        forwarding tables, because a churn run *mutates* them — a shared
        (possibly memoized) plan must never see another run's updates.
        """
        plan = self.copy_for_faults()
        plan.tables = [t.copy() for t in self.tables]
        return plan

    def partition_sizes(self) -> List[int]:
        return [len(t) for t in self.tables]

    def observe_into(self, registry) -> None:
        """Publish the plan's shape to a :class:`repro.obs.MetricsRegistry`:
        per-LC partition sizes, control-bit count, replication degree, and
        how many LCs are currently marked failed.  Called at snapshot time
        (plans have no hot path of their own — ``home_lc_batch`` is already
        a single vector op)."""
        for lc, size in enumerate(self.partition_sizes()):
            registry.gauge("partition.routes", lc=lc).set(size)
        registry.gauge("partition.control_bits").set(len(self.bits))
        replicas = (
            len(self.replicas_of_pattern[0])
            if self.replicas_of_pattern
            else 1
        )
        registry.gauge("partition.replicas").set(replicas)
        registry.gauge("partition.failed_lcs").set(len(self.failed_lcs))
        registry.counter("partition.epoch").value = self.epoch

    def replication_factor(self, table: RoutingTable) -> float:
        """Mean number of partitions each original prefix appears in."""
        total = sum(self.partition_sizes())
        return total / len(table) if len(table) else 0.0


def partition_table(
    table: RoutingTable,
    n_lcs: int,
    bits: Optional[Sequence[int]] = None,
    candidate_positions: Optional[Sequence[int]] = None,
    pattern_oversubscription: Optional[int] = None,
    replicas: int = 1,
) -> PartitionPlan:
    """Fragment ``table`` into forwarding tables for ``n_lcs`` line cards.

    ``bits`` overrides automatic selection (used by the ablation comparing
    criteria-chosen bits against naive choices); otherwise η bits are
    chosen from ``candidate_positions`` as :func:`select_partition_bits`
    does.

    ``replicas`` homes every pattern on that many distinct LCs (an
    extension beyond the paper): per-LC forwarding tables grow roughly
    ``replicas``-fold, in exchange for spreading home-lookup load across
    the replicas and tolerating ``replicas − 1`` LC failures per pattern
    (see :meth:`PartitionPlan.fail_lc`).

    ``pattern_oversubscription`` controls the number of control bits for
    non-power-of-two ψ.  The paper uses exactly η = ⌈log2 ψ⌉ bits; with
    ψ = 3 that gives one LC *half* of the address space as its home share,
    which overloads its FE at high line rates.  The default therefore uses
    enough bits that 2^η ≥ oversub × ψ (oversub = 4) whenever ψ is not a
    power of two, so the balanced pattern→LC assignment can even out both
    table sizes and home traffic.  Pass ``pattern_oversubscription=1`` for
    the paper's exact η.  Power-of-two ψ always uses exactly ⌈log2 ψ⌉.

    Every argument is checked before any route is read.  Bit selection
    and the split are one pass over the table's packed columns
    (:func:`_split_routes`): the rows selection splits on its chosen bits
    are the split, so the table is split once.  Each LC's table is an
    :class:`~repro.routing.arraytable.ArrayRoutingTable` over row slices
    of the columns.  It lists its routes ordered by the first pattern
    it holds that the route is compatible with, then by source order,
    each route once.
    """
    if n_lcs <= 0:
        raise PartitionError(f"need at least one LC, got {n_lcs}")
    if not 1 <= replicas <= n_lcs:
        raise PartitionError(
            f"replicas must be in [1, n_lcs]; got {replicas} for {n_lcs} LCs"
        )
    eta = max(n_lcs - 1, 0).bit_length()  # ⌈log2 ψ⌉
    power_of_two = n_lcs & (n_lcs - 1) == 0
    if not power_of_two:
        oversub = 4 if pattern_oversubscription is None else pattern_oversubscription
        if oversub < 1:
            raise PartitionError("pattern_oversubscription must be >= 1")
        while (1 << eta) < oversub * n_lcs:
            eta += 1
    bit_list: Optional[List[int]] = None
    if bits is not None:
        bit_list = [int(b) for b in bits]
        if (1 << len(bit_list)) < n_lcs:
            raise PartitionError(
                f"{len(bit_list)} bits give {1 << len(bit_list)} patterns; "
                f"need at least {n_lcs}"
            )
        if len(set(bit_list)) != len(bit_list):
            raise PartitionError("duplicate partition bits")
        if any(not 0 <= b < table.width for b in bit_list):
            raise PartitionError("partition bit out of range")
    candidates = _candidate_list(
        candidate_positions, table.width, eta if bit_list is None else 0
    )
    if len(table) == 0:
        raise PartitionError("cannot partition an empty routing table")

    values, lengths, hops = table_columns(table)
    bit_list, rows, patterns = _split_routes(
        values, lengths, table.width, eta, candidates, bits=bit_list
    )
    counts = np.bincount(patterns, minlength=1 << len(bit_list))
    lc_of_pattern = assign_patterns_to_lcs(counts.tolist(), n_lcs)
    replicas_of_pattern: Optional[List[List[int]]] = None
    if replicas > 1:
        # Replica k of a pattern lives k LCs after the primary (mod ψ):
        # deterministic, distinct, and spreads secondary load evenly.
        replicas_of_pattern = [
            [(primary + k) % n_lcs for k in range(replicas)]
            for primary in lc_of_pattern
        ]

    # Pattern-major, source order within a pattern: pattern p's routes are
    # rows[ends[p] - counts[p]:ends[p]].
    order = np.argsort(patterns, kind="stable")
    rows = rows[order]
    ends = np.cumsum(counts)
    holders = np.asarray(
        replicas_of_pattern
        if replicas_of_pattern is not None
        else [[lc] for lc in lc_of_pattern]
    )
    # Each LC table is a row slice of the source columns: no Prefix
    # objects and no dicts between the source table and the matchers.
    tables = []
    for lc in range(n_lcs):
        held = np.flatnonzero((holders == lc).any(axis=1))
        mine = np.concatenate(
            [rows[ends[p] - counts[p]:ends[p]] for p in held.tolist()]
        )
        # A route compatible with several held patterns repeats in
        # ``mine``; it keeps its first (lowest-pattern) position.
        _, first = np.unique(mine, return_index=True)
        keep = mine[np.sort(first)]
        target = ArrayRoutingTable(
            _take(values, keep), lengths[keep], hops[keep], table.width,
            validate=False,
        )
        # One version bump per (held pattern, route) pair, repeats included.
        target.version = len(mine)
        tables.append(target)
    return PartitionPlan(
        bits=bit_list,
        n_lcs=n_lcs,
        lc_of_pattern=lc_of_pattern,
        tables=tables,
        source_version=table.version,
        replicas_of_pattern=replicas_of_pattern,
    )


def apply_route_update(
    plan: PartitionPlan,
    prefix: Prefix,
    next_hop: Optional[NextHop],
) -> List[int]:
    """Apply one incremental routing update to a partition plan.

    ``next_hop=None`` deletes the route.  Returns the list of LC indexes
    whose forwarding tables changed: those LCs must rebuild/patch their
    tries, and the simulator then invalidates LR-cache entries per its
    ``update_policy`` (selective by default; ``"flush"`` is the paper's
    full flush).  The first LC listed originates the invalidation
    messages.
    """
    touched: List[int] = []
    seen: set[int] = set()
    for pattern in patterns_of_prefix(prefix, plan.bits):
        if plan.replicas_of_pattern is not None:
            holders = plan.replicas_of_pattern[pattern]
        else:
            holders = [plan.lc_of_pattern[pattern]]
        for lc in holders:
            if lc in seen:
                continue
            seen.add(lc)
            if next_hop is None:
                if prefix in plan.tables[lc]:
                    plan.tables[lc].remove(prefix)
                    touched.append(lc)
            else:
                plan.tables[lc].update(prefix, next_hop)
                touched.append(lc)
    return touched
