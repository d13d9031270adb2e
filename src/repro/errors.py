"""Exception hierarchy for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class PrefixError(ReproError, ValueError):
    """An IP prefix is malformed or out of range."""


class TableError(ReproError):
    """A routing-table operation failed (duplicate/missing prefix, ...)."""


class ChurnScheduleError(TableError, ValueError):
    """A :class:`repro.routing.churn.ChurnSchedule` does not apply cleanly,
    in order, to the table it is run against (withdrawal of an absent
    prefix, width mismatch) -- on a plain or on a minimised table."""


class PartitionError(ReproError):
    """Table partitioning could not satisfy the request."""


class UnreachablePatternError(PartitionError):
    """Every replica LC holding a pattern has failed: no live LC can answer
    lookups for addresses in that pattern until one recovers.

    Subclasses :class:`PartitionError` so pre-fault-injection callers that
    caught the broad class keep working.
    """


class CacheConfigError(ReproError, ValueError):
    """An LR-cache / victim-cache configuration is invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class FaultScheduleError(SimulationError, ValueError):
    """A :class:`repro.core.faults.FaultSchedule` is malformed (negative
    cycle, out-of-range LC, bad degradation window or probability)."""


class TrieError(ReproError):
    """A trie build or lookup failed."""


class ObservabilityError(ReproError, ValueError):
    """A :mod:`repro.obs` misuse: bad metric name or label, conflicting
    instrument type for a (name, labels) pair, malformed histogram buckets,
    or an exported timeline that fails schema validation."""
