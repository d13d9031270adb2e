"""Value domains: the legal values of a config field or a constructor
argument, and the one check that enforces them.

:mod:`repro.core.config` declares each field's domain beside it; the
public constructors that take the same values (fabrics, the
partitioner, the telemetry sampler) check them with the same domains,
each raising its own module's error type.
"""

from __future__ import annotations

from dataclasses import field
from numbers import Integral, Real
from typing import Callable, NamedTuple


class Domain(NamedTuple):
    """A set of legal values, and the phrase that names it in errors."""

    accepts: Callable[[object], bool]
    text: str


def is_int(v: object) -> bool:
    return isinstance(v, Integral) and not isinstance(v, bool)


def integer(low: int) -> Domain:
    """The ints ``>= low`` (``bool`` excluded: ``True`` is not a count)."""
    return Domain(lambda v: is_int(v) and v >= low, f"an int >= {low}")


def real(low: float, high: float) -> Domain:
    """The reals in ``[low, high]`` (``bool`` and NaN excluded)."""
    return Domain(lambda v: isinstance(v, Real) and not isinstance(v, bool)
                  and low <= v <= high, f"a real in [{low}, {high}]")


def one_of(names) -> Domain:
    """Exactly one of the strings ``names``."""
    names = tuple(names)
    return Domain(lambda v: isinstance(v, str) and v in names,
                  " or ".join(map(repr, names)))


def optional(d: Domain) -> Domain:
    return Domain(lambda v: v is None or d.accepts(v), f"None or {d.text}")


BOOL = Domain(lambda v: isinstance(v, bool), "a bool")


def check(value: object, domain: Domain, name: str, error: type) -> None:
    """Raise ``error`` unless ``value`` lies in ``domain``."""
    if not domain.accepts(value):
        raise error(f"{name} must be {domain.text}, got {value!r}")


def knob(domain: Domain, **kwargs):
    """A dataclass field whose values MUST lie in ``domain``."""
    return field(metadata={"domain": domain}, **kwargs)
