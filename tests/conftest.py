"""Shared fixtures and helpers for the tier-1 suite.

Three things live here:

* **session-scoped inputs** — routing tables (and a partition plan) that
  many modules previously rebuilt per-module or per-test.  Table
  generation walks the synthetic prefix profiles and is the dominant
  fixed cost of several modules; building each flavour once per session
  keeps the suite fast without changing any test's inputs.
* **result digests** — :func:`result_digest`, every result field as
  plain values, so two runs (two engines, a golden file) compare whole.
* **hypothesis profiles** — a capped ``ci-smoke`` profile so the CI
  engine-identity job bounds its example budget (select it with
  ``HYPOTHESIS_PROFILE=ci-smoke``).  A loaded profile's
  ``max_examples`` applies to every property test, also to one that sets
  its own with ``@settings``; without a profile each keeps its own.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.routing import random_small_table

# -- hypothesis profiles ----------------------------------------------------

settings.register_profile("ci-smoke", max_examples=8, deadline=None)
settings.register_profile("thorough", max_examples=200, deadline=None)
_profile = os.environ.get("HYPOTHESIS_PROFILE")
if _profile:
    settings.load_profile(_profile)


def pytest_collection_modifyitems(config, items):
    # An explicit ``@settings(max_examples=N)`` overrides a loaded
    # profile, so re-wrap each property test's settings with the
    # profile's count: a ``@given`` function's (on ``__func__`` for a
    # method), or a state machine ``TestCase``'s class attribute.
    if not _profile:
        return
    n = settings.get_profile(_profile).max_examples
    for item in items:
        fn = getattr(item, "obj", None)
        fn = getattr(fn, "__func__", fn)
        own = getattr(fn, "_hypothesis_internal_use_settings", None)
        if own is not None and own.max_examples != n:
            fn._hypothesis_internal_use_settings = settings(
                own, max_examples=n
            )
        cls = getattr(item, "cls", None)
        own = getattr(cls, "settings", None)
        if isinstance(own, settings) and own.max_examples != n:
            cls.settings = settings(own, max_examples=n)


# -- session-scoped tables --------------------------------------------------
# Deterministic (fixed seeds) and treated as read-only by consumers; a
# test that needs to mutate a table must copy it (or build its own).


@pytest.fixture(scope="session")
def ipv4_table():
    """A mid-size IPv4 table shared by simulator-level suites."""
    return random_small_table(300, seed=33)


@pytest.fixture(scope="session")
def ipv6_table():
    """An IPv6 (width-128) table: exercises the scalar trie fallbacks."""
    return random_small_table(
        120, seed=17, max_length=48, width=128
    )


# -- result digests ---------------------------------------------------------


def result_digest(r) -> dict:
    """Every ``SimulationResult`` field as plain JSON-able values.

    Used by the engine-identity differential suite (field-by-field
    scalar/array comparison) and the golden-snapshot tests (replay and
    diff against a pinned JSON file) — any new result field must be
    added here to stay covered by both.
    """
    return {
        "name": r.name,
        "n_lcs": r.n_lcs,
        "latencies": np.asarray(r.latencies).tolist(),
        "horizon_cycles": int(r.horizon_cycles),
        "cache_stats": r.cache_stats,
        "fe_lookups": list(r.fe_lookups),
        "fe_utilization": list(r.fe_utilization),
        "fabric_messages": r.fabric_messages,
        "flushes": r.flushes,
        "extra": r.extra,
        "drops": r.drops,
        "retries": r.retries,
        "fabric_dropped_messages": r.fabric_dropped_messages,
        "fault_events": r.fault_events,
        "lc_availability": list(r.lc_availability),
        "failover_packets": r.failover_packets,
        "failover_mean_cycles": r.failover_mean_cycles,
        "update_events_applied": r.update_events_applied,
        "update_patches": r.update_patches,
        "update_rebuilds": r.update_rebuilds,
        "update_service_cycles": r.update_service_cycles,
        "invalidation_messages": r.invalidation_messages,
        "invalidation_entries_dropped": r.invalidation_entries_dropped,
        "churn_misses": r.churn_misses,
        "metrics_snapshot": r.metrics_snapshot,
        "timeseries": (
            r.timeseries.digest() if r.timeseries is not None else None
        ),
    }
