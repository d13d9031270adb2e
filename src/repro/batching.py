"""Process-wide switch for the vectorized (batch) fast paths.

Every batch kernel in the library — trie ``lookup_batch`` kernels, the
partitioner's ``home_lc_batch``, the simulator's precomputed
next-hop/home-LC fast path — funnels through :func:`batch_enabled` so one
environment variable A/B-toggles the whole layer (control-bit selection
has one code path and no switch):

``REPRO_BATCH=0`` falls back to the scalar per-packet code everywhere
(useful for timing comparisons and for bisecting a suspected kernel bug);
any other value, or an unset variable, keeps the kernels on.  Results are
bit-identical either way — the kernels are exact reimplementations, and
the test suite asserts it.
"""

from __future__ import annotations

import os

#: Address widths the uint64-based kernels can handle; wider tables (IPv6,
#: width 128) use the scalar fallbacks transparently.
MAX_KERNEL_WIDTH = 64


def batch_enabled() -> bool:
    """True unless ``REPRO_BATCH`` is set to ``0``/``false``/``off``."""
    return os.environ.get("REPRO_BATCH", "").lower() not in ("0", "false", "off")
