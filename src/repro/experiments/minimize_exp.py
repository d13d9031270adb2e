"""E23 — FIB minimisation: compression, per-LC CRAM, churn re-expansion.

The paper provisions each line card's CRAM for its raw partition of the
routing table (Tables 2–4).  FIB minimisation shrinks the table *before*
partitioning without changing a single lookup answer, so every downstream
number — partition sizes, per-LC pool bytes, trie build times — improves
for free.  This experiment quantifies the stage end to end:

* **compression** — per table and pass set: routes surviving each pass,
  the final compression ratio, explicit null routes emitted, build time
  and the seconds each pass took (``ortc_s`` for ``full``,
  ``defaults_s``/``oc_s`` for ``light``, so a regression points at one
  pass).  ``make_full_v4`` carries a realistic hop-locality model (most
  more-specifics forward like their covering aggregate), which is the
  structure ORTC's published ~50 % reductions feed on; the RT_1/RT_2
  profiles keep their original uniform hop draws and therefore compress
  far less — both numbers are reported.
* **storage** — per-LC CRAM at ψ: the largest packed Lulea / LC-trie
  pool over the partitions of the raw vs the minimised table, normalised
  to bytes per *original* prefix (the honest metric: minimisation does
  not change how many routes the router must answer for).
* **churn** — live updates hit merged entries: a minimised entry may
  have to *split* back into several.  Reported per churn rate: the
  announce/withdraw op amplification after translation, the entry-count
  drift of the minimised table, and the residual ratio versus a fresh
  re-minimisation of the evolved original (the re-expansion cost of
  staying incremental).
* **identity** — a paired simulation (minimize off/on) must agree on
  every aggregate: packet count, mean lookup cycles, hit rate.

Default scale uses a 50k-prefix full table; ``REPRO_PAPER_SCALE=1``
extends to 200k and ``REPRO_MIN_1M=1`` adds the million-prefix point
(~15 s).  ``REPRO_MIN_SIZES`` overrides the size list outright.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from ..analysis.tables import render_table
from ..core.partition import partition_table
from ..routing.churn import generate_churn
from ..routing.minimize import PASS_SETS, minimize_table
from ..routing.synthetic import make_full_v4
from ..tries.lc_trie import LCTrie
from ..tries.lulea import LuleaTrie
from .common import (
    ExperimentResult,
    get_rt1,
    get_rt2,
    paper_scale,
    run_spal,
)

PSI = 16
CHURN_RATES = (20.0, 200.0, 2000.0)
CHURN_HORIZON = 10_000_000  # 20 ms at 500 MHz — enough for bursty arrivals


def _full_sizes() -> List[int]:
    override = os.environ.get("REPRO_MIN_SIZES")
    if override:
        return [int(s) for s in override.split(",") if s.strip()]
    sizes = [50_000]
    if paper_scale():
        sizes.append(200_000)
    if os.environ.get("REPRO_MIN_1M", "") not in ("", "0", "false"):
        sizes.append(1_000_000)
    return sizes


def _compression_rows(rows: List[Dict[str, object]]) -> None:
    tables = [("RT_1", get_rt1()), ("RT_2", get_rt2())]
    tables += [
        (f"full_v4/{s // 1000}k", make_full_v4(size=s)) for s in _full_sizes()
    ]
    for name, table in tables:
        for mode in PASS_SETS:
            t0 = time.perf_counter()
            stats = minimize_table(table, mode).stats
            build_s = time.perf_counter() - t0
            row = {
                "section": "compression",
                "table": name,
                "mode": mode,
                "routes": stats.original_routes,
                "minimized": stats.minimized_routes,
                "ratio": round(stats.ratio, 4),
                "null_routes": stats.null_routes,
                "build_s": round(build_s, 3),
            }
            for pass_name, seconds in stats.pass_seconds.items():
                row[f"{pass_name}_s"] = round(seconds, 3)
            rows.append(row)


def _storage_rows(rows: List[Dict[str, object]]) -> None:
    size = max(_full_sizes())
    table = make_full_v4(size=size)
    n = len(table)
    minimized = minimize_table(table, "full").table
    for label, t in (("raw", table), ("minimized", minimized)):
        plan = partition_table(t, PSI)
        for matcher_name, factory in (("Lulea", LuleaTrie), ("LC-trie", LCTrie)):
            max_pool = max(factory(p).pool_bytes() for p in plan.tables)
            rows.append(
                {
                    "section": "storage",
                    "table": f"full_v4/{size // 1000}k",
                    "mode": label,
                    "routes": len(t),
                    "matcher": matcher_name,
                    "psi": PSI,
                    "max_lc_pool_kb": round(max_pool / 1024.0, 1),
                    # per ORIGINAL prefix: the router still answers for n
                    # routes however small the minimised table gets.
                    "pool_B_per_prefix": round(max_pool / n, 1),
                }
            )


def _churn_rows(rows: List[Dict[str, object]]) -> None:
    table = get_rt2()
    for rate in CHURN_RATES:
        schedule = generate_churn(
            table, rate_per_s=rate, horizon_cycles=CHURN_HORIZON, seed=23
        )
        if len(schedule) == 0:
            continue
        state = minimize_table(table, "full")
        before = len(state.table)
        translated = state.translate_schedule(schedule)
        # Re-apply on the state itself to measure post-churn drift (the
        # translate above ran on a clone and left ``state`` untouched).
        evolved = table.copy()
        for ev in schedule.events():
            state.apply_update(ev.update)
            if ev.update.next_hop is None:
                evolved.remove(ev.update.prefix)
            else:
                evolved.update(ev.update.prefix, ev.update.next_hop)
        refreshed = minimize_table(evolved, "full").stats.minimized_routes
        rows.append(
            {
                "section": "churn",
                "table": "RT_2",
                "mode": "full",
                "rate_per_s": rate,
                "ops": len(schedule),
                "translated_ops": len(translated),
                "amplification": round(len(translated) / len(schedule), 2),
                "routes": before,
                "after_churn": len(state.table),
                "refreshed": refreshed,
                "reexpansion": len(state.table) - refreshed,
            }
        )


def _identity_rows(rows: List[Dict[str, object]]) -> None:
    base = run_spal("D_81", 4, packets_per_lc=2_000)
    mini = run_spal("D_81", 4, packets_per_lc=2_000, minimize="full")
    rows.append(
        {
            "section": "identity",
            "table": "RT_2",
            "mode": "off/full",
            "packets": f"{base.packets}/{mini.packets}",
            "mean_lookup": (
                f"{base.mean_lookup_cycles:.4f}/{mini.mean_lookup_cycles:.4f}"
            ),
            "hit_rate": (
                f"{base.overall_hit_rate:.4f}/{mini.overall_hit_rate:.4f}"
            ),
            "identical": (
                base.packets == mini.packets
                and base.mean_lookup_cycles == mini.mean_lookup_cycles
                and base.overall_hit_rate == mini.overall_hit_rate
                and base.total_drops == mini.total_drops
            ),
        }
    )


def run_minimize(
    sections: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """E23: FIB-minimisation compression, CRAM savings and churn costs."""
    result = ExperimentResult(
        "E23",
        "FIB minimisation: compression ratio per pass set, per-LC CRAM "
        f"at psi={PSI} (raw vs minimised), churn-translation op "
        "amplification and re-expansion, paired-run identity check",
    )
    wanted = set(sections) if sections else {
        "compression", "storage", "churn", "identity",
    }
    rows: List[Dict[str, object]] = []
    if "compression" in wanted:
        _compression_rows(rows)
    if "storage" in wanted:
        _storage_rows(rows)
    if "churn" in wanted:
        _churn_rows(rows)
    if "identity" in wanted:
        _identity_rows(rows)
    result.rows = rows
    headers = [
        "section", "table", "mode", "routes", "minimized", "ratio",
        "null_routes", "build_s", "defaults_s", "ortc_s", "oc_s",
        "matcher", "psi", "max_lc_pool_kb", "pool_B_per_prefix",
        "rate_per_s", "ops", "translated_ops",
        "amplification", "after_churn", "refreshed", "reexpansion",
        "packets", "mean_lookup", "hit_rate", "identical",
    ]
    result.rendered = render_table(
        headers, [[r.get(h, "") for h in headers] for r in rows]
    )
    return result
