"""In-run telemetry time series: the windowed sampler and its container.

A :class:`TimeSeriesSampler` closes a window every ``K`` cycles
(``SpalConfig.sample_interval_cycles``) and snapshots the engine's
*cumulative* state into per-window deltas — completed/dropped/shed
counts, windowed hit rate, per-LC FE service time and backlog, fabric
backlog high-water, and windowed latency percentiles.  The packed result
is a :class:`TimeSeries` of NumPy columns on
``SimulationResult.timeseries``, exportable as JSONL or an
OpenMetrics/Prometheus text exposition.

The sampler is **purely observational**: it never mutates engine state,
draws no random numbers and schedules no events, so a sampled run is
bit-identical to an unsampled one on every core result field, metric and
trace event (the engine-identity suite pins this).  Each engine hands the
sampler a *reader* closure over its own cumulative counters; the sampler
compares successive reads, so its memory is O(windows) regardless of
packet count or streaming chunk size.

Window semantics: the engines check the sampler at their loop top with a
single integer comparison (``now >= next_boundary``), so a window closes
at the first event observation at-or-past its boundary.  Because the
array engine batches arrivals, the exact event at which a window closes
can differ *between* engines — the per-window attribution is quantized,
and cross-engine time series may disagree on which side of a boundary a
delta lands.  What never differs is the run's outcome: sampling on vs.
off is bit-identical per engine, and column totals always equal the
run-level counters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import ObservabilityError

#: Sentinel boundary used by the engines when sampling is off: one
#: always-false integer comparison per loop iteration, nothing else.
NO_SAMPLE = 1 << 62

#: Columns with one value per window.
SCALAR_COLUMNS = (
    "t_start", "t_end", "completed", "dropped", "shed", "hits", "lookups",
    "hit_rate", "lat_count", "lat_p50", "lat_p99",
    "fe_backlog_hw", "fabric_backlog_hw",
)

#: Columns with one value per (window, LC).
PER_LC_COLUMNS = ("fe_backlog", "fe_lookups", "fe_service_mean")

_INT_COLUMNS = frozenset(
    c for c in SCALAR_COLUMNS + PER_LC_COLUMNS
    if c not in ("hit_rate", "lat_p50", "lat_p99", "fe_service_mean")
)

#: The cumulative counters a reader must report (see
#: :meth:`TimeSeriesSampler.bind` for the full contract).
READER_KEYS = (
    "completed", "dropped", "shed", "hits", "lookups",
    "fe_busy", "fe_lookups", "fe_backlog",
    "fe_backlog_hw", "fabric_backlog_hw", "new_latencies",
)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a value sequence as a fixed-width block-character sparkline
    (empty input renders as an empty string)."""
    ramp = " ▁▂▃▄▅▆▇█"
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if len(vals) > width:
        # Downsample by taking the max of each bucket (spikes survive).
        edges = np.linspace(0, len(vals), width + 1, dtype=np.int64)
        vals = [
            max(vals[lo:hi]) for lo, hi in zip(edges, edges[1:]) if hi > lo
        ]
    lo = min(vals)
    hi = max(vals)
    span = hi - lo
    if span <= 0:
        return ramp[1] * len(vals)
    return "".join(
        ramp[1 + int((v - lo) / span * (len(ramp) - 2))] for v in vals
    )


class TimeSeries:
    """Packed per-window telemetry columns (see module docstring).

    ``series[name]`` returns the NumPy column: shape ``(n_windows,)`` for
    ``SCALAR_COLUMNS``, ``(n_windows, n_lcs)`` for ``PER_LC_COLUMNS``.
    """

    def __init__(self, interval: int, n_lcs: int,
                 columns: Dict[str, np.ndarray]):
        self.interval = interval
        self.n_lcs = n_lcs
        self.columns = columns

    def __len__(self) -> int:
        return int(len(self.columns["t_end"]))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def __repr__(self) -> str:
        return (
            f"TimeSeries({len(self)} windows x {self.interval} cycles, "
            f"{self.n_lcs} LCs)"
        )

    def window(self, i: int) -> Dict[str, object]:
        """Window ``i`` as a plain dict (per-LC columns become lists)."""
        out: Dict[str, object] = {}
        for name in SCALAR_COLUMNS:
            v = self.columns[name][i]
            out[name] = int(v) if name in _INT_COLUMNS else float(v)
        for name in PER_LC_COLUMNS:
            row = self.columns[name][i]
            out[name] = (
                [int(v) for v in row] if name in _INT_COLUMNS
                else [float(v) for v in row]
            )
        return out

    def rows(self):
        """Iterate windows as dicts (the monitor-replay view)."""
        for i in range(len(self)):
            yield self.window(i)

    def digest(self) -> Dict[str, object]:
        """JSON-able view for result digests and manifests."""
        return {
            "interval": self.interval,
            "n_lcs": self.n_lcs,
            "columns": {
                name: np.asarray(col).tolist()
                for name, col in sorted(self.columns.items())
            },
        }

    def sparkline(self, name: str, width: int = 60,
                  lc: Optional[int] = None) -> str:
        """Sparkline of one column (pass ``lc`` for per-LC columns;
        omitting it takes the per-window max across LCs)."""
        col = self.columns[name]
        if col.ndim == 2:
            values = col[:, lc] if lc is not None else col.max(axis=1)
        else:
            values = col
        return sparkline(values, width=width)

    # -- exports -------------------------------------------------------------

    def to_jsonl(self, path: Union[str, Path]) -> int:
        """Write one JSON object per window; returns the window count."""
        path = Path(path)
        with path.open("w") as fh:
            for i, row in enumerate(self.rows()):
                row["window"] = i
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
        return len(self)

    def to_openmetrics(self) -> str:
        """The series as OpenMetrics/Prometheus text exposition.

        Each column becomes a ``spal_window_<column>`` gauge family with a
        ``window`` label (plus ``lc`` for per-LC columns); the document
        ends with the mandatory ``# EOF`` line.
        """
        lines: List[str] = []
        for name in SCALAR_COLUMNS + PER_LC_COLUMNS:
            metric = f"spal_window_{name}"
            lines.append(f"# TYPE {metric} gauge")
            col = self.columns[name]
            if col.ndim == 2:
                for i in range(len(self)):
                    for lc in range(self.n_lcs):
                        lines.append(
                            f'{metric}{{window="{i}",lc="{lc}"}} '
                            f"{_om_value(col[i, lc])}"
                        )
            else:
                for i in range(len(self)):
                    lines.append(
                        f'{metric}{{window="{i}"}} {_om_value(col[i])}'
                    )
        lines.append("# EOF")
        return "\n".join(lines) + "\n"

    def write_openmetrics(self, path: Union[str, Path]) -> str:
        text = self.to_openmetrics()
        Path(path).write_text(text)
        return text


def _window_percentile(sorted_vals: Sequence[int], q: float) -> float:
    """Linear-interpolation percentile over an already-sorted sequence,
    bit-identical to ``np.percentile(..., q)`` (same virtual-index and
    lerp evaluation order as NumPy's ``method='linear'``) but without the
    ~50µs-per-call array dispatch — the sampler closes thousands of small
    windows per run, where that fixed cost dominates."""
    n = len(sorted_vals)
    pos = (q / 100.0) * (n - 1)
    lo = int(pos)
    hi = lo + 1 if lo + 1 < n else n - 1
    t = pos - lo
    a = float(sorted_vals[lo])
    b = float(sorted_vals[hi])
    diff = b - a
    if t >= 0.5:
        return b - diff * (1 - t)
    return a + diff * t


def _om_value(v) -> str:
    f = float(v)
    if f == int(f):
        return str(int(f))
    return repr(f)


class TimeSeriesSampler:
    """Closes telemetry windows every ``interval`` cycles from a reader.

    Life cycle: the simulator constructs the sampler when
    ``sample_interval_cycles`` is set, the selected engine calls
    :meth:`bind` with its reader closure, the engine loop calls
    :meth:`advance` whenever ``now >= next_boundary``, and the simulator
    calls :meth:`finish` once with the run horizon to flush the final
    partial window and pack the :class:`TimeSeries`.

    The reader is called as ``read(now)`` and must return a dict with the
    :data:`READER_KEYS`:

    * ``completed`` / ``dropped`` / ``shed`` / ``hits`` / ``lookups`` —
      cumulative run totals (windows are successive-read deltas);
    * ``fe_busy`` / ``fe_lookups`` — cumulative per-LC sequences (their
      deltas give the windowed mean FE service time per LC);
    * ``fe_backlog`` — *instantaneous* per-LC FE backlog, in base service
      quanta, at the read cycle;
    * ``fe_backlog_hw`` / ``fabric_backlog_hw`` — cumulative backlog
      high-water marks;
    * ``new_latencies`` — completed-lookup latencies observed since the
      previous read (the reader keeps its own cursor).
    """

    def __init__(self, interval: int, n_lcs: int, monitor=None):
        if interval <= 0:
            raise ObservabilityError(
                f"sample interval must be positive, got {interval}"
            )
        self.interval = interval
        self.n_lcs = n_lcs
        self.monitor = monitor
        self.next_boundary = interval
        self._read: Optional[Callable[[int], Dict[str, object]]] = None
        self._prev: Optional[Dict[str, object]] = None
        self._t_last = 0
        self._rows: Dict[str, list] = {
            name: [] for name in SCALAR_COLUMNS + PER_LC_COLUMNS
        }
        self._series: Optional[TimeSeries] = None

    def bind(self, reader: Callable[[int], Dict[str, object]]) -> None:
        """Attach the engine's reader closure (once per run)."""
        if self._read is not None:
            raise ObservabilityError("sampler is already bound to a reader")
        self._read = reader

    def advance(self, now: int) -> int:
        """Close every window whose boundary is <= ``now``; returns the new
        next boundary.  Multi-boundary jumps attribute all deltas to the
        first closed window and emit zero-delta windows for the rest."""
        while self.next_boundary <= now:
            self._close(self.next_boundary)
            self.next_boundary += self.interval
        return self.next_boundary

    def finish(self, horizon: int) -> TimeSeries:
        """Flush the final partial window (if the horizon passed the last
        closed boundary) and pack the series; idempotent."""
        if self._series is not None:
            return self._series
        end = horizon + 1
        if self._read is not None and end > self._t_last:
            self._close(end)
        cols: Dict[str, np.ndarray] = {}
        for name in SCALAR_COLUMNS:
            dtype = np.int64 if name in _INT_COLUMNS else np.float64
            cols[name] = np.asarray(self._rows[name], dtype=dtype)
        for name in PER_LC_COLUMNS:
            dtype = np.int64 if name in _INT_COLUMNS else np.float64
            rows = self._rows[name]
            cols[name] = (
                np.asarray(rows, dtype=dtype)
                if rows
                else np.empty((0, self.n_lcs), dtype=dtype)
            )
        self._series = TimeSeries(self.interval, self.n_lcs, cols)
        return self._series

    # -- internals -----------------------------------------------------------

    def _close(self, t_end: int) -> None:
        if self._read is None:
            raise ObservabilityError(
                "sampler advanced before an engine bound a reader"
            )
        cur = self._read(t_end)
        prev = self._prev
        n = self.n_lcs

        # Deltas are inlined (no per-call closures): _close runs once per
        # window, and window counts reach the thousands on long runs.
        if prev is None:
            d_completed = int(cur["completed"])
            d_dropped = int(cur["dropped"])
            d_shed = int(cur["shed"])
            d_hits = int(cur["hits"])
            d_lookups = int(cur["lookups"])
            d_fe_busy = [int(v) for v in cur["fe_busy"]]
            d_fe_lookups = [int(v) for v in cur["fe_lookups"]]
        else:
            d_completed = int(cur["completed"]) - prev["completed"]
            d_dropped = int(cur["dropped"]) - prev["dropped"]
            d_shed = int(cur["shed"]) - prev["shed"]
            d_hits = int(cur["hits"]) - prev["hits"]
            d_lookups = int(cur["lookups"]) - prev["lookups"]
            d_fe_busy = [
                int(a) - b for a, b in zip(cur["fe_busy"], prev["fe_busy"])
            ]
            d_fe_lookups = [
                int(a) - b
                for a, b in zip(cur["fe_lookups"], prev["fe_lookups"])
            ]
        # Engine readers hand over fresh lists of Python ints; anything
        # else (e.g. a NumPy array from a test harness) is normalized.
        raw_lats = cur["new_latencies"]
        lats = (
            sorted(raw_lats)
            if type(raw_lats) is list
            else sorted(int(v) for v in raw_lats)
        )

        rows = self._rows
        rows["t_start"].append(self._t_last)
        rows["t_end"].append(t_end)
        rows["completed"].append(d_completed)
        rows["dropped"].append(d_dropped)
        rows["shed"].append(d_shed)
        rows["hits"].append(d_hits)
        rows["lookups"].append(d_lookups)
        rows["hit_rate"].append(d_hits / d_lookups if d_lookups else 0.0)
        rows["lat_count"].append(len(lats))
        rows["lat_p50"].append(
            _window_percentile(lats, 50) if lats else 0.0
        )
        rows["lat_p99"].append(
            _window_percentile(lats, 99) if lats else 0.0
        )
        rows["fe_backlog_hw"].append(int(cur["fe_backlog_hw"]))
        rows["fabric_backlog_hw"].append(int(cur["fabric_backlog_hw"]))
        rows["fe_backlog"].append([int(v) for v in cur["fe_backlog"]])
        rows["fe_lookups"].append(d_fe_lookups)
        rows["fe_service_mean"].append(
            [
                (d_fe_busy[i] / d_fe_lookups[i]) if d_fe_lookups[i] else 0.0
                for i in range(n)
            ]
        )
        # prev snapshots only the cumulative keys the deltas above read
        # (new_latencies is consumed, not differenced; instantaneous and
        # high-water keys are re-read fresh each window), normalized to
        # plain ints so the delta path above never re-coerces them.
        self._prev = {
            "completed": int(cur["completed"]),
            "dropped": int(cur["dropped"]),
            "shed": int(cur["shed"]),
            "hits": int(cur["hits"]),
            "lookups": int(cur["lookups"]),
            "fe_busy": [int(v) for v in cur["fe_busy"]],
            "fe_lookups": [int(v) for v in cur["fe_lookups"]],
        }
        self._t_last = t_end
        if self.monitor is not None:
            self.monitor.observe(
                {name: rows[name][-1] for name in rows}
            )
