"""The benchmark regression observatory: trends, deltas, and the gate.

Consumes :class:`~repro.obs.ledger.RunManifest` history (a
:class:`~repro.obs.ledger.Ledger` series, a single manifest JSON, or a
converged ``BENCH_*.json`` document with an embedded manifest) and
answers the three questions behind ``python -m repro report``:

* **trends** -- how has each tracked metric moved across ledger history?
* **compare** -- what changed between two specific entries?
* **gate** -- did a tracked metric regress beyond tolerance?  (Exit
  nonzero; the CI seam that keeps the 2.59x fast path and the
  1.2x-under-Byzantine-faults contract from eroding silently.)

Every metric has a *direction*: ``lower`` is better for times, errors and
OSPA; ``higher`` is better for speedups and rates.  Directions come from
an explicit table first, then name heuristics; unknown metrics are
reported but never gated unless explicitly requested.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.ledger import Ledger, RunManifest, read_jsonl_lenient

logger = logging.getLogger(__name__)

#: Default relative tolerance before a delta counts as a regression.
DEFAULT_TOLERANCE = 0.10

#: Explicit metric directions (win over the suffix heuristics below).
METRIC_DIRECTIONS: Dict[str, str] = {
    "speedup": "higher",
    "parity_ok": "higher",
    "replay_ok": "higher",
    "worst_error_ratio": "lower",
    "converged_at_step": "lower",
}

#: (substring, direction) heuristics applied in order to unknown names.
_DIRECTION_HINTS: Tuple[Tuple[str, str], ...] = (
    ("speedup", "higher"),
    ("per_sec", "higher"),
    ("_ok", "higher"),
    ("seconds", "lower"),
    ("_ms", "lower"),
    ("time", "lower"),
    ("error", "lower"),
    ("ospa", "lower"),
    ("ratio", "lower"),
    ("bytes", "lower"),
    ("fp_", "lower"),
    ("fn_", "lower"),
)


def metric_direction(name: str) -> Optional[str]:
    """``"lower"``/``"higher"`` = which way is better; None when unknown."""
    if name in METRIC_DIRECTIONS:
        return METRIC_DIRECTIONS[name]
    lowered = name.lower()
    for hint, direction in _DIRECTION_HINTS:
        if hint in lowered:
            return direction
    return None


@dataclass
class GateCheck:
    """One metric's verdict in a baseline-vs-current comparison."""

    metric: str
    baseline: float
    current: float
    direction: Optional[str]
    tolerance: float
    #: Signed relative change, ``(current - baseline) / |baseline|``
    #: (``inf`` when the baseline is zero and the value moved).
    delta_fraction: float
    #: True when the metric moved the *bad* way beyond tolerance.
    regressed: bool
    #: False for metrics with no known direction (reported, not gated).
    gated: bool = True

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "current": self.current,
            "direction": self.direction,
            "tolerance": self.tolerance,
            "delta_fraction": self.delta_fraction,
            "regressed": self.regressed,
            "gated": self.gated,
        }


def _delta_fraction(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else math.inf * (1 if current > 0 else -1)
    return (current - baseline) / abs(baseline)


def compare_manifests(
    baseline: RunManifest,
    current: RunManifest,
    tolerance: float = DEFAULT_TOLERANCE,
    metrics: Optional[Sequence[str]] = None,
    tolerances: Optional[Dict[str, float]] = None,
) -> List[GateCheck]:
    """Per-metric deltas between two manifests.

    ``metrics`` restricts (and force-gates) the checked names; otherwise
    every metric present in *both* manifests is checked, and only those
    with a known direction are gated.  A requested metric missing from
    either manifest raises ``ValueError``: a gate must never pass by
    skipping the metric it was asked to check.  ``tolerances`` overrides
    the relative tolerance per metric name.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    names = (
        list(metrics)
        if metrics
        else sorted(set(baseline.metrics) & set(current.metrics))
    )
    for side, manifest in (("baseline", baseline), ("current", current)):
        missing = [name for name in names if name not in manifest.metrics]
        if missing:
            raise ValueError(
                f"gate metric(s) {', '.join(missing)} missing from the "
                f"{side} manifest"
            )
    checks: List[GateCheck] = []
    for name in names:
        base = baseline.metrics[name]
        cur = current.metrics[name]
        direction = metric_direction(name)
        tol = (tolerances or {}).get(name, tolerance)
        delta = _delta_fraction(base, cur)
        gated = direction is not None or bool(metrics)
        if direction is None:
            # Explicitly requested but unknown direction: assume
            # lower-is-better, the common case for raw measurements.
            effective_direction = "lower" if metrics else None
        else:
            effective_direction = direction
        if effective_direction == "lower":
            regressed = delta > tol
        elif effective_direction == "higher":
            regressed = delta < -tol
        else:
            regressed = False
        checks.append(
            GateCheck(
                metric=name,
                baseline=base,
                current=cur,
                direction=effective_direction,
                tolerance=tol,
                delta_fraction=delta,
                regressed=bool(regressed and gated),
                gated=gated,
            )
        )
    return checks


def load_manifest_source(path: Union[str, Path]) -> List[RunManifest]:
    """Manifests from any supported on-disk source, oldest first.

    Accepts a ledger series JSONL (many manifests), a bare manifest JSON
    document, or a converged ``BENCH_*.json`` (``repro-bench v1``) with an
    embedded ``"manifest"``.  Raises ``ValueError`` when nothing usable is
    found, ``OSError`` when unreadable.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8").strip()
    if not text:
        raise ValueError(f"{path}: empty manifest source")
    if text.startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, dict):
            if "manifest" in document:  # converged BENCH_*.json
                return [RunManifest.from_dict(document["manifest"])]
            return [RunManifest.from_dict(document)]
    # Fall through: treat as JSONL history.
    records, skipped = read_jsonl_lenient(path)
    manifests = []
    for record in records:
        try:
            manifests.append(RunManifest.from_dict(record))
        except (ValueError, TypeError, KeyError):
            skipped += 1
    if not manifests:
        raise ValueError(f"{path}: no readable run manifests")
    if skipped:
        logger.warning("%s: skipped %d unreadable entries", path, skipped)
    return manifests


def resolve_series(
    ledger: Ledger,
    series: Optional[str],
    source: Optional[Union[str, Path]] = None,
) -> Tuple[str, List[RunManifest]]:
    """(name, manifests) from either a ledger series or an explicit file."""
    if source is not None:
        manifests = load_manifest_source(source)
        return manifests[-1].name, manifests
    if series is None:
        names = ledger.series()
        if len(names) == 1:
            series = names[0]
        else:
            raise ValueError(
                "ledger has "
                + (f"{len(names)} series" if names else "no series")
                + f" at {ledger.root}; pick one with --series"
                + (f" ({', '.join(names)})" if names else "")
            )
    manifests = ledger.read(series)
    if not manifests:
        raise ValueError(f"ledger series {series!r} is empty at {ledger.root}")
    return series, manifests


# --- rendering ------------------------------------------------------------------


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        return str(value)
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def manifest_stream_id(manifest: RunManifest) -> Optional[str]:
    """The stream id a manifest's run replayed, or None for live runs."""
    value = manifest.context.get("stream_id")
    return str(value) if value is not None else None


def filter_by_stream(
    manifests: Sequence[RunManifest], stream: Optional[str]
) -> List[RunManifest]:
    """Restrict history to one ingestion lineage.

    ``stream`` is a stream id (keep only runs that replayed it), the
    special key ``"live"`` (keep only non-replayed runs), or None (keep
    everything).  This is what lets one ledger series hold live and
    golden-stream history side by side without poisoning either trend.
    """
    if stream is None:
        return list(manifests)
    if stream == "live":
        return [m for m in manifests if manifest_stream_id(m) is None]
    return [m for m in manifests if manifest_stream_id(m) == stream]


def trend_table(
    name: str,
    manifests: Sequence[RunManifest],
    metrics: Optional[Sequence[str]] = None,
    last: int = 0,
) -> str:
    """A trend table: one row per ledger entry, one column per metric.

    When any entry carries a replay stream id, a ``stream`` column
    appears so live and replayed history stay distinguishable.
    """
    from repro.eval.reporting import format_table

    entries = list(manifests)[-last:] if last > 0 else list(manifests)
    if metrics:
        names = list(metrics)
    else:
        names = sorted({m for entry in entries for m in entry.metrics})
    show_stream = any(manifest_stream_id(e) is not None for e in entries)
    rows = []
    for i, entry in enumerate(entries):
        sha = (entry.git_sha or "-")[:9]
        row = [i, sha, entry.config_hash or "-"]
        if show_stream:
            row.append(manifest_stream_id(entry) or "live")
        rows.append(
            row
            + [
                _fmt(entry.metrics[m]) if m in entry.metrics else "-"
                for m in names
            ]
        )
    header = ["#", "git", "config"]
    if show_stream:
        header.append("stream")
    return format_table(
        header + names,
        rows,
        title=f"Trend: {name} ({len(entries)} of {len(manifests)} entries)",
    )


def compare_table(
    baseline: RunManifest, current: RunManifest, checks: Sequence[GateCheck]
) -> str:
    from repro.eval.reporting import format_table

    rows = []
    for check in checks:
        arrow = {"lower": "<=", "higher": ">="}.get(check.direction or "", "?")
        delta = (
            f"{check.delta_fraction:+.1%}"
            if math.isfinite(check.delta_fraction)
            else "new"
        )
        verdict = "REGRESSED" if check.regressed else ("ok" if check.gated else "-")
        rows.append(
            [
                check.metric,
                _fmt(check.baseline),
                _fmt(check.current),
                delta,
                arrow,
                f"{check.tolerance:.0%}",
                verdict,
            ]
        )
    base_sha = (baseline.git_sha or "-")[:9]
    cur_sha = (current.git_sha or "-")[:9]
    return format_table(
        ["metric", "baseline", "current", "delta", "better", "tol", "verdict"],
        rows,
        title=f"Compare: {baseline.name} {base_sha} -> {cur_sha}",
    )


def gate_report(
    baseline: RunManifest,
    current: RunManifest,
    checks: Sequence[GateCheck],
) -> dict:
    """The machine-readable gate outcome (``repro report gate --json``)."""
    regressions = [c for c in checks if c.regressed]
    return {
        "series": current.name,
        "baseline": {
            "git_sha": baseline.git_sha,
            "created_unix": baseline.created_unix,
            "config_hash": baseline.config_hash,
        },
        "current": {
            "git_sha": current.git_sha,
            "created_unix": current.created_unix,
            "config_hash": current.config_hash,
        },
        "checks": [c.to_dict() for c in checks],
        "n_gated": sum(1 for c in checks if c.gated),
        "n_regressed": len(regressions),
        "ok": not regressions,
    }
