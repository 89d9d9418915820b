"""The benchmark regression gate: diff fresh records against baselines.

``BENCH_core.json`` (one record per benchmark: wall time plus the simulated
round counts and traffic the paper is about) and the sweep engine's
``manifest.json`` are both machine-readable; this module turns them from logs
into enforceable contracts:

* **Round counts are exact.**  Every simulation is deterministic at fixed
  seeds, so any change in a ``*rounds*`` metric is a real behavioural change
  and fails the gate outright.
* **Wall-clock gets a relative tolerance** (default ±25%).  Because the
  baseline was recorded on a different machine than CI runs on, ratios are
  first divided by the machine-speed factor: the median current/baseline
  ratio of the largest group of gated records whose ratios agree within the
  tolerance (:func:`machine_speed_factor`).  A single benchmark regressing
  >25% beyond that shared factor is flagged, while a uniformly slower runner
  is not -- and neither are the untouched records when a change speeds up
  most of the others.  Pass ``normalize=False`` (CLI ``--no-normalize``) for
  same-machine comparisons.
  Records whose baseline wall time is below ``min_wall_seconds`` (default
  50ms) are exempt from the wall-clock check only: timer jitter at that
  scale routinely exceeds any honest tolerance, and such micro-benchmarks
  remain fully gated through their exact round counts.
* **Everything else deterministic** (message counts, skeleton sizes, ...) is
  reported as drift but does not fail the gate, keeping the contract exactly
  "round counts exact, wall-clock within tolerance".

Sweep manifests are fully deterministic, so their comparison is exact on the
per-shard payload hashes.

``python -m repro.cli regress`` is the command-line entry point; CI's
``bench-regression`` job fails the build when :attr:`RegressionReport.status`
is ``"fail"``.
"""

from __future__ import annotations

import json
import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

#: Metric keys ignored entirely (identity / free-form, not measurements).
_IDENTITY_KEYS = {"name", "group", "note", "notes"}


def is_wall_clock_metric(key: str) -> bool:
    """Wall-clock metrics get the relative tolerance."""
    return "wall" in key or key.endswith("seconds")


def is_round_count_metric(key: str) -> bool:
    """Round-count metrics must match exactly."""
    return "rounds" in key


@dataclass
class Violation:
    """One tolerance violation (the machine-readable failure unit)."""

    record: str
    metric: str
    kind: str  # "round-count" | "wall-clock" | "missing-record" | "missing-metric" | "shard"
    baseline: object = None
    current: object = None
    message: str = ""

    def as_dict(self) -> dict[str, object]:
        return {
            "record": self.record,
            "metric": self.metric,
            "kind": self.kind,
            "baseline": self.baseline,
            "current": self.current,
            "message": self.message,
        }


@dataclass
class RegressionReport:
    """Machine-readable pass/fail verdict of one baseline comparison."""

    kind: str  # "benchmarks" | "manifest"
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    checked_records: int = 0
    checked_metrics: int = 0
    wall_tolerance: float = 0.25
    min_wall_seconds: float = 0.05
    speed_factor: float | None = None
    #: How many wall-clock ratios the speed factor was taken from, of how many.
    speed_records: tuple[int, int] | None = None

    @property
    def status(self) -> str:
        return "fail" if self.violations else "pass"

    def as_dict(self) -> dict[str, object]:
        return {
            "status": self.status,
            "kind": self.kind,
            "checked_records": self.checked_records,
            "checked_metrics": self.checked_metrics,
            "wall_tolerance": self.wall_tolerance,
            "min_wall_seconds": self.min_wall_seconds,
            "speed_factor": self.speed_factor,
            "speed_records": list(self.speed_records) if self.speed_records else None,
            "violations": [violation.as_dict() for violation in self.violations],
            "notes": self.notes,
        }

    def format_text(self) -> str:
        """Human-readable report (the CLI prints this)."""
        lines = [
            f"regression gate [{self.kind}]: {self.status.upper()} "
            f"({self.checked_records} records, {self.checked_metrics} metrics checked)"
        ]
        if self.speed_factor is not None:
            line = f"machine-speed normalization factor: {self.speed_factor:.3f}"
            if self.speed_records:
                agreeing, gated = self.speed_records
                line += (
                    f" (median wall ratio of the {agreeing} of {gated} gated ratios "
                    f"that agree within ±{self.wall_tolerance:.0%})"
                )
            lines.append(line)
        for violation in self.violations:
            lines.append(
                f"  VIOLATION [{violation.kind}] {violation.record} :: {violation.metric}: "
                f"baseline={violation.baseline!r} current={violation.current!r} "
                f"{violation.message}"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _numeric(value: object) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def machine_speed_factor(ratios: Sequence[float], tolerance: float) -> tuple[float, int]:
    """The current/baseline wall ratio the unchanged records share.

    A slower or faster machine scales every record alike, while a program
    change moves only the records whose code it touches.  So the factor is
    taken from the largest group of ratios that agree within the tolerance --
    no two more than ``1 + tolerance`` apart -- rather than from all of them:
    a change that speeds up most records leaves the untouched ones grouped at
    the machine's ratio instead of dragging the factor down until those read
    as regressions.  The factor is that group's median, so every member lands
    within the tolerance after normalizing.  Equal-sized groups are decided
    by the plain median of all ratios (the group whose median is closest to
    it, then the lower).  Returns the factor and the group's size.
    """
    ordered = sorted(ratios)
    overall = statistics.median(ordered)
    best_key, best = None, (1.0, 0)
    end = 0
    for start, low in enumerate(ordered):
        end = max(end, start + 1)
        while end < len(ordered) and ordered[end] <= low * (1.0 + tolerance):
            end += 1
        group = ordered[start:end]
        factor = statistics.median(group)
        key = (-len(group), abs(math.log(factor / overall)), factor)
        if best_key is None or key < best_key:
            best_key, best = key, (factor, len(group))
    return best


def compare_benchmarks(
    baseline_records: Sequence[dict[str, object]],
    current_records: Sequence[dict[str, object]],
    wall_tolerance: float = 0.25,
    normalize: bool = True,
    min_wall_seconds: float = 0.05,
) -> RegressionReport:
    """Diff two ``BENCH_core.json``-style record lists (baseline vs fresh)."""
    report = RegressionReport(
        kind="benchmarks", wall_tolerance=wall_tolerance, min_wall_seconds=min_wall_seconds
    )
    baseline = {record["name"]: record for record in baseline_records}
    current = {record["name"]: record for record in current_records}

    for name in sorted(set(current) - set(baseline)):
        report.notes.append(f"new record (not in baseline, unchecked): {name}")
    for name in sorted(set(baseline) - set(current)):
        report.violations.append(
            Violation(name, "-", "missing-record", message="record absent from current run")
        )

    common = sorted(set(baseline) & set(current))

    # Machine-speed factor, from the ratios of the records that are actually
    # wall-clock gated.  Micro-benchmarks below the floor are excluded here
    # too -- their ratios measure timer jitter and fixed call overhead, not
    # machine speed, and would skew the factor the real benchmarks get
    # normalized by.
    ratios = []
    for name in common:
        for key, base_value in baseline[name].items():
            if not is_wall_clock_metric(key):
                continue
            base_t, cur_t = _numeric(base_value), _numeric(current[name].get(key))
            if base_t and cur_t and base_t >= min_wall_seconds and cur_t > 0:
                ratios.append(cur_t / base_t)
    speed_factor = 1.0
    if normalize and ratios:
        speed_factor, agreeing = machine_speed_factor(ratios, wall_tolerance)
        report.speed_records = (agreeing, len(ratios))
    report.speed_factor = speed_factor

    for name in common:
        report.checked_records += 1
        base_record, current_record = baseline[name], current[name]
        for key, base_value in base_record.items():
            if key in _IDENTITY_KEYS:
                continue
            if key not in current_record:
                report.violations.append(
                    Violation(name, key, "missing-metric", base_value, None,
                              message="metric absent from current record")
                )
                continue
            current_value = current_record[key]
            report.checked_metrics += 1
            if is_wall_clock_metric(key):
                base_t, cur_t = _numeric(base_value), _numeric(current_value)
                if not base_t or not cur_t or base_t <= 0 or cur_t <= 0:
                    continue  # smoke runs record null wall times
                if base_t < min_wall_seconds:
                    continue  # micro-benchmark: jitter dominates; rounds still gate it
                adjusted = (cur_t / base_t) / speed_factor
                if adjusted > 1.0 + wall_tolerance:
                    report.violations.append(
                        Violation(
                            name, key, "wall-clock", base_t, cur_t,
                            message=f"normalized ratio {adjusted:.2f} exceeds "
                                    f"1+{wall_tolerance:.2f}",
                        )
                    )
                elif adjusted < 1.0 - wall_tolerance:
                    report.notes.append(
                        f"improvement: {name} :: {key} normalized ratio {adjusted:.2f}"
                    )
            elif is_round_count_metric(key):
                if base_value != current_value:
                    report.violations.append(
                        Violation(name, key, "round-count", base_value, current_value,
                                  message="round counts must match the baseline exactly")
                    )
            else:
                if base_value != current_value:
                    report.notes.append(
                        f"drift (informational): {name} :: {key} "
                        f"{base_value!r} -> {current_value!r}"
                    )
    return report


def compare_manifests(
    baseline_manifest: dict[str, object], current_manifest: dict[str, object]
) -> RegressionReport:
    """Diff two sweep-engine manifests: exact on per-shard payload hashes."""
    report = RegressionReport(kind="manifest", wall_tolerance=0.0)
    baseline = dict(baseline_manifest.get("shards", {}))
    current = dict(current_manifest.get("shards", {}))
    for key in sorted(set(current) - set(baseline)):
        report.notes.append(f"new shard (not in baseline, unchecked): {key}")
    for key in sorted(set(baseline) - set(current)):
        report.violations.append(
            Violation(key, "-", "shard", message="shard absent from current manifest")
        )
    for key in sorted(set(baseline) & set(current)):
        report.checked_records += 1
        report.checked_metrics += 1
        base_hash = baseline[key].get("payload_hash")
        current_hash = current[key].get("payload_hash")
        if base_hash != current_hash:
            report.violations.append(
                Violation(key, "payload_hash", "shard", base_hash, current_hash,
                          message="shard payload diverged from the baseline manifest")
            )
    return report


def load_json(path) -> object:
    """Load one baseline/current file (explicit errors beat tracebacks)."""
    return json.loads(Path(path).read_text())


def run_regression(
    baseline_path,
    current_path,
    wall_tolerance: float = 0.25,
    normalize: bool = True,
    min_wall_seconds: float = 0.05,
) -> RegressionReport:
    """Compare two files, auto-detecting benchmark records vs sweep manifests."""
    baseline = load_json(baseline_path)
    current = load_json(current_path)
    baseline_is_manifest = isinstance(baseline, dict) and "shards" in baseline
    current_is_manifest = isinstance(current, dict) and "shards" in current
    if baseline_is_manifest != current_is_manifest:
        raise ValueError(
            "baseline and current files have different formats "
            "(one is a sweep manifest, the other a benchmark record list)"
        )
    if baseline_is_manifest:
        return compare_manifests(baseline, current)
    if not isinstance(baseline, list) or not isinstance(current, list):
        raise ValueError("benchmark records must be JSON lists of objects with a 'name'")
    return compare_benchmarks(
        baseline,
        current,
        wall_tolerance=wall_tolerance,
        normalize=normalize,
        min_wall_seconds=min_wall_seconds,
    )
