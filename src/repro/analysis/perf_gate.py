"""Speedup regression gate over committed ``BENCH_*.json`` artefacts.

Raw wall-clock numbers are machine-dependent, so the gate never compares
milliseconds across reports.  It compares the *dimensionless speedup
ratios* each component declares gated in :mod:`repro.analysis.perf` —
vectorised-vs-reference per component, batched-vs-serial per batch
size, and service-batching-on-vs-off at the highest measured client
concurrency — which are measured interleaved within one run and
therefore transfer between machines.  A fresh report passes when every
ratio it shares with the baseline is within ``tolerance`` (default 15%)
of the baseline's value; blocks present on only one side are skipped,
because a smoke-grid report legitimately measures fewer cases than the
committed full-grid artefact.

:func:`check_perf_regression` returns the raw failure strings;
:func:`evaluate_gate` wraps it in a :class:`GateOutcome` that also
carries skip *notices* (which blocks could not be compared, and why)
and renders every slipping ratio in one combined failure message — the
shape ``repro bench --gate`` reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.perf import component_blocks


def _slipped(fresh: float, baseline: float, tolerance: float) -> bool:
    """Has ``fresh`` regressed more than ``tolerance`` below ``baseline``?"""
    return fresh < baseline * (1.0 - tolerance)


def _comparable(fresh: Mapping | None, baseline: Mapping | None) -> bool:
    """Blocks compare only when both exist and measured the same case."""
    return (
        fresh is not None
        and baseline is not None
        and fresh.get("size") == baseline.get("size")
        and fresh.get("fill") == baseline.get("fill")
    )


def _paired(fresh: Mapping, baseline: Mapping):
    """``(component, JSON path, fresh block, baseline block)`` per declaration."""
    for (component, path, fresh_block), (_, _, base_block) in zip(
        component_blocks(fresh), component_blocks(baseline)
    ):
        yield component, path, fresh_block, base_block


def check_perf_regression(
    fresh: Mapping,
    baseline: Mapping,
    tolerance: float = 0.15,
) -> list[str]:
    """Compare two bench-report payloads; return regression descriptions.

    ``fresh`` and ``baseline`` are ``BENCH_*.json`` payloads (the dict
    shape of :meth:`repro.analysis.perf.PerfReport.to_dict`).  Every
    component's declared gated ratios (:attr:`repro.analysis.perf.
    Component.gated`) are compared where both reports measured them.
    An empty return value means the gate passes.  Each failure string
    names the ratio, both values, and the allowed floor.
    """
    if not 0 <= tolerance < 1:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures: list[str] = []
    for component, _, fresh_block, base_block in _paired(fresh, baseline):
        if not _comparable(fresh_block, base_block):
            continue
        for ratio in component.gated:
            fresh_values = ratio.values(fresh_block)
            base_values = ratio.values(base_block)
            shared = [label for label in fresh_values if label in base_values]
            if ratio.highest_only:
                shared = shared[-1:]
            for label in shared:
                fresh_ratio, base_ratio = fresh_values[label], base_values[label]
                if _slipped(fresh_ratio, base_ratio, tolerance):
                    floor = base_ratio * (1.0 - tolerance)
                    failures.append(
                        f"{component.name}@{fresh_block['size']} {label}: "
                        f"{fresh_ratio:.2f}x < floor {floor:.2f}x "
                        f"(baseline {base_ratio:.2f}x, tolerance {tolerance:.0%})"
                    )
    return failures


@dataclass(frozen=True)
class GateOutcome:
    """Everything one gate evaluation decided.

    ``failures`` are the slipping ratios (empty = gate passes);
    ``notices`` name the blocks that could not be compared and why, so
    a gate run that silently measured nothing is visible in the log.
    """

    failures: list[str] = field(default_factory=list)
    notices: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def message(self) -> str:
        """One combined failure message naming every slipping ratio."""
        if self.ok:
            return "perf gate passed"
        lines = [
            f"perf gate: {len(self.failures)} speedup ratio(s) regressed:"
        ]
        lines.extend(f"  - {failure}" for failure in self.failures)
        return "\n".join(lines)


def _skip_notices(fresh: Mapping, baseline: Mapping) -> list[str]:
    """Why each non-compared block was skipped, in declaration order."""
    notices: list[str] = []
    for _, path, fresh_block, base_block in _paired(fresh, baseline):
        if fresh_block is None and base_block is None:
            continue
        if fresh_block is None:
            notices.append(f"{path}: in the baseline but not measured here")
        elif base_block is None:
            notices.append(f"{path}: measured here but absent from the baseline")
        elif not _comparable(fresh_block, base_block):
            notices.append(
                f"{path}: case mismatch "
                f"({fresh_block.get('size')}x{fresh_block.get('size')} "
                f"fill={fresh_block.get('fill')} here vs "
                f"{base_block.get('size')}x{base_block.get('size')} "
                f"fill={base_block.get('fill')} in the baseline)"
            )
    return notices


def evaluate_gate(
    fresh: Mapping,
    baseline: Mapping,
    tolerance: float = 0.15,
) -> GateOutcome:
    """Run the gate and report failures *and* skipped-block notices.

    The comparison itself is :func:`check_perf_regression` — every
    shared ratio is checked, so one evaluation reports **all** slipping
    components at once rather than stopping at the first.
    """
    return GateOutcome(
        failures=check_perf_regression(fresh, baseline, tolerance),
        notices=_skip_notices(fresh, baseline),
    )
