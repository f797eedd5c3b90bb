"""Shared bookkeeping for the workload drivers: outcomes, percentiles and
the projection of a run record that correctness checks compare."""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass, field

#: Samples a percentile metric needs so that at least ten lie beyond p90.
MIN_SAMPLES = 100


def cells(record: dict) -> list:
    """A RunRecord's cells as sorted (model, task, workload, instances,
    metrics, confusion) tuples: what must not change between two runs."""
    return sorted(
        (c["model"], c["task"], c["workload"], c["instances"], c["metrics"], c["confusion"])
        for c in record["cells"]
    )


def p50(samples) -> float:
    return statistics.median(samples)


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[-1]


@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def check(self, errors: list[str]) -> bool:
        """Count one operation; it fails if ``errors`` is not empty."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)
            for error in errors:
                print(f"[perfbench] check failed: {error}", file=sys.stderr)
        return not errors
