"""Incremental cell-metric accumulation for the streaming engine.

A streamed cell never holds its dataset or answer list in memory; each
chunk flows through a :class:`CellAccumulator`, which keeps only the
integer counts the metric constructors need — binary confusion counts,
``(label_type, predicted_type)`` pair counts, location running totals,
and the explanation-overlap running sum.  Finalising produces a
:class:`StreamedCellResult` exposing the same ``binary`` / ``typed`` /
``location`` properties as :class:`repro.evalfw.runner.CellResult`, so
``metrics_table`` and the reporting layer consume either interchangeably.

Exactness: every float operation happens in the shared
``*_from_counts`` constructors (:mod:`repro.evalfw.metrics`), which the
materialised path delegates through as well; the only streamed-side
float state is the explanation-overlap running sum, accumulated in
instance order — and ``a += x`` per element is exactly the left-to-right
``sum()`` the materialised path computes.  Streamed and materialised
metrics are therefore byte-identical, not merely close.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.evalfw.metrics import (
    BinaryMetrics,
    LocationMetrics,
    WeightedMetrics,
    binary_metrics_from_counts,
    classify_binary,
    location_metrics_from_counts,
    weighted_metrics_from_counts,
)
from repro.tasks.base import ModelAnswer, TaskInstance


@dataclass
class CellAccumulator:
    """Folds (instance, answer) chunks into constant-size metric state."""

    model: str
    task: str
    workload: str

    instances: int = 0
    chunks: int = 0

    # binary --------------------------------------------------------------
    confusion: Counter = field(default_factory=Counter)
    has_labels: bool = False

    # typed ---------------------------------------------------------------
    pair_counts: Counter = field(default_factory=Counter)

    # location ------------------------------------------------------------
    loc_pairs: int = 0
    loc_truth_sum: int = 0
    loc_abs_error_sum: int = 0
    loc_hits: int = 0
    loc_misses: int = 0

    # explanation ---------------------------------------------------------
    has_gold: bool = False
    overlap_sum: float = 0.0
    flawed: int = 0

    def add_chunk(
        self,
        instances: Sequence[TaskInstance],
        answers: Sequence[ModelAnswer],
    ) -> None:
        """Fold one aligned chunk into the running state."""
        from repro.tasks.explanation import explanation_overlap_f1

        if len(instances) != len(answers):
            raise ValueError(
                f"chunk misaligned: {len(instances)} instances "
                f"but {len(answers)} answers"
            )
        self.chunks += 1
        for instance, answer in zip(instances, answers):
            self.instances += 1
            self.confusion[
                classify_binary(bool(instance.label), answer.predicted)
            ] += 1
            if instance.label is not None:
                self.has_labels = True
            if instance.label_type is not None:
                self.pair_counts[(instance.label_type, answer.predicted_type)] += 1
            if instance.position is not None:
                self.loc_pairs += 1
                self.loc_truth_sum += instance.position
                if answer.predicted_position is None:
                    self.loc_misses += 1
                else:
                    self.loc_abs_error_sum += abs(
                        answer.predicted_position - instance.position
                    )
                    if answer.predicted_position == instance.position:
                        self.loc_hits += 1
            if instance.gold_text:
                self.has_gold = True
            self.overlap_sum += explanation_overlap_f1(
                instance.gold_text, answer.explanation
            )
            if answer.flaws:
                self.flawed += 1

    def result(self) -> "StreamedCellResult":
        """Finalise into a CellResult-compatible streamed result."""
        return StreamedCellResult(
            model=self.model,
            task=self.task,
            workload=self.workload,
            instance_count=self.instances,
            chunk_count=self.chunks,
            _acc=self,
        )


@dataclass
class StreamedCellResult:
    """One streamed (model, task, workload) cell: metrics without data.

    Quacks like :class:`repro.evalfw.runner.CellResult` for every
    metrics consumer (``binary`` / ``typed`` / ``location``); carries
    counts instead of the dataset and answers, so a million-instance
    cell costs the same memory as a ten-instance one.
    """

    model: str
    task: str
    workload: str
    instance_count: int
    chunk_count: int
    _acc: CellAccumulator

    @property
    def binary(self) -> BinaryMetrics:
        c = self._acc.confusion
        return binary_metrics_from_counts(
            tp=c["tp"], tn=c["tn"], fp=c["fp"], fn=c["fn"]
        )

    @property
    def typed(self) -> WeightedMetrics:
        return weighted_metrics_from_counts(self._acc.pair_counts)

    @property
    def location(self) -> LocationMetrics:
        return location_metrics_from_counts(
            n_pairs=self._acc.loc_pairs,
            truth_sum=self._acc.loc_truth_sum,
            abs_error_sum=self._acc.loc_abs_error_sum,
            hits=self._acc.loc_hits,
            misses=self._acc.loc_misses,
        )

    # -- gates and extras for the reporting layer -------------------------

    @property
    def has_labels(self) -> bool:
        return self._acc.has_labels

    def types_present(self) -> list[str]:
        return sorted({truth for truth, _ in self._acc.pair_counts})

    @property
    def has_positions(self) -> bool:
        return self._acc.loc_pairs > 0

    @property
    def has_gold(self) -> bool:
        return self._acc.has_gold

    @property
    def explanation_overlap_f1(self) -> float:
        if not self.instance_count:
            return 0.0
        return self._acc.overlap_sum / self.instance_count

    @property
    def flawed_rate(self) -> float:
        if not self.instance_count:
            return 0.0
        return self._acc.flawed / self.instance_count

