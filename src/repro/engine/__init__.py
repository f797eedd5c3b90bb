"""Chunked, cache-backed experiment engine.

Public surface:

* :class:`ExperimentEngine` / :class:`EngineConfig` — evaluate grid
  cells chunk by chunk on a work queue of worker processes (or
  deterministically in-process at ``workers=1``), with identical
  outputs either way;
* :class:`ResultCache` and :func:`cell_key` / :func:`dataset_key` /
  :func:`workload_key` — the content-addressed on-disk cache for cells,
  datasets and workloads;
* :class:`ShardSpec` / :func:`evaluate_shard` — the chunk unit workers
  evaluate: its instances inline, or a dataset cache key plus a
  ``[start, stop)`` range.
"""

from repro.engine.cache import (
    CACHE_VERSION,
    CacheStats,
    ResultCache,
    answer_from_dict,
    answer_to_dict,
    cell_key,
    dataset_key,
    prompt_fingerprint,
    workload_key,
)
from repro.engine.core import EngineConfig, ExperimentEngine
from repro.engine.worker import (
    ShardSpec,
    evaluate_shard,
    reset_worker_caches,
)

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "EngineConfig",
    "ExperimentEngine",
    "ResultCache",
    "ShardSpec",
    "answer_from_dict",
    "answer_to_dict",
    "cell_key",
    "dataset_key",
    "evaluate_shard",
    "prompt_fingerprint",
    "reset_worker_caches",
    "workload_key",
]
