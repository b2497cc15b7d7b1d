"""The data factory: parallel, cache-backed label generation (PR 4).

Every supervised signal in this reproduction comes out of ``repro.sim``;
this package turns that serial bottleneck into a subsystem:

* :class:`DataFactory` — fans simulation/fault-labelling jobs over a
  process pool and memoizes results in a content-addressed label cache
  (:mod:`repro.data.cache`), keyed like the runtime's plan/pack LRUs.
* :mod:`repro.data.shards` — npz-shard + JSON-manifest persistence with a
  streaming :class:`ShardReader` that feeds the trainer directly.
* :mod:`repro.data.sweep` — coverage-screened workload-sweep generation
  for scenario diversity on the large designs.
"""

from repro.data.cache import CACHE_VERSION, CacheStats, LabelCache, label_key
from repro.data.factory import DataFactory, FactoryConfig, get_factory, set_factory
from repro.data.shards import (
    MANIFEST_NAME,
    ShardError,
    ShardReader,
    load_manifest,
    write_shards,
)
from repro.data.sweep import SweepConfig, SweepResult, sweep_workloads

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "LabelCache",
    "label_key",
    "DataFactory",
    "FactoryConfig",
    "get_factory",
    "set_factory",
    "MANIFEST_NAME",
    "ShardError",
    "ShardReader",
    "load_manifest",
    "write_shards",
    "SweepConfig",
    "SweepResult",
    "sweep_workloads",
]
