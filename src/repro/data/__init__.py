"""The data factory: parallel, cache-backed label generation.

Every supervised signal in this reproduction comes out of ``repro.sim``;
this package turns that serial bottleneck into a subsystem:
:class:`DataFactory` fans simulation/fault-labelling jobs over a process
pool and memoizes results in a content-addressed label cache
(:mod:`repro.data.cache`), keyed like the runtime's plan/pack LRUs.
"""

from repro.data.cache import CACHE_VERSION, CacheStats, LabelCache, label_key
from repro.data.factory import DataFactory, FactoryConfig, LabelWorkerError

__all__ = [
    "CACHE_VERSION",
    "CacheStats",
    "LabelCache",
    "label_key",
    "DataFactory",
    "FactoryConfig",
    "LabelWorkerError",
]
