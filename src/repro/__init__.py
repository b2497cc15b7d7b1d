"""DeepSeq: Deep Sequential Circuit Learning — full reproduction.

Reproduces Khan, Shi, Li & Xu, *DeepSeq: Deep Sequential Circuit Learning*
(DATE 2024; arXiv:2302.13608) from scratch on numpy:

* :mod:`repro.circuit` — netlist IR, ``.bench`` I/O, AIG lowering,
  levelized circuit graphs, synthetic benchmark suites;
* :mod:`repro.sim` — bit-parallel sequential logic simulation, workloads,
  fault injection, SAIF;
* :mod:`repro.nn` — parameters, layers as forward/backward kernel pairs, optimizers;
* :mod:`repro.models` — DeepSeq, DAG-ConvGNN/DAG-RecGNN baselines,
  Grannite;
* :mod:`repro.runtime` — batched inference runtime: compiled graph plans,
  multi-circuit packing, float32 serving fast path;
* :mod:`repro.train` — datasets, trainer, metrics, fine-tuning;
* :mod:`repro.tasks` — power estimation and reliability analysis;
* :mod:`repro.experiments` — one driver per paper table (I–VII).

See README.md for the full map.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
