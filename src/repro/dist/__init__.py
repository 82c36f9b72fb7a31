"""Process-parallel distributed synthesis (the ``processes`` backend).

The paper parallelises synthesis with C++ threads; CPython's GIL
serialises pure-Python model checking across threads, so this package
delivers the wall-clock speedups by sharding candidate evaluation across
worker *processes*:

* :mod:`repro.dist.coordinator` — shard-aligned batch planning, the
  shared work-stealing task queue, pattern broadcast, deterministic
  result aggregation;
* :mod:`repro.dist.worker` — per-process evaluation loop sharing the
  sequential engine's verdict path (and, when a verdict store is
  configured, recording/replaying verdicts through it);
* :mod:`repro.dist.messages` — the compact picklable wire protocol;
* :mod:`repro.dist.wire` — packed wire forms (digit tuples + integer
  counters) for candidate/verdict traffic.

Quickstart::

    from repro.dist import DistributedSynthesisEngine, SystemSpec

    report = DistributedSynthesisEngine(SystemSpec("msi-small"), workers=4).run()
"""

from repro.dist.coordinator import (
    DistributedSynthesisEngine,
    plan_batches,
    plan_shard_batches,
)
from repro.dist.messages import SystemSpec

__all__ = [
    "DistributedSynthesisEngine",
    "SystemSpec",
    "plan_batches",
    "plan_shard_batches",
]
