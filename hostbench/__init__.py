"""Host-clock benchmark of the GDroid reproduction.

Three workloads measure how long the Python reproduction takes on the
host, end to end and per layer (``python3 hostbench/run.py --help``):

* ``sweep-cold``  -- closed batches of full-scale apps through
  ``evaluate_corpus(jobs=2, strict=True, rules=exfiltration)``;
* ``serve-open``  -- labelled scenario apps sent at a fixed rate to a
  process-pool ``VettingService``;
* ``revet-bump``  -- serial ``vet_incremental`` re-vets of version
  bumps against a seeded summary store.

Modeled device time is never a metric here: it is deterministic, so it
is part of the output checks instead.
"""
