"""Built-in rule set; importing this package registers every rule.

Rule catalogue (see DESIGN.md S20 for the full rationale):

====  ===============  ====================================================
id    name             invariant
====  ===============  ====================================================
R1    determinism      no wall clock / unseeded RNG in cached or trial
                       paths — randomness flows from an injected
                       ``SeedSequence``
R2    cache-purity     values fed to ``canonical()``/``content_key()``
                       must be serializable data, not closures/handles
R3    fork-safety      module-level mutable state in worker-imported
                       packages needs an ``activate()``-style reset hook
R4    except-hygiene   no bare/broad ``except`` without logging, a
                       metrics counter, or a re-raise
R5    units            scale arithmetic in ``circuits``/``tech`` uses
                       named ``repro.units`` constants, not magic
                       powers of ten
R7*   lock-discipline  attributes written under a class's lock are not
                       touched bare elsewhere; ``Condition.wait``
                       needs ``wait_for``/a predicate loop; notify
                       holds the lock (call-graph aware)
R8*   thread-lifecycle non-daemon threads are joined; executors and
                       HTTP servers have a with/shutdown path
                       (subclasses via the class hierarchy)
R9*   determinism-     wall-clock/global-RNG sources stay >= 4 call
      taint            hops away from ``canonical()``/``content_key``/
                       ``fingerprint()`` sinks, project-wide
====  ===============  ====================================================

R6 is retired (a point-wise solve loop is not the slow path for
nonlinear devices, DESIGN.md S22); the id is not reused.

Rules marked ``*`` are project rules (``needs_graph = True``): they
run in the project-analysis pass over the whole-project semantic
index (:mod:`repro.analysis.graph`, DESIGN.md S25) instead of one
module at a time.
"""

from repro.analysis.rules import (  # noqa: F401  (registration imports)
    determinism,
    exceptions,
    forksafety,
    lifecycle,
    locks,
    purity,
    tainting,
    units,
)
