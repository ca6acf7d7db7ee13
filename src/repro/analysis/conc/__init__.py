"""conclint: the concurrency correctness layer.

Two halves share one vocabulary:

* :mod:`~repro.analysis.conc.static` -- AST passes over ``src/repro``
  emitting ``CCxxx`` :class:`~repro.analysis.diagnostics.Diagnostic`
  findings (lock discipline, blocking-call-under-lock, exception
  hygiene, transport readiness).
* :mod:`~repro.analysis.conc.runtime` -- the opt-in lock-order /
  deadlock verifier (:class:`~repro.analysis.conc.runtime.LockVerifier`)
  enabled with ``Cluster(verify_locking=True)``.

The shared vocabulary is :mod:`~repro.analysis.conc.annotations`: the
guarded-by facts and lock-hierarchy declarations that the static passes
check syntactically and the runtime verifier checks dynamically.  Each
name is imported from the module that defines it.
"""
