"""repro.perf — shared evidence base, execution memoization, parallel fan-out.

Five modules, each usable on its own:

* :mod:`repro.perf.cache` — a bounded LRU :class:`ExecutionCache` that
  :func:`~repro.spec.adt.execute_invocation` consults when installed, so
  every semantic judgement in the library shares one execution pool;
  counters export through the :mod:`repro.obs` metrics registry.
* :mod:`repro.perf.evidence` — the :class:`EvidenceBase` built once per
  derivation: the full state x invocation execution matrix, the successor
  index, memoized replay, and the Stage-4 evidence queries.
* :mod:`repro.perf.parallel` — ``multiprocessing`` fan-out over the
  independent O(n^2) operation pairs of the table builders, with a
  sequential fallback (``jobs <= 1``) that is bit-identical.
* :mod:`repro.perf.shadow` — the :class:`ShadowStateIndex` backing the
  runtime scheduler's certification hot path: per-object, per-active-
  transaction "log without that transaction" replay states, advanced
  incrementally per grant and epoch-invalidated on abort rollback.
* :mod:`repro.perf.codegen` — registration-time compilation of the
  scheduler hot path: :class:`ConflictMatrix` (the table as flat integer
  arrays over dense operation ids) and :class:`CompiledADT`
  (``exec``-generated per-operation executor closures), with
  :func:`compiled_execute` as the execution cache's compiled miss
  handler.  :class:`~repro.cc.reference.ReferenceScheduler` is the
  differential oracle the scheduler built on them is checked against.

See ``docs/PERFORMANCE.md`` for the architecture and the knobs.
"""

from repro.perf.cache import (
    DEFAULT_CACHE_MAXSIZE,
    CacheStats,
    ExecutionCache,
    ensure_execution_cache,
    execution_cache,
)
from repro.perf.codegen import (
    CompiledADT,
    ConflictMatrix,
    compile_adt,
    compiled_execute,
)
from repro.perf.evidence import EvidenceBase
from repro.perf.parallel import resolve_jobs, worker_pool
from repro.perf.shadow import ShadowStateIndex, ShadowStats

__all__ = [
    "DEFAULT_CACHE_MAXSIZE",
    "CacheStats",
    "CompiledADT",
    "ConflictMatrix",
    "ExecutionCache",
    "EvidenceBase",
    "ShadowStateIndex",
    "ShadowStats",
    "compile_adt",
    "compiled_execute",
    "ensure_execution_cache",
    "execution_cache",
    "resolve_jobs",
    "worker_pool",
]
