"""The resilient placement-advisory service.

``repro.service`` is the operational front end the paper argues for in
§V–VI: the class model exists so a scheduler can ask "where do I place
this I/O task" cheaply — and keep asking while the fabric misbehaves.
Stdlib-only asyncio JSON-RPC over TCP or stdio, backed by the warm
:class:`~repro.solver.session.SolverSession` registry so repeated
placement queries amortise capacity and allocation caches.

Answers flow through a **three-tier answer path**
(:mod:`repro.service.tiers`): an analytic closed-form fit (tier 1,
microseconds), memoized class snapshots (tier 2, bit-identical to the
solver path), and the full Algorithm 1 solve (tier 3) that refreshes
the fast tiers — every response tagged ``{"tier", "staleness_s"}``,
identical in-flight solves coalesced onto one pending build.

The robustness machinery is the point:

* schema-validated requests with **typed errors** (never a traceback
  over the wire);
* per-request **deadlines** with real cancellation;
* a bounded admission queue with explicit **backpressure** rejection;
* a **circuit breaker** that trips on repeated solver failures and
  serves *degraded class-level answers* (last-good per-class bandwidths
  from the most recent characterization) until half-open probes succeed;
* graceful **drain** on shutdown;
* a deterministic **soak engine** that drives scripted traffic while a
  fault scenario (partition, derate-with-repair, or none) fires
  mid-stream;
* an always-on **live metrics plane** (:mod:`repro.obs.live`): per
  method/tier latency histograms, a bounded flight recorder dumped on
  breaker trips and crashes, a model **drift watch** over every tier-3
  solve, all served by the ``metrics`` method and ``repro-numa obs
  scrape`` / ``obs top`` / ``obs tail``.
"""

from repro.service.backend import AdvisoryBackend, ClassSnapshot, SessionPool
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import (
    ERROR_CODES,
    METHODS,
    TIER_NAMES,
    decode_request,
    encode_message,
    error_response,
    result_response,
    validate_params,
)
from repro.service.tiers import (
    TIER_ANALYTIC,
    TIER_CLASS,
    TIER_SOLVE,
    AnalyticFit,
    TierEntry,
    TierStore,
    stamp_tier,
)
from repro.service.server import (
    AsyncPlacementServer,
    PlacementService,
    ServiceConfig,
    serve_stdio,
)
from repro.service.soak import (
    SoakReport,
    build_derate_plan,
    build_soak_plan,
    run_soak,
)

__all__ = [
    "AdvisoryBackend",
    "ClassSnapshot",
    "SessionPool",
    "CircuitBreaker",
    "ERROR_CODES",
    "METHODS",
    "TIER_NAMES",
    "TIER_ANALYTIC",
    "TIER_CLASS",
    "TIER_SOLVE",
    "AnalyticFit",
    "TierEntry",
    "TierStore",
    "stamp_tier",
    "decode_request",
    "encode_message",
    "error_response",
    "result_response",
    "validate_params",
    "AsyncPlacementServer",
    "PlacementService",
    "ServiceConfig",
    "serve_stdio",
    "SoakReport",
    "build_derate_plan",
    "build_soak_plan",
    "run_soak",
]
