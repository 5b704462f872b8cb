"""Seeded exponential backoff shared by every retry loop in the library.

One policy, two very different consumers:

* the fault policy of the flow simulator
  (:class:`~repro.faults.degraded.DegradedFlowRunner`) parks a flow on
  a dead resource and wakes it for another try after a backoff delay;
* the placement-advisory service's circuit breaker
  (:class:`~repro.service.breaker.CircuitBreaker`) holds its OPEN state
  for a backoff window before admitting a half-open probe.

Both need the same contract: the delay for attempt ``k`` is
``base_delay_s * multiplier**k``, optionally jittered by a *seeded*
generator so that a fixed seed yields a bit-identical delay sequence.
The jitter draw is a single ``rng.random()`` per delay — the property
tests pin that existing draw sequences stay bit-identical to the
pre-extraction :mod:`repro.faults.degraded` implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import FaultError

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Seeded exponential backoff with a bounded budget.

    A blocked consumer waits ``base_delay_s * multiplier**attempt``
    seconds (jittered by ``±jitter`` relative, drawn from the caller's
    seeded generator) before re-checking; after ``max_retries`` failed
    checks it gives up.  Consumers that never give up (the service's
    circuit breaker) simply ignore ``max_retries``.
    """

    max_retries: int = 4
    base_delay_s: float = 0.25
    multiplier: float = 2.0
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay_s <= 0 or self.multiplier < 1.0:
            raise FaultError("backoff delay must be positive and non-shrinking")
        if not 0.0 <= self.jitter < 1.0:
            raise FaultError(f"jitter must be in [0, 1), got {self.jitter!r}")

    def delay_s(self, attempt: int, rng: np.random.Generator | None) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        delay = self.base_delay_s * self.multiplier**attempt
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * float(2.0 * rng.random() - 1.0)
        return delay
