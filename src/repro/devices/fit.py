"""Fit device response curves from measurements.

The shipped device profiles are calibrated to the paper's tables; a
downstream user with different hardware needs the *inverse* operation:
given a per-node I/O sweep (their fio measurements) and the machine's
DMA paths, recover the deficit curve
``bw = cap − beta·(ref − path)^gamma``.

:func:`fit_response_curve` solves the bounded least-squares problem
with :mod:`scipy.optimize`; :func:`fit_engine_profile` wraps the result
into a ready-to-attach :class:`~repro.devices.response.EngineProfile`.
scipy is imported only when a fit runs; it ships with the ``fit`` extra
(``pip install -e .[fit]``), so importing this module stays numpy-only.
The calibration recipe in ``docs/calibration.md`` §4 is exactly this
function run by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.devices.response import EngineProfile, ResponseCurve
from repro.errors import DeviceError
from repro.topology.machine import Machine

__all__ = ["CurveFit", "fit_response_curve", "fit_engine_profile"]


@dataclass(frozen=True)
class CurveFit:
    """A fitted curve plus its quality."""

    curve: ResponseCurve
    residual_rms_gbps: float
    max_abs_error_gbps: float

    def render(self) -> str:
        """One-line summary."""
        c = self.curve
        return (
            f"cap={c.cap_gbps:.2f} ref={c.path_ref_gbps:.1f} "
            f"beta={c.beta:.4g} gamma={c.gamma:.3f} "
            f"(rms {self.residual_rms_gbps:.2f}, "
            f"worst {self.max_abs_error_gbps:.2f} Gbps)"
        )


def fit_response_curve(
    path_gbps: Mapping[int, float],
    measured_gbps: Mapping[int, float],
    path_ref_gbps: float | None = None,
) -> CurveFit:
    """Fit ``(cap, beta, gamma)`` to per-node (path, bandwidth) samples.

    Needs scipy (``scipy.optimize.least_squares``), from the ``fit``
    extra: ``pip install -e .[fit]``.

    Parameters
    ----------
    path_gbps:
        node -> DMA-path bandwidth of the placement (from
        :meth:`~repro.topology.machine.Machine.dma_path_gbps` or an
        Algorithm 1 model).
    measured_gbps:
        node -> measured I/O bandwidth of the same placement.
    path_ref_gbps:
        Saturation anchor; defaults to the largest *non-local* path in
        the data (the class-1 level, per the calibration recipe).

    Raises
    ------
    DeviceError
        With fewer than three distinct path levels (the curve has three
        parameters).
    """
    from scipy import optimize

    common = sorted(set(path_gbps) & set(measured_gbps))
    if len(common) < 3:
        raise DeviceError(
            f"need >= 3 common nodes to fit a curve, got {len(common)}"
        )
    paths = np.array([path_gbps[n] for n in common], dtype=float)
    bws = np.array([measured_gbps[n] for n in common], dtype=float)
    if (paths <= 0).any() or (bws <= 0).any():
        raise DeviceError("paths and bandwidths must be positive")
    if len(np.unique(np.round(paths, 3))) < 3:
        raise DeviceError(
            "need >= 3 distinct path levels to identify the curve shape"
        )
    ref = float(path_ref_gbps) if path_ref_gbps is not None else float(
        np.sort(paths)[-2]
    )

    def predict(params: np.ndarray) -> np.ndarray:
        # No 5 %-of-cap floor here: clamping inside the fit would zero
        # the gradient for deeply-degraded points and strand the
        # optimizer; the floor applies only when the curve is *used*.
        cap, beta, gamma = params
        deficit = np.maximum(0.0, ref - paths)
        return cap - beta * deficit**gamma

    def residuals(params: np.ndarray) -> np.ndarray:
        return predict(params) - bws

    cap0 = float(bws.max())
    deficit = np.maximum(ref - paths, 0.0)
    mask = deficit > 1e-6
    beta0 = (
        float(np.median((cap0 - bws[mask]) / np.maximum(deficit[mask], 1e-6)))
        if mask.any()
        else 0.01
    )
    result = optimize.least_squares(
        residuals,
        x0=[cap0, max(beta0, 1e-4), 1.5],
        bounds=([bws.max() * 0.8, 1e-9, 0.05], [bws.max() * 1.5, 1e3, 6.0]),
    )
    cap, beta, gamma = (float(v) for v in result.x)
    curve = ResponseCurve(cap_gbps=cap, path_ref_gbps=ref, beta=beta, gamma=gamma)
    errors = predict(result.x) - bws
    return CurveFit(
        curve=curve,
        residual_rms_gbps=float(np.sqrt(np.mean(errors**2))),
        max_abs_error_gbps=float(np.abs(errors).max()),
    )


def fit_engine_profile(
    machine: Machine,
    device_node: int,
    direction: str,
    measured_gbps: Mapping[int, float],
    name: str,
    path_ref_gbps: float | None = None,
    **profile_kwargs,
) -> EngineProfile:
    """Fit a full engine profile from a per-node I/O sweep.

    Computes the DMA paths for ``direction`` against ``device_node``,
    fits the curve (``path_ref_gbps`` anchors saturation, defaulting as
    in :func:`fit_response_curve`), and returns an
    :class:`EngineProfile` carrying it (remaining profile parameters
    pass through ``profile_kwargs``).  Needs scipy, like
    :func:`fit_response_curve`: ``pip install -e .[fit]``.
    """
    if direction == "write":
        paths = {n: machine.dma_path_gbps(n, device_node) for n in machine.node_ids}
    elif direction == "read":
        paths = {n: machine.dma_path_gbps(device_node, n) for n in machine.node_ids}
    else:
        raise DeviceError(f"direction must be 'write' or 'read', got {direction!r}")
    fit = fit_response_curve(paths, measured_gbps, path_ref_gbps=path_ref_gbps)
    return EngineProfile(name=name, curve=fit.curve, **profile_kwargs)
