"""Per-epoch error metrics and theoretical bound envelopes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, as_vector, validate_permutation
from .prox import prox, subgradient_residual

CSV_COLUMNS = (
    "epoch",
    "grad_evals",
    "grad_map_residual_sq",
    "prox_residual_sq",
    "dist_sq_to_opt",
    "pi_norm_residual_sq",
    "bound_convex",
    "bound_sc",
    "flags",
)


@dataclass
class TraceRecord:
    """Diagnostics at one epoch boundary.

    ``pi_norm_residual_sq`` is the pi-norm of the z-table displacement of the
    epoch that just finished (absent on the initial record). Optional metrics
    are None when not computable (no reference solution, regime without a
    bound, etc.).
    """

    epoch: int
    grad_evals: int
    grad_map_residual_sq: float | None = None
    prox_residual_sq: float | None = None
    dist_sq_to_opt: float | None = None
    pi_norm_residual_sq: float | None = None
    bound_convex: float | None = None
    bound_sc: float | None = None
    flags: str = ""

    def to_row(self):
        def fmt(v):
            return "" if v is None else repr(float(v))

        return [
            str(self.epoch),
            str(self.grad_evals),
            fmt(self.grad_map_residual_sq),
            fmt(self.prox_residual_sq),
            fmt(self.dist_sq_to_opt),
            fmt(self.pi_norm_residual_sq),
            fmt(self.bound_convex),
            fmt(self.bound_sc),
            self.flags,
        ]


def pi_norm_sq(z, order):
    """Order-weighted squared norm: sum_{i=1..n} (i/n) ||z_{pi(i)}||^2, a float for
    one (n, d) table, an array of m for an (m, n, d) stack (``order`` checked once)."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 and z.ndim != 3:
        raise ValueError("z must be a 2-d table or a 3-d stack of tables")
    n = z.shape[-2]
    order = validate_permutation(order, n)
    weights = np.arange(1.0, n + 1) / n  # a float range: the bytes of i/n, no int cast
    if z.ndim == 2:
        return float(weights @ np.einsum("ij,ij->i", z, z)[order])
    return np.array([weights @ np.einsum("ij,ij->i", t, t)[order] for t in z])


def table_norm_sq(z) -> float:
    z = np.asarray(z, dtype=np.float64)
    return float(np.sum(z * z))


def rho_ratio(z0, zstar, order_opt) -> float:
    """||z0 - zstar||^2_{pi*} / ||z0 - zstar||^2, always in [1/n, 1]."""
    diff = np.asarray(z0, dtype=np.float64) - np.asarray(zstar, dtype=np.float64)
    denom = table_norm_sq(diff)
    if denom == 0.0:
        raise ZeroDivisionError("z0 equals zstar; rho undefined")
    return pi_norm_sq(diff, order_opt) / denom


def grad_map_residual(p: ProblemInstance, zbar, alpha) -> tuple[float, float]:
    """(true minimum, prox-certified) squared gradient-mapping residual.

    x = prox(r, alpha, zbar). The prox-certified value uses the specific
    subgradient (zbar - x)/alpha supplied by the prox step and upper-bounds
    the true minimum over the whole subdifferential.
    """
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    zbar = as_vector(zbar, p.d)
    x = prox(p.regularizer, alpha, zbar)
    gF = p.full_grad(x)
    certified_vec = gF + (zbar - x) / alpha
    certified = float(certified_vec @ certified_vec)
    true_min = subgradient_residual(p.regularizer, x, gF)
    return true_min, certified


def _regime_constant(factor, n, z0, zstar, regime, order=None) -> float:
    """An envelope's constant: ``factor`` times the regime's weighted squared
    distance of z0 to z*; ValueError for a regime without a bound."""
    diff = np.asarray(z0, dtype=np.float64) - np.asarray(zstar, dtype=np.float64)
    logn = math.log(n) + 1.0
    if regime == "cyclic":
        if order is None:
            raise ValueError("cyclic bound needs the fixed order")
        return factor * (logn / n) * pi_norm_sq(diff, order)
    if regime == "reshuffle":
        return factor * table_norm_sq(diff) / n
    if regime == "shuffle_once":
        return factor * ((n + 1) * logn / (2.0 * n**2)) * table_norm_sq(diff)
    raise ValueError(f"no bound for regime {regime!r}")


def convex_envelope(alpha, theta, L, n, z0, zstar, regime, order=None):
    """The sublinear envelope as a function of the epoch k, its regime
    constant computed once; ValueError where the bound does not apply."""
    if not (0.0 < theta < 1.0):
        raise ValueError("convex envelope needs theta strictly inside (0, 1)")
    if not (0.0 < alpha <= 2.0 / L):
        raise ValueError("convex envelope needs 0 < alpha <= 2/L")
    factor = (5.0 / (3.0 * alpha * L) if regime == "reshuffle" else 2.0 / (alpha * L)) ** 2
    scaled = _regime_constant(factor, n, z0, zstar, regime, order) * L**2
    return lambda k: scaled / ((k + 1) * theta * (1.0 - theta))


def strongly_convex_envelope(alpha, theta, L, mu, n, z0, zstar, regime, order=None):
    """The linear envelope as a function of the epoch k, its regime constant
    computed once; ValueError where the bound does not apply."""
    if not (mu > 0):
        raise ValueError("strongly convex envelope needs mu > 0")
    if not (0.0 < alpha <= 2.0 / (mu + L)):
        raise ValueError("strongly convex envelope needs 0 < alpha <= 2/(mu+L)")
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")
    C = _regime_constant(1.0, n, z0, zstar, regime, order)
    rate = 1.0 - 2.0 * theta * alpha * mu * L / (mu + L)
    return lambda k: rate**k * C


def bound_convex(k, alpha, theta, L, n, z0, zstar, regime, order=None) -> float:
    """Sublinear envelope on the (expected) gradient-mapping residual."""
    return convex_envelope(alpha, theta, L, n, z0, zstar, regime, order)(k)


def bound_strongly_convex(k, alpha, theta, L, mu, n, z0, zstar, regime, order=None) -> float:
    """Linear envelope on the (expected) squared distance to the optimum."""
    return strongly_convex_envelope(alpha, theta, L, mu, n, z0, zstar, regime, order)(k)
