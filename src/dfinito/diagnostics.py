"""Per-epoch error metrics and theoretical bound envelopes."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, as_vector, prox, subgradient_residual, validate_permutation

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
BOUNDED = ("cyclic", "reshuffle", "shuffle_once")  # the regimes with an envelope


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
        """The CSV row in ``CSV_COLUMNS`` order: ``repr`` floats, an empty cell for None."""
        values = [getattr(self, column) for column in CSV_COLUMNS[2:-1]]
        return [str(self.epoch), str(self.grad_evals),
                *["" if v is None else repr(float(v)) for v in values], self.flags]


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


def certified_step(L, mu=0.0):
    """2/(mu+L), the largest certified step; 2/L bit for bit at mu = 0 (0.0 + L is L)."""
    return 2.0 / (mu + L)


def certify(L, component_L, mu, alpha, theta):
    """The theorems' hypotheses at (alpha, theta): (flags, convex, rate).

    ``convex`` says whether the sublinear envelope holds (0 < alpha <= 2/L, theta < 1);
    ``rate`` is the linear envelope's per-epoch factor 1 - 2 theta alpha mu L/(mu+L)
    where that one holds (mu > 0, 0 < alpha <= 2/(mu+L)), else None. ``flags`` names
    what the run breaks: alpha above 2/(mu+L) and, at mu = 0, theta = 1. The flags read
    the roughest f_i's ``component_L``, the envelopes ``L``; they differ for logistic
    only, so a logistic run at the "theory" step is flagged and still gets both bounds.
    """
    flags = []
    if alpha > certified_step(component_L, mu):
        flags.append("alpha_uncertified")
    if mu == 0 and theta >= 1.0:
        flags.append("theta_uncertified")
    convex = 0.0 < theta < 1.0 and 0.0 < alpha <= certified_step(L)
    linear = mu > 0 and 0.0 < theta <= 1.0 and 0.0 < alpha <= certified_step(L, mu)
    rate = 1.0 - 2.0 * theta * alpha * mu * L / (mu + L) if linear else None
    return ";".join(flags), convex, rate


def convex_envelope(alpha, theta, L, n, z0, zstar, regime, order=None):
    """The sublinear envelope as a function of the epoch k, its regime
    constant computed once; ValueError where the bound does not apply."""
    if not certify(L, L, 0.0, alpha, theta)[1]:
        raise ValueError("convex envelope needs 0 < alpha <= 2/L and theta inside (0, 1)")
    factor = (5.0 / (3.0 * alpha * L) if regime == "reshuffle" else 2.0 / (alpha * L)) ** 2
    scaled = _regime_constant(factor, n, z0, zstar, regime, order) * L**2
    return lambda k: scaled / ((k + 1) * theta * (1.0 - theta))


def strongly_convex_envelope(alpha, theta, L, mu, n, z0, zstar, regime, order=None):
    """The linear envelope as a function of the epoch k, its regime constant
    computed once; ValueError where the bound does not apply."""
    rate = certify(L, L, mu, alpha, theta)[2]
    if rate is None:
        raise ValueError("strongly convex envelope needs mu > 0, 0 < alpha <= 2/(mu+L), theta <= 1")
    C = _regime_constant(1.0, n, z0, zstar, regime, order)
    return lambda k: rate**k * C


def bound_convex(k, alpha, theta, L, n, z0, zstar, regime, order=None) -> float:
    """Sublinear envelope on the (expected) gradient-mapping residual."""
    return convex_envelope(alpha, theta, L, n, z0, zstar, regime, order)(k)


def bound_strongly_convex(k, alpha, theta, L, mu, n, z0, zstar, regime, order=None) -> float:
    """Linear envelope on the (expected) squared distance to the optimum."""
    return strongly_convex_envelope(alpha, theta, L, mu, n, z0, zstar, regime, order)(k)
