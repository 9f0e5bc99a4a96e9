"""Problem abstraction, the regularizer's prox and the fixed-order table sums.

A :class:`ProblemInstance` is the finite sum (1/n) sum_i f_i(x) + r(x).
Its components are least squares or ridge-folded logistic, and it carries
their raw data arrays. :meth:`ProblemInstance.full_grad` is the one
full-gradient path, and :meth:`ProblemInstance.unchecked_grad` hands the hot
loops one callable ``grad(i, x)``, the per-component gradient with its row
data bound once and no input validation; :meth:`ProblemInstance.grad_rows`
gives the literal operators and oracles the same gradients for a stack of
points. r is a :class:`Regularizer`: :func:`prox` checks its inputs and returns
a new array, every hot loop resolves :func:`prox_map` once per run or epoch and
calls the map it returns, and :func:`subgradient_residual` is the residual metric.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

REG_KINDS = ("none", "l1", "l2sq")

PROBLEM_KINDS = ("least_squares", "logistic")


def as_vector(x, dim=None):
    """Validate and return a finite 1-d float64 vector."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or infinite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    return v


def check_step(alpha, theta=1.0):
    """Raise ValueError unless alpha is positive and finite and theta in (0, 1], as every rate needs."""
    if not (alpha > 0):
        raise ValueError("alpha must be positive")
    if alpha == math.inf:
        raise ValueError("alpha must be positive and finite, got inf")
    if not (0.0 < theta <= 1.0):
        raise ValueError("theta must lie in (0, 1]")


def check_int(name, value, low=1):
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= ``low``; a bool is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def check_epoch(p, z, zbar, alpha, theta):
    """An epoch's input checks: :func:`check_step`, then the table z and its mean zbar of ``p``."""
    check_step(alpha, theta)
    if z.shape != (p.n, p.d) or zbar.shape != (p.d,):
        raise ValueError(f"table and mean must be ({p.n}, {p.d}) and ({p.d},), "
                         f"got {z.shape}, {zbar.shape}")


def check_constants(L, mu, ridge=0.0):
    """Raise ValueError naming the field unless 0 < L < inf, 0 <= mu <= L and 0 <= ridge < inf."""
    if not (0.0 < L < math.inf):
        raise ValueError(f"L must be finite and > 0, got {L!r}")
    if not (0.0 <= mu <= L):
        raise ValueError("need 0 <= mu <= L")
    if not (0.0 <= ridge < math.inf):
        raise ValueError(f"ridge must be finite and >= 0, got {ridge!r}")


def ordered_sum(rows):
    """Sum table rows strictly left to right, starting from +0.0; a stack of
    (n, d) tables is summed table by table, over its second-to-last axis.

    Table means use this fixed order so that runs do not depend on a BLAS
    reduction strategy. numpy's reduce over the row axis adds whole rows in
    turn only on a C-contiguous table with two or more columns; down one
    column (or in Fortran order) it sums pairwise.
    """
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim < 2:
        raise ValueError(f"expected a table of rows, got shape {rows.shape}")
    if rows.shape[-1] >= 2:
        return np.add.reduce(np.ascontiguousarray(rows), axis=-2, initial=0.0)
    acc = np.zeros(rows.shape[:-2] + rows.shape[-1:])
    for r in np.moveaxis(rows, -2, 0):
        acc = acc + r
    return acc


def ordered_mean(rows):
    rows = np.asarray(rows, dtype=np.float64)
    return ordered_sum(rows) / rows.shape[-2]


def stable_sigmoid(u):
    """Elementwise 1 / (1 + exp(-u)) without overflow."""
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _grad_least_squares(A, At, b):
    """grad(i, x) of 0.5 ||A_i x - b_i||^2 over the rows of A, their transposes and
    the rows of b; unchecked."""
    def grad(i, x):
        return At[i].dot(A[i].dot(x) - b[i])
    return grad


def _grad_logistic(W, y, ridge):
    """grad(i, x) of log(1 + exp(-y_i w_i.x)) + (ridge/2)||x||^2 over the rows of W
    and the labels; unchecked. The sigmoid branches on the sign of the margin so
    that exp never overflows; it matches :func:`stable_sigmoid` at -margin. It
    serves logistic+l1 epochs, the literal epoch and the baselines; the blocked
    epoch of :mod:`kernels` takes its own sigmoid."""
    def grad(i, x):
        w, yi = W[i], y[i]
        m = yi * w.dot(x)
        if m <= 0.0:
            s = 1.0 / (1.0 + np.exp(m))
        else:
            e = np.exp(-m)
            s = e / (1.0 + e)
        return -yi * s * w + ridge * x
    return grad


@dataclass(frozen=True)
class Regularizer:
    """Convex regularizer r(x) with a closed-form prox: none, l1, or squared l2."""

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in REG_KINDS:
            raise ValueError(f"unsupported regularizer kind {self.kind!r}")
        if not (math.isfinite(self.lam) and self.lam >= 0.0):
            raise ValueError("regularizer weight must be finite and >= 0")
        if self.kind == "none" and self.lam != 0.0:
            raise ValueError(f"lam must be 0 for regularizer 'none', got {self.lam!r}")

    @classmethod
    def none(cls):
        return cls("none", 0.0)

    @classmethod
    def l1(cls, lam):
        return cls("l1", float(lam))

    @classmethod
    def l2sq(cls, lam):
        return cls("l2sq", float(lam))

    def value(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "l1":
            return self.lam * float(np.sum(np.abs(x)))
        if self.kind == "l2sq":
            return 0.5 * self.lam * float(x @ x)
        return 0.0


def prox_map(r: Regularizer, alpha: float):
    """The map v -> ``prox(r, alpha, v)``, resolved once and unchecked, so hot loops
    step with one call and no branch. For ``none`` it returns v itself, not a copy;
    the l1 soft-threshold and the l2sq scale return new arrays."""
    t = alpha * r.lam
    if r.kind == "l1":
        return lambda v: np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if r.kind == "l2sq":
        return lambda v: v / (1.0 + t)
    return lambda v: v


def prox(r: Regularizer, alpha: float, v) -> np.ndarray:
    """argmin_y { alpha * r(y) + 0.5 ||y - v||^2 }, a new array.

    Single-valued for the supported convex regularizers; the identity when
    r is zero.
    """
    check_step(alpha)
    v = as_vector(v)
    x = prox_map(r, alpha)(v)
    return v.copy() if x is v else x


def subgradient_residual(r: Regularizer, x, g_smooth) -> float:
    """min over g in the subdifferential of r at x of ||g_smooth + g||^2.

    Computed coordinatewise; exact for the separable regularizers supported
    here.
    """
    x = as_vector(x)
    g = as_vector(g_smooth, x.shape[0])
    if r.kind == "none":
        return float(g @ g)
    if r.kind == "l2sq":
        res = g + r.lam * x
        return float(res @ res)
    # l1, the one kind left: Regularizer refuses any other
    lam = r.lam
    # Where x_i = 0 the best subgradient projects -g_i onto [-lam, lam];
    # elsewhere it is pinned to lam * sign(x_i).
    at_zero = x == 0.0
    res = np.where(
        at_zero,
        np.maximum(np.abs(g) - lam, 0.0),
        np.abs(g + lam * np.sign(x)),
    )
    return float(res @ res)


@dataclass
class ProblemInstance:
    """Immutable finite-sum problem: n component oracles plus a regularizer.

    ``mu`` is the strong-convexity constant (0 means merely convex) and ``L`` the smoothness
    of every f_i (least squares) or of the mean loss, lmax(W^T W)/(4n) + ridge (logistic),
    which every consumer reads but the run flags (:func:`diagnostics.certify`).
    """

    kind: str
    n: int
    d: int
    regularizer: Regularizer
    L: float
    mu: float
    A: np.ndarray | None = None  # least squares, shape (n, k, d)
    b: np.ndarray | None = None  # least squares, shape (n, k)
    W: np.ndarray | None = None  # logistic, shape (n, d)
    y: np.ndarray | None = None  # logistic labels in {-1, +1}, shape (n,)
    ridge: float = 0.0  # logistic: per-component (lam/2)||x||^2 folded in
    metadata: dict = field(default_factory=dict)
    # the blocked epoch's last order-only data, kept by kernels._blocks
    _blocks_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in PROBLEM_KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        check_int("n", self.n)
        check_int("d", self.d)
        check_constants(self.L, self.mu, self.ridge)
        if self.ridge != 0.0 and self.kind != "logistic":
            raise ValueError(f"ridge is for logistic instances only, got {self.ridge!r} "
                             f"for kind {self.kind}")
        if self.kind == "least_squares":
            self.A = np.asarray(self.A, dtype=np.float64)
            self.b = np.asarray(self.b, dtype=np.float64)
            if self.A.ndim != 3 or self.A.shape[0] != self.n or self.A.shape[2] != self.d:
                raise ValueError(f"A must have shape (n, k, d), got {self.A.shape}")
            if self.b.shape != self.A.shape[:2]:
                raise ValueError(f"b must have shape (n, k), got {self.b.shape}")
        else:
            self.W = np.asarray(self.W, dtype=np.float64)
            self.y = np.asarray(self.y, dtype=np.float64)
            if self.W.shape != (self.n, self.d):
                raise ValueError(f"W must have shape (n, d), got {self.W.shape}")
            if self.y.shape != (self.n,):
                raise ValueError("y must have shape (n,)")
            if not np.all(np.isin(self.y, (-1.0, 1.0))):
                raise ValueError("labels must be -1 or +1")

    def _check_index(self, i):
        if not (0 <= i < self.n):
            raise IndexError(f"component index {i} out of range [0, {self.n})")

    def component_value(self, i, x):
        self._check_index(i)
        x = as_vector(x, self.d)
        if self.kind == "least_squares":
            r = self.A[i] @ x - self.b[i]
            return 0.5 * float(r @ r)
        m = self.y[i] * (self.W[i] @ x)
        return float(np.logaddexp(0.0, -m)) + 0.5 * self.ridge * float(x @ x)

    def component_grad(self, i, x):
        self._check_index(i)
        return self._grad(i, as_vector(x, self.d))

    def unchecked_grad(self):
        """grad(i, x), the gradient of f_i at x.

        The epoch loop calls grad n times per epoch, so it skips the index
        and vector checks and reads row data bound once (:attr:`_grad`).
        """
        return self._grad

    def grad_rows(self, idx, X):
        """Row s is grad f_idx[s] at X[s], bytes equal to :meth:`unchecked_grad` row
        by row (a stacked ``matmul`` takes each row's BLAS product); unchecked.
        Data are gathered only if ``idx`` is not 0..n-1."""
        idx = np.asarray(idx, dtype=np.intp)
        every = np.array_equal(idx, np.arange(self.n))
        if self.kind == "least_squares":
            A, b = (self.A, self.b) if every else (self.A[idx], self.b[idx])
            r = np.matmul(A, X[:, :, None])[..., 0] - b
            return np.matmul(np.swapaxes(A, 1, 2), r[:, :, None])[..., 0]
        W, y = (self.W, self.y) if every else (self.W[idx], self.y[idx])
        m = y * np.matmul(W[:, None, :], X[:, :, None])[:, 0, 0]
        return (-y * stable_sigmoid(-m))[:, None] * W + self.ridge * X

    @cached_property
    def _grad(self):
        """The unchecked grad(i, x) over row views split once, so a step indexes
        a list: rows of A, their transposes and rows of b, or rows of W, labels
        as floats and ridge."""
        if self.kind == "least_squares":
            A = list(self.A)
            return _grad_least_squares(A, [a.T for a in A], list(self.b))
        return _grad_logistic(list(self.W), self.y.tolist(), self.ridge)

    @cached_property
    def component_L(self):
        """The roughest f_i's smoothness: ``L``, or max_i ||w_i||^2/4 + ridge for logistic."""
        if self.kind == "logistic":
            return float(np.max(np.einsum("ij,ij->i", self.W, self.W))) / 4.0 + self.ridge
        return self.L

    @cached_property
    def gram(self):
        """Least squares: (H, g) = (mean A_i^T A_i, mean A_i^T b_i), computed once; read-only."""
        H = np.einsum("ikd,ike->de", self.A, self.A) / self.n
        g = np.einsum("ikd,ik->d", self.A, self.b) / self.n
        H.flags.writeable = g.flags.writeable = False
        return H, g

    def full_grad(self, x):
        """(1/n) sum_i grad f_i(x): H x - g over :attr:`gram` for least squares; for
        logistic an einsum sum over components, never a threaded BLAS product, so it
        is the same for any BLAS thread count."""
        x = as_vector(x, self.d)
        if self.kind == "least_squares":
            H, g = self.gram
            return H @ x - g
        s = stable_sigmoid(-(self.y * (self.W @ x)))
        return -np.einsum("i,ij->j", self.y * s, self.W) / self.n + self.ridge * x

    def full_value(self, x):
        x = as_vector(x, self.d)
        total = 0.0
        for i in range(self.n):
            total += self.component_value(i, x)
        return total / self.n


def integer_order(order):
    """``order`` as an array of integers; a float, bool or string array is refused, not
    cast, and so is a list or tuple that holds a bool, which numpy would cast to an
    integer among integers. An ndarray's elements are not looked at one by one."""
    if isinstance(order, (list, tuple)) and any(isinstance(i, (bool, np.bool_)) for i in order):
        raise ValueError(f"an order must hold integers, not bools, got {order!r}")
    order = np.asarray(order)
    if order.dtype.kind not in "iu":
        raise ValueError(f"an order must hold integers, got dtype {order.dtype}")
    return order


def validate_permutation(order, n):
    """Check that ``order`` is a permutation of 0..n-1 (:func:`integer_order`); return
    it as int64."""
    order = integer_order(order)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"not a permutation of range({n}): {order}")
    return order.astype(np.int64, copy=False)
