import numpy as np
import pytest

from dfinito.model import Regularizer, prox, prox_map, subgradient_residual


def test_prox_none_is_identity():
    v = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(prox(Regularizer.none(), 0.7, v), v)
    assert prox_map(Regularizer.none(), 0.7)(v) is v  # the hot loops' map does not copy


# -0.0, subnormals, |v| = alpha * lam = 0.35 exactly, and ordinary values
EDGE_VALUES = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 0.35, -0.35,
                        np.nextafter(0.35, 1.0), 1.0, -2.0, 0.5])


@pytest.mark.parametrize("reg", [Regularizer.none(), Regularizer.l1(0.5), Regularizer.l2sq(0.5)])
def test_prox_returns_a_new_array(reg):
    for v in (np.array([1.0, -2.0, 0.5]), EDGE_VALUES.copy()):
        want = v.copy()
        out = prox(reg, 0.7, v)
        assert out.tobytes() == prox_map(reg, 0.7)(v).tobytes()
        assert not np.shares_memory(out, v)
        out += 1.0
        assert v.tobytes() == want.tobytes()


def test_prox_l1_soft_threshold_hand_values():
    # threshold t = alpha * lam = 0.5 * 2 = 1
    v = np.array([3.0, -0.5, 1.0, -4.0, 0.0])
    got = prox(Regularizer.l1(2.0), 0.5, v)
    assert np.array_equal(got, np.array([2.0, 0.0, 0.0, -3.0, 0.0]))
    assert got.tobytes() == prox_map(Regularizer.l1(2.0), 0.5)(v).tobytes()


def test_prox_l2sq_scaling():
    v = np.array([2.0, -4.0])
    got = prox(Regularizer.l2sq(3.0), 1.0, v)
    assert np.allclose(got, v / 4.0)


def test_prox_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        prox(Regularizer.l1(1.0), 0.0, np.zeros(2))


@pytest.mark.parametrize("reg", [Regularizer.none(), Regularizer.l1(0.7), Regularizer.l2sq(0.4)])
def test_prox_satisfies_first_order_optimality(reg):
    # oracle: y = prox(v) minimizes alpha*r(y) + 0.5||y - v||^2, so any
    # perturbation increases the objective
    rng = np.random.default_rng(5)
    alpha = 0.8

    def obj(y, v):
        return alpha * reg.value(y) + 0.5 * float(np.sum((y - v) ** 2))

    for _ in range(50):
        v = rng.standard_normal(6) * 2.0
        y = prox(reg, alpha, v)
        base = obj(y, v)
        for _ in range(10):
            pert = y + rng.standard_normal(6) * 1e-4
            assert obj(pert, v) >= base - 1e-15


def test_subgradient_residual_none_and_l2sq():
    g = np.array([1.0, -2.0])
    x = np.array([0.5, 0.5])
    assert subgradient_residual(Regularizer.none(), x, g) == pytest.approx(5.0)
    # l2sq: ||g + lam x||^2
    want = float(np.sum((g + 2.0 * x) ** 2))
    assert subgradient_residual(Regularizer.l2sq(2.0), x, g) == pytest.approx(want)


def test_subgradient_residual_l1_hand_case():
    lam = 1.0
    x = np.array([0.0, 0.0, 2.0, -3.0])
    g = np.array([0.5, -1.5, 1.0, 2.0])
    # at zero coords: max(|g| - lam, 0); elsewhere |g + lam*sign(x)|
    want = 0.0**2 + 0.5**2 + 2.0**2 + 1.0**2
    assert subgradient_residual(Regularizer.l1(lam), x, g) == pytest.approx(want)


def test_subgradient_residual_l1_matches_brute_force_minimization():
    # oracle: minimize ||g + s||^2 over s in the subdifferential by scanning
    # candidate subgradients on a fine grid at zero coordinates
    rng = np.random.default_rng(9)
    lam = 0.8
    for _ in range(50):
        x = rng.standard_normal(4)
        x[rng.random(4) < 0.5] = 0.0
        g = rng.standard_normal(4)
        got = subgradient_residual(Regularizer.l1(lam), x, g)
        brute = 0.0
        for j in range(4):
            if x[j] == 0.0:
                grid = np.linspace(-lam, lam, 20001)
                brute += float(np.min((g[j] + grid) ** 2))
            else:
                brute += (g[j] + lam * np.sign(x[j])) ** 2
        assert got == pytest.approx(brute, abs=1e-7)


def test_prox_then_residual_zero_at_minimizer():
    # x = prox(v) makes (v - x)/alpha an exact subgradient certificate
    reg = Regularizer.l1(0.6)
    alpha = 0.9
    v = np.array([2.0, -0.1, 0.3])
    x = prox(reg, alpha, v)
    g_smooth = -(v - x) / alpha  # pretend the smooth gradient cancels it
    assert subgradient_residual(reg, x, g_smooth) <= 1e-24
