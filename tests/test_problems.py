import itertools
import json
import math
import re
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from dfinito import problems
from dfinito.cli import main
from dfinito.model import Regularizer
from dfinito.oracle import solve_reference
from dfinito.problems import (
    gen_heterogeneous,
    gen_least_squares,
    gen_logistic,
    load_instance,
    make_synthetic_logistic,
    save_instance,
)
from dfinito.verify import verify_heterogeneous


# ------------------------------------------------------- least squares


def test_least_squares_spectra_within_declared_constants():
    for mu, L in ((0.0, 3.0), (0.4, 3.0)):
        p = gen_least_squares(0, n=8, d=5, k=5, L=L, mu=mu)
        for i in range(p.n):
            eig = np.linalg.eigvalsh(p.A[i].T @ p.A[i])
            assert eig[0] >= mu - 1e-8
            assert eig[-1] <= L + 1e-8


def test_least_squares_mu_equals_L_gives_scaled_identity():
    p = gen_least_squares(1, n=3, d=4, k=4, L=2.5, mu=2.5)
    for i in range(p.n):
        assert np.allclose(p.A[i].T @ p.A[i], 2.5 * np.eye(4), atol=1e-12)


def test_least_squares_normal_equations_match_reference():
    p = gen_least_squares(2, n=6, d=4, k=5, L=3.0, mu=0.5)
    # independent normal-equations oracle
    H = sum(p.A[i].T @ p.A[i] for i in range(p.n)) / p.n
    g = sum(p.A[i].T @ p.b[i] for i in range(p.n)) / p.n
    xstar = np.linalg.solve(H, g)
    assert np.linalg.norm(solve_reference(p, tol=1e-12) - xstar) <= 1e-10


def test_least_squares_secant_property():
    # mu ||x-y||^2 <= <grad f_i(x) - grad f_i(y), x-y> <= L ||x-y||^2
    p = gen_least_squares(3, n=5, d=4, k=4, L=2.0, mu=0.3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        i = int(rng.integers(p.n))
        inner = float((p.component_grad(i, x) - p.component_grad(i, y)) @ (x - y))
        nsq = float(np.sum((x - y) ** 2))
        assert p.mu * nsq - 1e-10 <= inner <= p.L * nsq + 1e-10


def test_least_squares_rejects_bad_shapes():
    with pytest.raises(ValueError):
        gen_least_squares(0, n=4, d=5, k=3, L=1.0, mu=0.5)  # k < d with mu > 0
    with pytest.raises(ValueError):
        gen_least_squares(0, n=4, d=5, k=5, L=1.0, mu=2.0)  # mu > L


def test_generators_name_k_and_d_when_k_is_below_d():
    with pytest.raises(ValueError, match=re.escape(
            "k must be >= d for full-rank components at mu > 0, got k=3 and d=5")):
        gen_least_squares(0, n=4, d=5, k=3, L=1.0, mu=0.5)
    with pytest.raises(ValueError, match=re.escape(
            "k must be >= d for a planted instance, got k=2 and d=3")):
        gen_heterogeneous(0, 4, 3, k=2, mu=0.1, L=1.0, alpha=0.1, beta=0.5, z0=np.zeros((4, 3)))


def test_least_squares_generator_allocates_no_second_stack():
    # the stack is built in place: no list of n matrices beside it
    gen_least_squares(0, n=4, d=3, k=3, L=1.0, mu=0.1)  # warm up
    tracemalloc.start()
    p = gen_least_squares(0, n=256, d=32, k=32, L=1.0, mu=0.1)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 1.25 * (p.A.nbytes + p.b.nbytes)


# The per-component generator the stacked one replaced, kept as its reference:
# one QR factorisation, sign fix and product per component, then np.stack.


def _reference_orthonormal(rng, rows, cols):
    q, r = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q * np.sign(np.diag(r))


def _reference_component(rng, k, d, L, mu):
    r = min(k, d)
    s = np.sqrt(rng.uniform(mu, L, size=r))
    s[0] = math.sqrt(L)
    if r > 1:
        s[-1] = math.sqrt(mu)
    u = _reference_orthonormal(rng, k, r)
    v = _reference_orthonormal(rng, d, r)
    return (u * s) @ v.T


def _reference_least_squares(seed, n, d, k, L, mu):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    A = np.stack([_reference_component(rng, k, d, L, mu) for _ in range(n)])
    return A, rng.standard_normal((n, k))


def _reference_heterogeneous(seed, n, d, k, mu, L, alpha, beta, z0):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    t = rng.standard_normal((n, d))
    t *= math.sqrt(n) / np.linalg.norm(t, axis=1, keepdims=True)
    scale = math.sqrt(beta) ** np.arange(n)
    v = problems._fsum_mean(z0 - scale[:, None] * t)
    A = np.stack([_reference_component(rng, k, d, L, mu) for _ in range(n)])
    c = (z0 - v[None, :] - scale[:, None] * t) / alpha
    delta = np.empty((n, k))
    for i in range(n):
        delta[i] = A[i] @ np.linalg.solve(A[i].T @ A[i], c[i])
    return A, A @ v + delta, delta, v, t


GENERATOR_SHAPES = {  # (n, d, k, mu)
    "k_below_d": (2 * problems.CHUNK, 6, 4, 0.0),
    "k_equals_d": (2 * problems.CHUNK, 5, 5, 0.3),
    "k_above_d": (2 * problems.CHUNK, 4, 7, 0.3),
    "d_is_1": (2 * problems.CHUNK, 1, 3, 0.3),
    "mu_0": (2 * problems.CHUNK, 4, 4, 0.0),
    "n_below_chunk": (problems.CHUNK - 1, 4, 5, 0.3),
    "n_not_a_multiple_of_chunk": (3 * problems.CHUNK + 5, 3, 3, 0.3),
}


@pytest.mark.parametrize("shape", GENERATOR_SHAPES)
def test_stacked_generators_match_the_per_component_reference_bytes(shape):
    n, d, k, mu = GENERATOR_SHAPES[shape]
    p = gen_least_squares(11, n, d, k, L=2.0, mu=mu)
    want = _reference_least_squares(11, n, d, k, L=2.0, mu=mu)
    assert [a.tobytes() for a in (p.A, p.b)] == [a.tobytes() for a in want]
    if k < d or mu == 0.0:
        return  # outside the planted construction
    z0 = np.random.default_rng(12).standard_normal((n, d))
    p, cert = gen_heterogeneous(13, n, d, k, mu=mu, L=2.0, alpha=0.4, beta=0.6, z0=z0)
    want = _reference_heterogeneous(13, n, d, k, mu=mu, L=2.0, alpha=0.4, beta=0.6, z0=z0)
    got = (p.A, p.b, cert.delta, cert.v, cert.t)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


# -------------------------------------------------------- heterogeneous


@pytest.fixture(scope="module")
def het():
    n, d = 60, 6
    z0 = np.random.default_rng(5).standard_normal((n, d))
    alpha = 2.0 / 10.1
    p, cert = gen_heterogeneous(6, n, d, k=d, mu=0.1, L=10.0, alpha=alpha,
                                beta=0.1, z0=z0)
    return p, cert, z0, alpha


def test_heterogeneous_verifies(het):
    p, cert, z0, alpha = het
    results = verify_heterogeneous(p, cert, z0, alpha)
    assert all(r.passed for r in results), [r.line() for r in results]


def test_heterogeneous_minimizer_is_planted(het):
    p, cert, z0, alpha = het
    assert np.linalg.norm(solve_reference(p, tol=1e-12) - cert.v) <= 1e-8


def test_heterogeneous_gradient_fails_on_perturbation(het):
    p, cert, z0, alpha = het
    p2_b = p.b.copy()
    p2_b[3] += 1e-2
    from dfinito.model import ProblemInstance
    p2 = ProblemInstance(kind="least_squares", n=p.n, d=p.d, regularizer=p.regularizer,
                         L=p.L, mu=p.mu, A=p.A, b=p2_b)
    results = {r.name: r for r in verify_heterogeneous(p2, cert, z0, alpha)}
    assert not results["full_gradient_zero_at_minimizer"].passed
    assert results["component_spectra_within_[mu,L]"].passed
    assert results["importance_profile_geometric"].passed


def test_heterogeneous_beta_near_one_equalizes():
    n, d = 100, 4
    z0 = np.random.default_rng(7).standard_normal((n, d))
    p, cert = gen_heterogeneous(8, n, d, k=d, mu=0.1, L=5.0, alpha=0.1,
                                beta=0.999, z0=z0)
    q = np.sqrt(cert.beta)
    disp = (q ** np.arange(n))[:, None] * cert.t
    from dfinito.diagnostics import pi_norm_sq
    rho = pi_norm_sq(disp, np.arange(n)) / float(np.sum(disp * disp))
    assert abs(rho - (n + 1) / (2 * n)) <= 0.02  # heterogeneity vanishes


def test_heterogeneous_deterministic_and_seed_dependent():
    n, d = 10, 3
    z0 = np.random.default_rng(9).standard_normal((n, d))
    a = 0.2
    p1, c1 = gen_heterogeneous(1, n, d, k=d, mu=0.1, L=2.0, alpha=a, beta=0.2, z0=z0)
    p2, c2 = gen_heterogeneous(1, n, d, k=d, mu=0.1, L=2.0, alpha=a, beta=0.2, z0=z0)
    p3, c3 = gen_heterogeneous(2, n, d, k=d, mu=0.1, L=2.0, alpha=a, beta=0.2, z0=z0)
    assert np.array_equal(p1.A, p2.A) and np.array_equal(c1.v, c2.v)
    assert not np.array_equal(c1.t, c3.t)
    # identical importance profiles regardless of seed
    prof1 = np.linalg.norm(c1.t, axis=1) ** 2 * c1.beta ** np.arange(n)
    prof3 = np.linalg.norm(c3.t, axis=1) ** 2 * c3.beta ** np.arange(n)
    assert np.allclose(prof1, prof3, rtol=1e-10)


def test_heterogeneous_parameter_validation():
    z0 = np.zeros((4, 3))
    with pytest.raises(ValueError):
        gen_heterogeneous(0, 4, 3, k=2, mu=0.1, L=1.0, alpha=0.1, beta=0.5, z0=z0)
    with pytest.raises(ValueError):
        gen_heterogeneous(0, 4, 3, k=3, mu=0.0, L=1.0, alpha=0.1, beta=0.5, z0=z0)
    with pytest.raises(ValueError):
        gen_heterogeneous(0, 4, 3, k=3, mu=0.1, L=1.0, alpha=0.1, beta=1.5, z0=z0)
    with pytest.raises(ValueError, match=re.escape("z0 must have shape (4, 3)")):
        gen_heterogeneous(0, 4, 3, k=3, mu=0.1, L=1.0, alpha=0.1, beta=0.5, z0=z0.T)
    with pytest.raises(ValueError):
        verify_heterogeneous(*gen_heterogeneous(0, 4, 3, k=3, mu=0.1, L=1.0,
                                                alpha=0.1, beta=0.5, z0=z0),
                             z0=z0, alpha=0.2)  # mismatched step size


# ------------------------------------------------------------ logistic


def test_logistic_ridge_only():
    W = np.zeros((4, 3))
    y = np.ones(4)
    p = gen_logistic(W, y, 0.7)
    assert p.L == pytest.approx(0.7)
    assert p.mu == pytest.approx(0.7)
    x = np.array([1.0, 2.0, -1.0])
    assert np.allclose(p.component_grad(0, x), 0.7 * x)


def test_logistic_single_sample_L():
    p = gen_logistic(np.array([[2.0]]), np.array([1.0]), 0.0)
    assert p.L == pytest.approx(1.0)  # lmax(W^T W) = 4, n = 1, 4/(4*1) = 1
    assert p.mu == 0.0


def test_logistic_secant_against_per_component_constant():
    rng = np.random.default_rng(10)
    W = rng.standard_normal((6, 3)) * 2
    y = np.where(rng.random(6) < 0.5, -1.0, 1.0)
    lam = 0.2
    p = gen_logistic(W, y, lam)
    per_L = np.einsum("ij,ij->i", W, W) / 4.0 + lam
    assert p.component_L == np.max(per_L)
    for _ in range(100):
        x, z = rng.standard_normal(3), rng.standard_normal(3)
        i = int(rng.integers(p.n))
        inner = float((p.component_grad(i, x) - p.component_grad(i, z)) @ (x - z))
        nsq = float(np.sum((x - z) ** 2))
        assert lam * nsq - 1e-10 <= inner <= per_L[i] * nsq + 1e-10


def test_logistic_label_validation():
    with pytest.raises(ValueError):
        gen_logistic(np.ones((2, 2)), np.array([1.0, 2.0]), 0.1)
    with pytest.raises(ValueError, match="need lam, or a condition number kappa > 1"):
        make_synthetic_logistic(0, 8, 2)
    # kappa was ignored when lam was given too
    with pytest.raises(ValueError, match=re.escape(
            "give lam or kappa, not both, got lam=0.1 and kappa=400")):
        make_synthetic_logistic(0, 8, 2, kappa=400, lam=0.1)


def test_make_synthetic_logistic_hits_target_condition_number():
    W, y, lam = make_synthetic_logistic(0, 200, 10, kappa=50)
    p = gen_logistic(W, y, lam)
    assert p.L / p.mu == pytest.approx(50.0, rel=1e-9)


# --------------------------------------------------------- file formats


def test_instance_json_round_trip(tmp_path):
    p = gen_least_squares(12, n=4, d=3, k=3, L=2.0, mu=0.1,
                          regularizer=Regularizer.l1(0.3))
    path = str(tmp_path / "inst.json")
    save_instance(path, p)
    q, cert = load_instance(path)
    assert cert is None
    assert q.kind == p.kind and q.n == p.n and q.d == p.d
    assert q.L == p.L and q.mu == p.mu
    assert q.regularizer == p.regularizer
    assert np.array_equal(q.A, p.A) and np.array_equal(q.b, p.b)


def test_instance_file_with_a_weighted_none_regularizer_is_refused(tmp_path):
    path = tmp_path / "inst.json"
    save_instance(str(path), gen_least_squares(0, n=4, d=3, k=3, L=2.0, mu=0.1))
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["regularizer"]["lam"] = 0.5
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: lam must be 0 for regularizer 'none', got 0.5")):
        load_instance(str(path))


def test_instance_json_round_trip_with_certificate(tmp_path):
    n, d = 5, 3
    z0 = np.random.default_rng(13).standard_normal((n, d))
    p, cert = gen_heterogeneous(14, n, d, k=d, mu=0.1, L=2.0, alpha=0.2,
                                beta=0.3, z0=z0)
    path = str(tmp_path / "het.json")
    save_instance(path, p, cert)
    q, cert2 = load_instance(path)
    assert np.array_equal(cert2.v, cert.v)
    assert np.array_equal(cert2.t, cert.t)
    assert np.array_equal(cert2.delta, cert.delta)
    assert cert2.beta == cert.beta and cert2.alpha_used == cert.alpha_used
    results = verify_heterogeneous(q, cert2, z0, 0.2)
    assert all(r.passed for r in results)


def test_logistic_json_round_trip(tmp_path):
    rng = np.random.default_rng(15)
    W = rng.standard_normal((6, 4))
    y = np.where(rng.random(6) < 0.5, -1.0, 1.0)
    p = gen_logistic(W, y, 0.2)
    path = str(tmp_path / "log.json")
    save_instance(path, p)
    q, _ = load_instance(path)
    assert np.array_equal(q.W, p.W) and np.array_equal(q.y, p.y)
    assert q.ridge == p.ridge and q.L == p.L


# ------------------------------------------------- instance file encoding

EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308]


def _instances_with_extremes():
    """A planted instance (z0 in its metadata) and a logistic one, with
    -0.0, the least subnormal and the largest float in every array."""
    n, d = 5, 3
    z0 = np.random.default_rng(13).standard_normal((n, d))
    p, cert = gen_heterogeneous(14, n, d, k=d, mu=0.1, L=2.0, alpha=0.2, beta=0.3, z0=z0)
    p.metadata["z0"] = z0
    rng = np.random.default_rng(15)
    q = gen_logistic(rng.standard_normal((6, 4)), np.where(rng.random(6) < 0.5, -1.0, 1.0), 0.2)
    for a in (p.A, p.b, z0, cert.v, cert.t, cert.delta, q.W):
        a.flat[:3] = EXTREMES
    return [(p, cert), (q, None)]


def _arrays(p, cert):
    """Every float array of an instance and its certificate, by field name."""
    out = {key: getattr(p, key) for key in ("A", "b", "W", "y") if getattr(p, key) is not None}
    out.update({f"metadata.{key}": v for key, v in p.metadata.items()
                if isinstance(v, np.ndarray)})
    if cert is not None:
        out.update({f"certificate.{key}": getattr(cert, key) for key in ("v", "t", "delta")})
    return out


def test_instance_arrays_load_bit_exact(tmp_path):
    for idx, (p, cert) in enumerate(_instances_with_extremes()):
        path = str(tmp_path / f"inst{idx}.json")
        save_instance(path, p, cert)
        q, cert2 = load_instance(path)
        want, got = _arrays(p, cert), _arrays(q, cert2)
        assert sorted(got) == sorted(want)
        for key, a in want.items():
            assert got[key].dtype == np.float64 and got[key].shape == a.shape, key
            flags = got[key].flags
            assert flags.writeable and flags.c_contiguous and flags.aligned, key
            assert not flags.owndata, key  # a view of the one sidecar buffer
            assert got[key].tobytes() == a.tobytes(), key
        for one, other in itertools.combinations(got.values(), 2):
            assert not np.shares_memory(one, other)
        assert (q.L, q.mu, q.ridge, q.regularizer) == (p.L, p.mu, p.ridge, p.regularizer)


def test_readme_instance_format_matches_the_writer(tmp_path):
    # the README's two JSON examples are the whole stored form of an array
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Instance files")[1].split("\n### ")[0]
    array, data = re.findall(r"```json\n(.*?)\n```", section, re.S)
    array, data = json.loads(array), json.loads("{" + data + "}")["data"]
    for idx, (p, cert) in enumerate(_instances_with_extremes()):
        path = tmp_path / f"inst{idx}" / "instance.json"
        path.parent.mkdir()
        save_instance(str(path), p, cert)
        doc = json.loads(path.read_text(encoding="utf-8"))
        for key in _arrays(p, cert):
            stored = doc
            for part in key.split("."):
                stored = stored[part]
            assert {k: type(v) for k, v in stored.items()} == \
                {k: type(v) for k, v in array.items()}, key
            assert stored["dtype"] == array["dtype"], key
        assert {k: type(v) for k, v in doc["data"].items()} == \
            {k: type(v) for k, v in data.items()}
        assert doc["data"]["file"] == data["file"]
    assert not re.search(r"base64|nested list", readme, re.I)


def test_sidecar_load_holds_about_one_sidecar(tmp_path):
    # the arrays are views of the one buffer the sidecar is read into; a copy of
    # every array beside the read bytes made the peak about twice the sidecar
    assert main(["generate", "--kind", "heterogeneous", "--n", "400", "--d", "10", "--k", "10",
                 "--beta", "0.9", "--out", str(tmp_path)]) == 0
    path = str(tmp_path / "instance.json")
    load_instance(path)  # warm up
    tracemalloc.start()
    load_instance(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak <= 1.05 * (tmp_path / "instance.json.f8").stat().st_size


def _hand_built_sidecar(tmp_path, p, placed, size):
    """A file of the least-squares instance ``p`` whose sidecar of ``size`` bytes
    holds each (field, array, offset) of ``placed`` at its offset, in that order."""
    raw = bytearray(size)
    doc = {"kind": "least_squares", "n": p.n, "d": p.d, "L": p.L, "mu": p.mu,
           "regularizer": {"kind": "none", "lam": 0.0}, "metadata": {}}
    for field, a, offset in placed:
        raw[offset:offset + a.nbytes] = a.astype("<f8").tobytes()
        doc[field] = {"dtype": "<f8", "shape": list(a.shape), "offset": offset}
    (tmp_path / "hand.json.f8").write_bytes(bytes(raw))
    doc["data"] = {"file": "hand.json.f8", "bytes": size, "crc32": zlib.crc32(raw)}
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_sidecar_array_at_unaligned_offset_is_copied_aligned(tmp_path):
    p = gen_least_squares(3, n=4, d=2, k=2, L=2.0, mu=0.5)
    b_at = 8 + p.A.nbytes  # A at byte 4, then 4 bytes of padding before b
    path = _hand_built_sidecar(tmp_path, p, [("A", p.A, 4), ("b", p.b, b_at)],
                               b_at + p.b.nbytes)
    q, _ = load_instance(path)
    for a, want in ((q.A, p.A), (q.b, p.b)):
        assert a.flags.aligned and a.flags.c_contiguous and a.flags.writeable
        assert a.tobytes() == want.tobytes()
    assert q.A.flags.owndata and not q.b.flags.owndata  # only the unaligned array is copied


def test_sidecar_arrays_with_overlapping_bytes_exit_2_naming_the_later(tmp_path, capsys):
    p = gen_least_squares(3, n=4, d=2, k=2, L=2.0, mu=0.5)
    path = _hand_built_sidecar(tmp_path, p, [("A", p.A, 0), ("b", p.b, p.A.nbytes - 8)],
                               p.A.nbytes + p.b.nbytes)
    assert main(["order", "--instance", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: b: bytes 120 to 184 overlap bytes 0 to 128 of A\n")


def test_instance_files_hold_at_most_8_bytes_per_float(tmp_path):
    # the sidecar holds 8 bytes per value and the JSON only names the arrays
    assert main(["generate", "--kind", "heterogeneous", "--n", "100", "--d", "5", "--k", "5",
                 "--out", str(tmp_path)]) == 0
    path, sidecar = tmp_path / "instance.json", tmp_path / "instance.json.f8"
    floats = sum(a.size for a in _arrays(*load_instance(str(path))).values())
    assert floats == 100 * 5 * 5 + 100 * 5 + 5 + 100 * 5 + 100 * 5 + 100 * 5
    assert sidecar.stat().st_size == 8 * floats
    assert path.stat().st_size + sidecar.stat().st_size <= 8 * floats + 4096


@pytest.mark.parametrize("old_form", [
    lambda stored: np.zeros(stored["shape"]).tolist(),
    lambda stored: {"dtype": "<f8", "shape": stored["shape"], "base64": "AAAAAAAAAAA="},
], ids=["lists", "base64"])
def test_file_in_an_earlier_array_form_exits_2_naming_its_first_array(tmp_path, capsys,
                                                                      old_form):
    # earlier versions kept every array in the JSON, in one of these forms, and wrote
    # no sidecar and no data field
    assert main(["generate", "--kind", "heterogeneous", "--n", "6", "--d", "2", "--k", "2",
                 "--out", str(tmp_path)]) == 0
    path = tmp_path / "instance.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    for parent in (doc["metadata"], doc, doc["certificate"]):
        for key, stored in parent.items():
            if isinstance(stored, dict) and "offset" in stored:
                parent[key] = old_form(stored)
    del doc["data"]
    path.write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "instance.json.f8").unlink()
    capsys.readouterr()
    assert main(["order", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: metadata.z0: expected an object of dtype, shape and offset\n")


def test_planted_instance_orders_by_its_stored_z0(tmp_path, capsys):
    assert main(["generate", "--kind", "heterogeneous", "--n", "30", "--d", "4", "--k", "4",
                 "--beta", "0.5", "--out", str(tmp_path)]) == 0
    rho = capsys.readouterr().out.split("rho=")[1].split()[0]
    assert main(["order", "--instance", str(tmp_path / "instance.json")]) == 0
    # the order command reads the planted start table z0 back from the file
    printed = capsys.readouterr().out
    assert "optimal order: " + " ".join(str(i) for i in range(1, 31)) in printed
    assert f"rho={rho} " in printed
