"""Problem generators, the planted heterogeneous instance, and file formats.

The heterogeneous generator plants a minimizer v and a geometric importance
profile ||z_i^0 - z_i*||^2 = n beta^{i-1}, so the optimal cyclic order is the
identity and the order-weighted/plain norm ratio is about 1/(n(1-beta)). Each
instance ships with a certificate that ``verify.verify_heterogeneous``
re-checks from scratch; everything that judges an instance lives in verify.

Each generator draws from its role's stream, ``sampling.stream(seed, role)``
with role ``least_squares``, ``planted`` (and ``planted_z0`` for a start
table it draws) or ``logistic``; ``sampling.STREAMS`` is the one seed
contract. Its words today are ``[seed, 0]`` to ``[seed, 3]``, so a reshuffle
or uniform run whose seed equals the generator's draws its epoch-0 to
epoch-3 orders from these streams, and a shuffle-once order is the
least-squares stream; the ``sampling`` docstring lists every such overlap.

Both least-squares generators build their (n, k, d) stack in place. The
order of draws within a stream: after any draws that come before the stack
(the planted directions t), component i draws uniform(r), then a (k, r) and
then a (d, r) standard normal block, with r = min(k, d), and component i + 1
draws next; then ``gen_least_squares`` draws b. ``CHUNK`` components at a
time share one stacked QR factorisation, sign fix and product, written
straight into the stack, and one stacked normal-equation solve for the
planted residuals.
LAPACK factors each matrix of a stack on its own, so the bytes do not depend
on ``CHUNK``; it bounds the scratch memory, which is about six arrays of
CHUNK components' size at once (with 16, a (256, 32, 32) stack peaked at
1.34 times its own size under tracemalloc; with 8, at 1.16).
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance, Regularizer, check_constants, check_int, check_step
from .sampling import stream

CHUNK = 8  # components per stacked LAPACK call


def _component_matrices(rng, n, k, d, L, mu):
    """An (n, k, d) stack of matrices whose Gram matrices have spectra inside [mu, L].

    The extreme singular values are pinned to sqrt(L) and sqrt(mu) so the
    declared constants are tight; mu = 0 yields rank-deficient factors.
    Component i is (U_i * s_i) V_i^T, where U_i and V_i are the sign-fixed Q
    factors of its Gaussian (k, r) and (d, r) draws, in the order the module
    docstring gives.
    """
    r = min(k, d)
    A = np.empty((n, k, d))
    s = np.empty((CHUNK, r))
    gu = np.empty((CHUNK, k, r))
    gv = np.empty((CHUNK, d, r))
    for c in range(0, n, CHUNK):
        m = min(CHUNK, n - c)
        for j in range(m):
            s[j] = rng.uniform(mu, L, size=r)
            rng.standard_normal(out=gu[j])
            rng.standard_normal(out=gv[j])
        sm = np.sqrt(s[:m], out=s[:m])
        sm[:, 0] = math.sqrt(L)
        if r > 1:
            sm[:, -1] = math.sqrt(mu)
        u = _sign_fixed_q(gu[:m])
        u *= sm[:, None, :]
        np.matmul(u, np.swapaxes(_sign_fixed_q(gv[:m]), 1, 2), out=A[c:c + m])
    return A


def _sign_fixed_q(g):
    """The Q factors of the stack ``g``, column j times the sign of R_jj, so
    that the factor is deterministic given the draw."""
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    return q


def check_sizes(**sizes):
    """Raise ValueError naming the first of ``sizes`` that is not an integer >= 1."""
    for name, value in sizes.items():
        check_int(name, value)


def gen_least_squares(seed, n, d, k, L, mu, regularizer=None):
    """Random least-squares instance: f_i(x) = 0.5 ||A_i x - b_i||^2.

    Every A_i^T A_i has spectrum inside [mu, L] with the extremes attained,
    so the declared smoothness/strong-convexity constants hold exactly.
    """
    check_int("seed", seed, 0)
    check_sizes(n=n, d=d, k=k)
    check_constants(L, mu)
    if mu > 0 and k < d:
        raise ValueError(f"k must be >= d for full-rank components at mu > 0, got k={k} and d={d}")
    rng = stream(seed, "least_squares")
    A = _component_matrices(rng, n, k, d, L, mu)
    b = rng.standard_normal((n, k))
    return ProblemInstance(
        kind="least_squares",
        n=n,
        d=d,
        regularizer=regularizer or Regularizer.none(),
        L=float(L),
        mu=float(mu),
        A=A,
        b=b,
        metadata={"seed": int(seed), "k": int(k)},
    )


@dataclass
class HeterogeneityCertificate:
    """Construction witnesses for the planted heterogeneous instance."""

    v: np.ndarray  # planted minimizer, shape (d,)
    t: np.ndarray  # direction vectors with ||t_i|| = sqrt(n), shape (n, d)
    delta: np.ndarray  # residual vectors, shape (n, k)
    beta: float  # geometric decay of the importance profile, in (0, 1)
    alpha_used: float  # step size baked into the construction

    def zstar(self, z0):
        q = math.sqrt(self.beta)
        n = self.t.shape[0]
        scale = q ** np.arange(n)
        return np.asarray(z0, dtype=np.float64) - scale[:, None] * self.t


def _fsum_mean(rows):
    """Column means via compensated summation (construction-critical)."""
    rows = np.asarray(rows, dtype=np.float64)
    return np.array([math.fsum(rows[:, j]) for j in range(rows.shape[1])]) / rows.shape[0]


def gen_heterogeneous(seed, n, d, k, mu, L, alpha, beta, z0=None):
    """Planted instance with importance profile ||z_i^0 - z_i*||^2 = n beta^{i-1}.

    Returns (instance, certificate). The instance has minimizer x* = v and
    fixed-point table z_i* = z_i^0 - q^{i-1} t_i with q = sqrt(beta). A z0 of
    None is drawn, after every check, from the ``planted_z0`` stream and kept as
    ``metadata["z0"]``.
    """
    check_int("seed", seed, 0)
    check_sizes(n=n, d=d, k=k)
    if k < d:
        raise ValueError(f"k must be >= d for a planted instance, got k={k} and d={d}")
    check_constants(L, mu)
    if not (0.0 < mu < L):
        raise ValueError("need 0 < mu < L")
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    check_step(alpha)
    metadata = {"seed": int(seed), "k": int(k), "beta": float(beta), "planted": True}
    if z0 is None:
        z0 = stream(seed, "planted_z0").standard_normal((n, d))
        metadata["z0"] = z0
    z0 = np.asarray(z0, dtype=np.float64)
    if z0.shape != (n, d):
        raise ValueError(f"z0 must have shape ({n}, {d})")
    rng = stream(seed, "planted")
    q = math.sqrt(beta)
    t = rng.standard_normal((n, d))
    t *= math.sqrt(n) / np.linalg.norm(t, axis=1, keepdims=True)
    scale = q ** np.arange(n)
    v = _fsum_mean(z0 - scale[:, None] * t)
    A = _component_matrices(rng, n, k, d, L, mu)
    c = (z0 - v[None, :] - scale[:, None] * t) / alpha
    delta = np.empty((n, k))
    for s in range(0, n, CHUNK):
        # delta_i = A_i (A_i^T A_i)^{-1} c_i satisfies A_i^T delta_i = c_i
        Ac = A[s:s + CHUNK]
        x = np.linalg.solve(np.matmul(np.swapaxes(Ac, 1, 2), Ac), c[s:s + CHUNK, :, None])
        np.matmul(Ac, x, out=delta[s:s + CHUNK, :, None])
    b = A @ v + delta
    p = ProblemInstance(
        kind="least_squares",
        n=n,
        d=d,
        regularizer=Regularizer.none(),
        L=float(L),
        mu=float(mu),
        A=A,
        b=b,
        metadata=metadata,
    )
    cert = HeterogeneityCertificate(v=v, t=t, delta=delta, beta=float(beta), alpha_used=float(alpha))
    return p, cert


def _logistic_smoothness(W):
    """lmax(W^T W) / (4n), the smoothness constant of the mean logistic loss over the rows of W."""
    return float(np.linalg.eigvalsh(W.T @ W)[-1]) / (4.0 * W.shape[0])


def gen_logistic(W, y, lam):
    """Logistic regression with the ridge folded into every component.

    f_i(x) = log(1 + exp(-y_i <w_i, x>)) + (lam/2) ||x||^2, regularizer none.
    """
    W = np.asarray(W, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not (0.0 <= lam < math.inf):
        raise ValueError(f"lam must be finite and >= 0, got {lam!r}")
    n, d = W.shape
    return ProblemInstance(
        kind="logistic",
        n=n,
        d=d,
        regularizer=Regularizer.none(),
        L=_logistic_smoothness(W) + lam,
        mu=float(lam),
        W=W,
        y=y,
        ridge=float(lam),
    )


def make_synthetic_logistic(seed, n, d, kappa=None, lam=None):
    """Random separable-ish logistic data; lam given, or resolved from a target
    condition number kappa, never both. Returns (W, y, lam)."""
    check_int("seed", seed, 0)
    check_sizes(n=n, d=d)
    if lam is not None and kappa is not None:
        raise ValueError(f"give lam or kappa, not both, got lam={lam!r} and kappa={kappa!r}")
    if lam is None and not (kappa is not None and kappa > 1):
        raise ValueError("need lam, or a condition number kappa > 1")
    rng = stream(seed, "logistic")
    W = rng.standard_normal((n, d))
    xtrue = rng.standard_normal(d)
    y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-(W @ xtrue))), 1.0, -1.0)
    if lam is None:
        lam = _logistic_smoothness(W) / (kappa - 1.0)
    return W, y, float(lam)


ENCODED_DTYPE = "<f8"  # little-endian float64, the one stored array dtype
FIELD_KINDS = {"text": str, "integer": int, "number": (int, float), "object": dict}
CERTIFICATE_FIELDS = {"v": "array", "t": "array", "delta": "array", "beta": "number",
                      "alpha_used": "number"}


def _is_array(value):
    """Whether a metadata value is a stored array, that is, not a JSON scalar."""
    return isinstance(value, (dict, list))


def _decode(value, name, data):
    """Field ``name``, whose ``value`` gives dtype, shape and byte offset, as a float64
    view of the ``_Sidecar`` ``data``, copied only where the offset leaves it unaligned;
    it shares no byte with an earlier array, and every entry must be finite."""
    if not (isinstance(value, dict) and sorted(value) == ["dtype", "offset", "shape"]):
        raise ValueError(f"{name}: expected an object of dtype, shape and offset")
    raw = data.read()  # its errors name the data field
    try:
        if value["dtype"] != ENCODED_DTYPE:
            raise ValueError(f"dtype {value['dtype']!r} is not {ENCODED_DTYPE!r}")
        shape, offset = value["shape"], value["offset"]
        if not (isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape)):
            raise ValueError(f"shape {shape!r} is not a list of non-negative integers")
        if type(offset) is not int or offset < 0:
            raise ValueError(f"offset {offset!r} is not a non-negative integer")
        count = math.prod(shape)
        end = offset + 8 * count
        if end > len(raw):
            raise ValueError(f"offset {offset} + {8 * count} bytes of shape {shape} run past "
                             f"the end of the {len(raw)}-byte sidecar")
        if count:
            for other, (lo, hi) in data.spans.items():
                if offset < hi and lo < end:
                    raise ValueError(f"bytes {offset} to {end} overlap bytes {lo} to {hi} of {other}")
            data.spans[name] = (offset, end)
        a = np.frombuffer(raw, dtype=ENCODED_DTYPE, count=count, offset=offset).reshape(shape)
        if not (a.flags.aligned and a.dtype == np.float64):
            a = a.astype(np.float64)
        # a NaN or an infinity shows in the min or the max; the mask that names
        # the entry is built only for the error
        if a.size and not (math.isfinite(a.min()) and math.isfinite(a.max())):
            raise ValueError(f"non-finite entry {float(a[~np.isfinite(a)][0])!r}")
        return a
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


class _Sidecar:
    """The sidecar that ``doc``'s data field names, read at the first array, and the
    byte range of every array viewed in it so far, by field name."""

    def __init__(self, path, doc):
        self.path, self.doc, self.raw, self.spans = path, doc, None, {}

    def read(self):
        """The sidecar in one writable buffer, checked against its byte count and crc32."""
        if self.raw is not None:
            return self.raw
        name = _field(self.doc, "data.file", "text")
        size = _field(self.doc, "data.bytes", "integer")
        crc = _field(self.doc, "data.crc32", "integer")
        if name in ("", ".", "..") or os.path.basename(name) != name:
            raise ValueError(f"data.file: {name!r} is not a file name")
        try:
            with open(os.path.join(os.path.dirname(self.path), name), "rb") as fh:
                held = os.fstat(fh.fileno()).st_size
                if held == size:  # allocate only what the file holds
                    raw = bytearray(size)
                    held = fh.readinto(raw)
        except OSError as exc:
            raise ValueError(f"data: cannot read {name}: {exc.strerror}") from None
        if held != size:
            raise ValueError(f"data: {name} holds {held} bytes, not {size}")
        import zlib  # imported where used: only the instance file reader and writer need it

        if zlib.crc32(raw) != crc:
            raise ValueError(f"data: {name} fails its crc32 check; it belongs to another save")
        self.raw = raw
        return raw


def _field(doc, name, kind, default=None, data=None):
    """The value of dotted field ``name`` in ``doc``, checked to be of
    ``kind``; a None default makes it required. An array is decoded against
    the ``_Sidecar`` ``data``. An error names the field."""
    parent, _, key = name.rpartition(".")
    if parent:
        doc = _field(doc, parent, "object")
    if key not in doc:
        if default is None:
            raise ValueError(f"missing field {name}")
        return default
    value = doc[key]
    if kind == "array":
        return _decode(value, name, data)
    if isinstance(value, bool) or not isinstance(value, FIELD_KINDS[kind]):
        raise ValueError(f"{name}: expected {kind}, got {type(value).__name__}")
    return value


def _write_atomically(path, chunks):
    """Write the byte strings ``chunks`` to ``path`` through a temporary file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
    os.replace(tmp, path)


def save_instance(path, p: ProblemInstance, cert: HeterogeneityCertificate | None = None):
    """Serialize an instance (and optional certificate), atomically.

    Every float array, array-valued metadata included, goes to the sidecar
    ``<path>.f8`` as little-endian float64 bytes in C order, one array after
    another; the JSON at ``path`` holds each array's dtype, shape and byte
    offset, and a top-level ``data`` field with the sidecar's file name,
    byte count and crc32. The sidecar is written first, so a save that fails
    before its JSON is replaced leaves the old JSON naming a sidecar whose
    checksum no longer matches.
    """
    import zlib

    arrays = []

    def encode(value):
        if not isinstance(value, np.ndarray):
            return value
        a = np.ascontiguousarray(value, dtype=ENCODED_DTYPE)
        entry = {"dtype": ENCODED_DTYPE, "shape": list(a.shape),
                 "offset": sum(b.nbytes for b in arrays)}
        arrays.append(a)
        return entry

    doc = {
        "kind": p.kind,
        "n": p.n,
        "d": p.d,
        "L": p.L,
        "mu": p.mu,
        "regularizer": {"kind": p.regularizer.kind, "lam": p.regularizer.lam},
        "metadata": {key: encode(value) for key, value in p.metadata.items()},
    }
    if p.kind == "least_squares":
        doc.update(A=encode(p.A), b=encode(p.b))
    else:
        doc.update(W=encode(p.W), y=encode(p.y), ridge=p.ridge)
    if cert is not None:
        doc["certificate"] = {key: encode(value) for key, value in vars(cert).items()}
    chunks = [a.data for a in arrays]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    name = os.path.basename(path) + ".f8"
    doc["data"] = {"file": name, "bytes": sum(a.nbytes for a in arrays), "crc32": crc}
    _write_atomically(os.path.join(os.path.dirname(path), name), chunks)
    _write_atomically(path, [json.dumps(doc).encode("utf-8")])


def load_instance(path):
    """Load (instance, certificate-or-None) written by save_instance.

    Every array is in the sidecar, the one form save_instance writes; an
    array as nested lists or base64 text, which earlier versions wrote, is
    refused. The sidecar is read once, with one ``readinto``, into a single
    writable buffer, which must match the byte count and crc32 that the JSON
    records. Its arrays are float64 views into that buffer, so a load holds
    about one sidecar's bytes; two arrays whose byte ranges overlap are
    refused, an array at an offset that is not a multiple of 8 is copied so
    that it is aligned, and every entry must be finite. A malformed file
    raises ValueError naming the file and the field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        kind = _field(doc, "kind", "text")
        if kind not in ("least_squares", "logistic"):
            raise ValueError(f"kind: unknown serialized kind {kind!r}")
        reg = Regularizer(_field(doc, "regularizer.kind", "text"),
                          _field(doc, "regularizer.lam", "number"))
        data = _Sidecar(path, doc)
        metadata = {key: _decode(value, f"metadata.{key}", data) if _is_array(value) else value
                    for key, value in _field(doc, "metadata", "object", {}).items()}
        arrays = ("A", "b") if kind == "least_squares" else ("W", "y")
        p = ProblemInstance(
            kind=kind, n=_field(doc, "n", "integer"), d=_field(doc, "d", "integer"),
            regularizer=reg, L=_field(doc, "L", "number"), mu=_field(doc, "mu", "number"),
            ridge=_field(doc, "ridge", "number", 0.0), metadata=metadata,
            **{key: _field(doc, key, "array", data=data) for key in arrays})
        cert = None if "certificate" not in doc else HeterogeneityCertificate(**{
            key: _field(doc, f"certificate.{key}", field_kind, data=data)
            for key, field_kind in CERTIFICATE_FIELDS.items()})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return p, cert
