"""Every output byte of a fixed set of commands, pinned by its SHA-256.

One process calls ``cli.main`` for ``generate`` (three kinds, and the
heterogeneous kind at its default ``--k`` and ``--alpha``), ``order``, 24
``run`` commands (eight algorithm/regime configs on each generated instance,
2 seeds, 5 epochs), two ``run`` commands whose config builds its instance with
a ``problem.generator``, one ``sweep`` and ``verify --seed 0``, and hashes each
command's output files and stdout. The output directory that ``generate``
prints is replaced by ``<out>``; ``run`` and ``sweep`` stdout is left out, as
it names only the directory. The digests in ``byte_identity.json`` were made
under the numpy and BLAS versions recorded there. A change that moves output
bytes on purpose rewrites them with

    PYTHONPATH=src python tests/test_byte_identity.py

which prints the entries whose digests it rewrote; name them, with the
reason, in CHANGES.md.
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from dfinito.cli import main

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "byte_identity.json")

GENERATE = {
    "least_squares": ["--k", "6", "--L", "10", "--mu", "0.1", "--reg", "l1", "--reg-lam", "0.01"],
    "heterogeneous": ["--k", "6", "--L", "10", "--mu", "0.1", "--beta", "0.1"],
    "logistic": ["--kappa", "20"],
}
RUNS = {
    "dfinito_cyclic": {"algorithm": "dfinito", "sampling": {"regime": "cyclic"}},
    "dfinito_reshuffle": {"algorithm": "dfinito", "sampling": {"regime": "reshuffle"}},
    "dfinito_shuffle_once": {"algorithm": "dfinito", "sampling": {"regime": "shuffle_once"}},
    "dfinito_adaptive": {"algorithm": "dfinito", "sampling": {"regime": "adaptive"}},
    "finito_uniform": {"algorithm": "finito_uniform"},
    "prox_gd": {"algorithm": "prox_gd"},
    "svrg": {"algorithm": "svrg", "sampling": {"regime": "reshuffle"}},
    "saga": {"algorithm": "saga", "sampling": {"regime": "reshuffle"}},
}
GENERATORS = {
    "least_squares": {"kind": "least_squares", "n": 12, "d": 4, "k": 6, "L": 10, "mu": 0.1,
                      "reg": "l1", "reg_lam": 0.01},
    "logistic": {"kind": "logistic", "n": 12, "d": 4, "kappa": 20},
}
SWEEP_GRID = {"alpha": ["theory", 0.05], "theta": [0.5, 0.9],
              "sampling": [{"regime": "cyclic"}, {"regime": "reshuffle"}]}


def versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _sha(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _call(*argv):
    """stdout of ``dfinito *argv``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _files(directory):
    """One digest of every file in ``directory``, by name."""
    return _sha(name.encode() + b"\0" + _read(os.path.join(directory, name))
                for name in sorted(os.listdir(directory)))


def digests(root):
    """Every entry's digest, from commands run under the empty directory ``root``."""
    got = {}
    instances = {}
    for kind, flags in GENERATE.items():
        out = os.path.join(root, kind)
        os.mkdir(out)
        printed = _call("generate", "--kind", kind, "--n", 12, "--d", 4, *flags, "--out", out)
        got[f"generate {kind} stdout"] = _sha([printed.replace(out, "<out>").encode()])
        for name in ("instance.json", "instance.json.f8"):
            got[f"generate {kind} {name}"] = _sha([_read(os.path.join(out, name))])
        instances[kind] = os.path.join(out, "instance.json")
    out = os.path.join(root, "heterogeneous_defaults")
    os.mkdir(out)
    printed = _call("generate", "--kind", "heterogeneous", "--n", 12, "--d", 4, "--out", out)
    got["generate heterogeneous defaults"] = _sha([printed.replace(out, "<out>").encode(),
                                                   _files(out).encode()])
    got["order stdout"] = _sha([_call("order", "--instance", instances["heterogeneous"]).encode()])
    base = {"alpha": "theory", "theta": 0.5, "epochs": 5, "seeds": [0, 1], "trace_every": 1}
    for kind, instance in instances.items():
        for name, overrides in RUNS.items():
            out = os.path.join(root, f"run_{kind}_{name}")
            os.mkdir(out)
            cfg = os.path.join(root, "cfg.json")
            with open(cfg, "w", encoding="utf-8") as fh:
                json.dump({"problem": {"path": instance}, **base, **overrides}, fh)
            _call("run", "--config", cfg, "--out", out)
            got[f"run {kind} {name}"] = _files(out)
    for kind, generator in GENERATORS.items():
        out = os.path.join(root, f"run_{kind}_generator")
        os.mkdir(out)
        cfg = os.path.join(root, "cfg.json")
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump({"problem": {"generator": generator}, **base}, fh)
        _call("run", "--config", cfg, "--out", out)
        got[f"run {kind} generator"] = _files(out)
    out = os.path.join(root, "sweep")
    os.mkdir(out)
    cfg = os.path.join(root, "sweep.json")
    with open(cfg, "w", encoding="utf-8") as fh:
        json.dump({"problem": {"path": instances["least_squares"]}, **base,
                   "grid": SWEEP_GRID}, fh)
    _call("sweep", "--config", cfg, "--out", out)
    got["sweep least_squares"] = _files(out)
    got["verify stdout"] = _sha([_call("verify", "--seed", 0).encode()])
    return got


def _changed(recorded, got):
    """The names of the entries whose digests differ between the two maps, or that
    only one of them has, in sorted order."""
    return sorted(name for name in recorded.keys() | got.keys()
                  if recorded.get(name) != got.get(name))


def test_outputs_match_their_recorded_digests(tmp_path):
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    changed = _changed(recorded["digests"], digests(str(tmp_path)))
    assert not changed, (f"{len(changed)} entries changed: {', '.join(changed)} (digests made "
                         f"under {recorded['versions']}, run under {versions()})")


if __name__ == "__main__":
    with open(DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)["digests"]
    with tempfile.TemporaryDirectory() as root:
        doc = {"versions": versions(), "digests": digests(root)}
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    changed = _changed(recorded, doc["digests"])
    print(f"wrote {len(doc['digests'])} digests to {DIGESTS}; {len(changed)} changed"
          + "".join(f"\n  {name}" for name in changed))
