"""Recorded output bytes of the shipped configs and of a shrunken fed_dense.

`fed-sgm simulate` runs configs/quadratic.json, configs/logreg.json and
LOGREG_AHEAD in a subprocess at one BLAS thread, and the SHA-256 of each CSV,
and of each manifest with its output directory written as "<out>", must equal
the digests stored here.  A change that moves output bytes on purpose updates the
digests, and CHANGES.md gives the old digest, the new digest and the reason.

The bits of a BLAS product depend on the kernels the library picks for the
CPU (OpenBLAS is built with DYNAMIC_ARCH), so the digests are stored per
fingerprint: numpy's version and the hash of a few fixed GEMV and GEMM
products.  On a fingerprint with no stored digests the test fails and names
it; record the digests for it only after checking that the outputs are right.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from fedsgm.config import build_fed_config, build_task, validate_config
from fedsgm.fedsim import _draws_ahead

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ("quadratic", "logreg", "logreg_ahead")

# fed_dense shrunk to under a second: a window of 45 iterates and a kept
# 128 x 512 sketch of 2^16 entries, so that its sketches are drawn one round
# ahead and its full-data passes take stacks of iterates.
LOGREG_AHEAD = {
    "task": {"kind": "logreg", "n": 8000, "d": 512, "seed": 3, "partition": "iid"},
    "federation": {"clients": 40, "clients_per_round": 8, "local_steps": 2, "rounds": 60,
                   "eta_local": 0.5, "eta_global": 0.05, "batch_size": 20, "master_seed": 3},
    "mechanism": {"tau": 1.0, "sigma_g": 0.5, "noise_seed": 3},
    "sketch": {"mode": "gaussian", "b": 128},
    "optimizer": {"kind": "amsgrad"},
    "accountant": {"delta": 1e-5},
    "output": {"prefix": "logreg_ahead"},
}

# fingerprint -> config -> (CSV sha256, normalized manifest sha256)
DIGESTS = {
    "numpy 2.4.6, blas aa1821ac725ba9cb": {
        "quadratic": ("40907ddfbccb53fe1b2a9d24e2c76e16ae8ffbac5e7c6699e4f9e6d4e475ab77",
                      "7da217d6f4d76d32b102990769c288917235a1e0db6b96d8fefdb5632a56138b"),
        "logreg": ("6a4e8364304899ee1bc80aa75fb4acc1c628264b0a7d7226bbcec3eac57d6b02",
                   "36b85bc497d898e9b83073a478ed83fa65f15079228212c4a6f29b0bc3198630"),
        "logreg_ahead": ("9ac3707adbc659dd131e31a29d78d62a7d2366da4337c1d8f185abd4f13895c8",
                         "7febf708720616db64534e6af4337674c3ea4afa5d67d216868e0d5e47eda873"),
    },
}

# Prints the fingerprint on its first line, then runs each config file through
# the CLI into argv[1]/<file name without .json>.
RUN = """
import hashlib, sys
import numpy as np
from fedsgm.cli import main

rng = np.random.default_rng(0)
A, B = rng.standard_normal((67, 300)), rng.standard_normal((300, 19))
products = (A @ B[:, 0], B[:, 0] @ A.T, A @ B, A[:2] @ B, A[:, :256] @ A[:16, :256].T)
blas = hashlib.sha256(b"".join(p.tobytes() for p in products)).hexdigest()[:16]
print(f"numpy {np.__version__}, blas {blas}", flush=True)
for path in sys.argv[2:]:
    name = path.rsplit("/", 1)[-1].removesuffix(".json")
    rc = main(["simulate", path, "--out-dir", f"{sys.argv[1]}/{name}"])
    assert rc == 0, (name, rc)
"""


def _digests(out_dir, name):
    csv = (out_dir / f"{name}.csv").read_bytes()
    manifest = (out_dir / f"{name}-manifest.json").read_bytes()
    manifest = manifest.replace(f'"dir": {json.dumps(str(out_dir))}'.encode(), b'"dir": "<out>"')
    assert b'"dir": "<out>"' in manifest
    return hashlib.sha256(csv).hexdigest(), hashlib.sha256(manifest).hexdigest()


def test_logreg_ahead_takes_the_window_and_draw_ahead_paths():
    cfg = validate_config(LOGREG_AHEAD)
    task, _ = build_task(cfg)
    assert task.eval_window == 45
    assert _draws_ahead(build_fed_config(cfg), task.d)


def test_shipped_configs_write_the_recorded_bytes(tmp_path):
    threads = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), **threads}
    ahead = tmp_path / "logreg_ahead.json"
    ahead.write_text(json.dumps(LOGREG_AHEAD))
    paths = ["configs/quadratic.json", "configs/logreg.json", str(ahead)]
    proc = subprocess.run([sys.executable, "-c", RUN, str(tmp_path), *paths], cwd=REPO_ROOT,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    fingerprint = proc.stdout.splitlines()[0]
    got = {name: _digests(tmp_path / name, name) for name in CONFIGS}
    assert fingerprint in DIGESTS, (
        f"no digests stored for fingerprint {fingerprint!r}; this host writes {got}")
    assert got == DIGESTS[fingerprint]
