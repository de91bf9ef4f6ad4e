"""Print one SHA-256 digest of a seeded chain's JSONL output per model.

Two checkouts whose samplers consume the same random numbers in the same
way print the same lines, so a claim that a change leaves seeded output
bit-identical is checked by running this script on both and comparing.

Run from the root of a checkout:

    python3 tools/seeded_digests.py

Each model fits the same data: the 6x6 second-order lattice, two ratings
per unit drawn with numpy's default_rng(0), 120 iterations with 60
burn-in and chain seed 7; exact-mrf truncates its beta prior at 0.45.
The digest is the first 16 hex digits of the SHA-256 of to_jsonl.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dagmix import LatticeSpec, McmcConfig, Observations, PriorSpec, build_lattice_nug, run_chain  # noqa: E402
from dagmix.samplers import ALL_MODELS, EXACT_MRF  # noqa: E402


def digests():
    """(model, digest) for each of the five models, in ALL_MODELS order."""
    nug = build_lattice_nug(LatticeSpec(6, 6, "second"))
    obs = Observations(np.random.default_rng(0).integers(0, 2, size=(nug.n, 2)).tolist())
    for model in ALL_MODELS:
        priors = PriorSpec(beta_max=0.45) if model == EXACT_MRF else PriorSpec()
        config = McmcConfig(iterations=120, burn_in=60, seed=7, model=model, priors=priors)
        buf = io.StringIO()
        run_chain(obs, nug, config).to_jsonl(buf)
        yield model, hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16]


if __name__ == "__main__":
    for model, digest in digests():
        print(f"{model} {digest}")
