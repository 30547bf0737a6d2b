"""Write a config for ROADMAP.md's seeded many-level system of dimension d.

The system: a Haar-random eigenbasis, the levels linspace(-1.7, 1.7, d)
jittered by at most 0.05, and a random Hermitian coupling of norm 1, all drawn
from numpy's default_rng(1234 + d), on one Ohmic bath (gamma_c = 1, cutoff 50)
at beta = 1 and lambda = 0.05. An `evolve` config starts from the maximally
mixed state, runs all three equations to t = 2 and writes its CSV next to the
config, under the same name.

Usage: python3 .github/seeded_system.py D TASK CONFIG.json
"""

import json
import sys
from pathlib import Path

import numpy as np


def seeded_config(d, task, output):
    rng = np.random.default_rng(1234 + d)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    h0 = (u * (np.linspace(-1.7, 1.7, d) + rng.uniform(-0.05, 0.05, d))) @ u.conj().T
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = 0.5 * (b + b.conj().T)
    a /= np.linalg.norm(a, 2)
    pairs = lambda m: [[[z.real, z.imag] for z in row] for row in m.tolist()]
    cfg = {"task": task, "system": {"hamiltonian": pairs(0.5 * (h0 + h0.conj().T))},
           "couplings": [{"operator": pairs(a), "bath": "b"}],
           "baths": {"b": {"type": "ohmic", "gamma_c": 1.0, "cutoff": 50.0}},
           "beta": 1.0, "lambda": 0.05}
    if task == "evolve":
        cfg["output"] = output
        cfg["evolve"] = {"initial_state": pairs(np.eye(d) / d), "times": [2.0],
                         "equations": ["cumulant", "redfield", "davies"]}
    return cfg


if __name__ == "__main__":
    d, task, path = int(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
    with path.open("w") as fh:
        json.dump(seeded_config(d, task, path.with_suffix(".csv").name), fh)
