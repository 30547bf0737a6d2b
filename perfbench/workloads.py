"""Seeded inputs for the benchmark workloads.

Every workload is a JSON config for the meanforce CLI.  The seed fixes the
whole config, so the same seed always gives the same bytes and the same
hash.  The CLI receives only these files.

The d=4 system is H0 = U diag(e) U^dag with U Haar-random and e a fixed,
well separated level ladder plus a seeded jitter of at most 0.05.  Every seed
therefore has 13 distinct Bohr frequencies at similar positions, so the
quadrature work, and with it the run time, does not depend on the seed.  The
coupling is a random Hermitian operator and the initial state a random full
rank density matrix, both drawn from the same seed.
"""

import hashlib
import json
import math

import numpy as np

BETA = 1.0
GAMMA_C = 1.0
CUTOFF = 50.0
LAMBDA = 0.05
LADDER = (-1.7, -1.0, 0.2, 1.7)  # positive gaps 0.7 1.2 1.5 1.9 2.7 3.4
LEVEL_JITTER = 0.05
SWEEP_POINTS = 20
SWEEP_LO, SWEEP_HI = 0.1, 5.0
EVOLVE_TIMES = (2.0, 10.0)
EVOLVE_EQUATIONS = ("cumulant", "redfield", "davies")

WORKLOADS = ("qubit_sweep", "steady_d4", "evolve_d4", "validate_tls")
TASK = {
    "qubit_sweep": "corrections",
    "steady_d4": "steadystate",
    "evolve_d4": "evolve",
    "validate_tls": "validate",
}


def _rng(seed, tag):
    return np.random.default_rng([seed, sum(map(ord, tag))])


def _pairs(m):
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _ohmic():
    return {"b": {"type": "ohmic", "gamma_c": GAMMA_C, "cutoff": CUTOFF}}


def sweep_grid(seed):
    """Seed 0 is the CLI's documented default grid; other seeds jitter it."""
    grid = np.linspace(SWEEP_LO, SWEEP_HI, SWEEP_POINTS)
    if seed != 0:
        step = grid[1] - grid[0]
        grid = grid + _rng(seed, "sweep").uniform(-0.4 * step, 0.4 * step, grid.size)
    return [float(v) for v in grid]


def random_system(seed, d=4):
    """(H0, coupling, rho0) for the seeded d-level system."""
    rng = _rng(seed, "system")
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    levels = np.array(LADDER) + rng.uniform(-LEVEL_JITTER, LEVEL_JITTER, d)
    h0 = (u * levels) @ u.conj().T
    h0 = 0.5 * (h0 + h0.conj().T)
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = 0.5 * (b + b.conj().T)
    a /= np.linalg.norm(a, 2)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return h0, a, rho


def make_config(workload, seed, output):
    """The CLI config of one workload and seed, writing its result to `output`."""
    if workload in ("qubit_sweep", "validate_tls"):
        s = 1.0 / math.sqrt(2.0)
        cfg = {
            "task": TASK[workload],
            "system": {"tls": {"omega0": 1.0}},
            "couplings": [{"pauli": {"x": s, "z": s}, "bath": "b"}],
            "baths": _ohmic(),
            "beta": BETA,
            "lambda": LAMBDA,
        }
        if workload == "qubit_sweep":
            cfg["sweep"] = {"parameter": "omega0", "values": sweep_grid(seed)}
        else:
            cfg["validate"] = {"skip_oracle": False}
    elif workload in ("steady_d4", "evolve_d4"):
        h0, a, rho = random_system(seed)
        cfg = {
            "task": TASK[workload],
            "system": {"hamiltonian": _pairs(h0)},
            "couplings": [{"operator": _pairs(a), "bath": "b"}],
            "baths": _ohmic(),
            "beta": BETA,
            "lambda": LAMBDA,
        }
        if workload == "evolve_d4":
            cfg["evolve"] = {
                "initial_state": _pairs(rho),
                "times": list(EVOLVE_TIMES),
                "equations": list(EVOLVE_EQUATIONS),
            }
    else:
        raise ValueError(f"unknown workload {workload!r}")
    cfg["output"] = output
    return cfg


def config_bytes(cfg):
    return json.dumps(cfg, sort_keys=True, indent=1).encode()


def config_hash(cfg):
    """SHA-256 of the config without its output path."""
    body = {k: v for k, v in cfg.items() if k != "output"}
    return hashlib.sha256(config_bytes(body)).hexdigest()


def describe(workload, seed):
    """Provenance of the generated system: spectrum and Bohr-frequency count."""
    if workload in ("steady_d4", "evolve_d4"):
        h0, _, _ = random_system(seed)
        levels = np.linalg.eigvalsh(h0)
        bohr = {round(float(x - y), 9) for x in levels for y in levels}
        return {"h0_spectrum": [round(float(v), 12) for v in levels],
                "bohr_frequencies": len(bohr)}
    if workload == "qubit_sweep":
        return {"h0_spectrum": [-0.5, 0.5], "bohr_frequencies": 3,
                "sweep_points": SWEEP_POINTS}
    return {"h0_spectrum": [-0.5, 0.5], "bohr_frequencies": 3}
