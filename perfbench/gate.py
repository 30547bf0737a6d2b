"""Correctness gate: every output row or CHECK line is one operation.

An operation fails when it is nan, breaks an invariant, or, for seed 0,
misses the stored reference.  The references in `reference/` were written
by the CLI for seed 0 at `--tol-abs 1e-12 --tol-rel 1e-11`.

Reference tolerance is |value - ref| <= ATOL + RTOL |ref| (qubit_sweep:
ATOL scaled by the largest |ref| of the table).  At the default quadrature
tolerance the sweep differs from its reference by at most 1.2e-8 relative
and the d=4 states by at most 7e-11 absolute.  The finite-time panel
transforms behind `evolve` ignore the quadrature tolerance, so its reference
only tightens the QUADPACK parts (S(w) in the Redfield and Davies
generators); the evolve gate uses the same tolerance as the steady states,
50 times the deviation observed there, which still catches any change of
the panel rule beyond 1e-9.
"""

import csv
import math
import os

import numpy as np

import workloads

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
RTOL = 1e-7
ATOL = 1e-9
STATE_TOL = 1e-9


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 10:
                self.notes.append(what)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _floats(cells):
    out = []
    for c in cells:
        try:
            out.append(float(c))
        except ValueError:
            out.append(c)
    return out


def _finite(values):
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _close(values, ref, atol):
    for v, r in zip(values, ref):
        if isinstance(r, float):
            if not isinstance(v, float) or abs(v - r) > atol + RTOL * abs(r):
                return False
        elif v != r:
            return False
    return len(values) == len(ref)


def _reference(name):
    return _read_rows(os.path.join(REFERENCE, name))


def _matrix(values, d):
    m = np.array(values[: 2 * d * d], dtype=float)
    return (m[0::2] + 1j * m[1::2]).reshape(d, d)


def gate_qubit_sweep(path, seed, tally):
    from meanforce._quad import QuadratureConfig
    from meanforce.cli import read_corrections_csv
    from meanforce.validation import ReferenceCase, check_sweep_structure

    _, rows = _read_rows(path)
    expected = len(workloads.sweep_grid(seed)) * 12
    ref = _reference("qubit_sweep.csv") if seed == 0 else None
    scale = max(abs(v) for r in ref[1] for v in _floats(r)[3:]) if ref else 0.0
    for i in range(expected):
        if i >= len(rows):
            tally.op(False, f"row {i} missing")
            continue
        vals = _floats(rows[i])
        ok = _finite(vals)
        if ok and ref:
            ok = _close(vals, _floats(ref[1][i]), ATOL * scale)
        tally.op(ok, f"row {i} {rows[i][:3]}")
    try:
        # the check's own offset term S(w0) - S(-w0) at the reference tolerance:
        # at the default one its quadrature error alone reaches 1.8e-6 at some
        # seeded grid points, above the check's 1e-6
        tight = ReferenceCase(config=QuadratureConfig(abs_tol=1e-12, rel_tol=1e-11))
        checks = check_sweep_structure(tight, rows=read_corrections_csv(path))
    except (KeyError, ValueError) as exc:
        for _ in range(3):
            tally.op(False, f"sweep structure unreadable: {exc}")
        return
    for c in checks:
        tally.op(c.passed and math.isfinite(c.measured), c.line())


def _state_ok(rho):
    herm = np.abs(rho - rho.conj().T).max() <= STATE_TOL
    trace = abs(np.trace(rho) - 1.0) <= STATE_TOL
    return herm and trace, np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min()


def gate_steady_d4(path, seed, tally):
    from meanforce.generators import thermal_state

    h0, _, _ = workloads.random_system(seed)
    gibbs = thermal_state(h0, workloads.BETA)
    _, rows = _read_rows(path)
    ref = _reference("steady_d4.csv") if seed == 0 else None
    kinds = ("davies", "redfield", "mean_force_gibbs")
    by_kind = {r[0]: r for r in rows}
    for i, kind in enumerate(kinds):
        if kind not in by_kind:
            tally.op(False, f"{kind} row missing")
            continue
        vals = _floats(by_kind[kind][1:])
        ok = _finite(vals)
        if ok:
            rho = _matrix(vals, 4)
            sound, min_eig = _state_ok(rho)
            ok = sound and min_eig >= -STATE_TOL
            if kind == "davies":
                ok = ok and np.abs(rho - gibbs).max() <= STATE_TOL
        if ok and ref:
            ok = _close(_floats(by_kind[kind]), _floats(ref[1][i]), ATOL)
        tally.op(ok, f"{kind} state")


def gate_evolve_d4(path, seed, tally):
    _, rows = _read_rows(path)
    ref = _reference("evolve_d4.csv") if seed == 0 else None
    expected = [(t, eq) for t in workloads.EVOLVE_TIMES for eq in workloads.EVOLVE_EQUATIONS]
    for i, (t, eq) in enumerate(expected):
        row = rows[i] if i < len(rows) else None
        if row is None or float(row[0]) != t or row[1] != eq:
            tally.op(False, f"row ({t:g}, {eq}) missing")
            continue
        vals = _floats(row[2:])
        ok = _finite(vals)
        if ok:
            rho = _matrix(vals, 4)
            sound, min_eig = _state_ok(rho)
            ok = sound and abs(vals[-2] - 1.0) <= STATE_TOL
            if eq in ("cumulant", "davies"):
                ok = ok and min_eig >= -STATE_TOL and vals[-1] >= -STATE_TOL
        if ok and ref:
            ok = _close(_floats(row), _floats(ref[1][i]), ATOL)
        tally.op(ok, f"row ({t:g}, {eq})")


def _check_lines(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("CHECK "):
                name, rest = line[6:].split(": ", 1)
                status, measured = rest.split()[:2]
                out[name] = (status, float(measured.split("=", 1)[1]))
    return out


def gate_validate_tls(path, seed, tally):
    got = _check_lines(path)
    ref = _check_lines(os.path.join(REFERENCE, "validate_tls.txt"))
    for name in sorted(set(ref) | set(got)):
        status, measured = got.get(name, ("MISSING", math.nan))
        tally.op(status == "PASS" and math.isfinite(measured), f"{name}: {status}")


EXPECTED_OPS = {
    "qubit_sweep": workloads.SWEEP_POINTS * 12 + 3,
    "steady_d4": 3,
    "evolve_d4": len(workloads.EVOLVE_TIMES) * len(workloads.EVOLVE_EQUATIONS),
    "validate_tls": 19,
}
GATES = {
    "qubit_sweep": gate_qubit_sweep,
    "steady_d4": gate_steady_d4,
    "evolve_d4": gate_evolve_d4,
    "validate_tls": gate_validate_tls,
}
