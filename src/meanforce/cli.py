"""Batch front end: JSON config in, CSV / validation report out.

Config schema (complex numbers are [re, im] pairs):

    {
      "task": "corrections" | "evolve" | "steadystate" | "validate",
      "system": {"tls": {"omega0": 1.0}} or {"hamiltonian": [[[re,im], ...], ...]},
      "couplings": [{"pauli": {"x":..,"y":..,"z":..} or "operator": [...], "bath": "b1"}],
      "baths": {"b1": {"type":"ohmic","gamma_c":1.0,"cutoff":50.0}
                       or {"type":"discrete","modes":[[W,g],...]}},
      "beta": 1.0,
      "lambda": 0.05,
      "sweep": {"parameter": "omega0", "values": [...]},        # corrections
      "evolve": {"initial_state": [...], "times": [...],
                 "equations": ["cumulant","davies","redfield"]},
      "validate": {"skip_oracle": false, "break_detailed_balance": false},
      "quadrature": {"abs_tol": 1e-9, "rel_tol": 1e-8, "limit": 400},
      "output": "out.csv"
    }

CSV output is byte-deterministic: header line, comma separated, 12 significant
digits, LF line endings, fixed row order.  Exit status is 0 iff every executed
check passed (validate) or the run completed (other tasks), and 2 for a
malformed config (the message names the field path) or a library error.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from ._quad import DEFAULT_QUAD, QuadratureConfig
from .bath import DiscreteBath, OhmicBath
from .corrections import build_upsilon_table
from .errors import MeanforceError, NumericsError, ValidationError
from .generators import (
    build_davies_generator,
    build_redfield_generator,
    cumulant_map,
    propagate,
    steady_state_of_generator,
    thermal_state,
    validate_density_matrix,
)
from .operators import (
    assemble_correction,
    bohr_decompose,
    pauli_coupling,
    require_hermitian,
    spectral_decompose,
    tls_hamiltonian,
)
from .validation import (
    SWEEP_BW0,
    SWEEP_KINDS,
    SWEEP_NAMES,
    CheckResult,
    ReferenceCase,
    check_detailed_balance_guard,
    qubit_sweep_point,
    run_checks,
)

FMT = "%.12g"


def _fmt(x):
    return FMT % float(x)


def _finite(x):
    """A finite JSON number; a JSON boolean is not one, though bool subclasses int."""
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _object(obj, path):
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: must be an object")
    return obj


def _parse_hermitian(obj, path):
    """A Hermitian matrix of [re, im] pairs, to the tolerance the decompositions apply."""
    try:
        arr = np.array([[complex(e[0], e[1]) for e in row] for row in obj])
    except (TypeError, IndexError, KeyError, ValueError, OverflowError):
        raise ValidationError(f"{path}: expected a nested list of [re, im] pairs") from None
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{path}: entries must be finite")
    try:  # also rejects a matrix that is not square
        return require_hermitian(arr, name="matrix")
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


@dataclass
class RunConfig:
    task: str
    beta: float
    lam: float
    h0: np.ndarray
    couplings: list                 # [(operator, bath_id)]
    baths: dict                     # id -> bath model
    omega0: float = None            # set for tls systems
    sweep_values: list = field(default_factory=list)
    evolve_times: list = field(default_factory=list)
    evolve_equations: list = field(default_factory=lambda: ["cumulant", "davies"])
    initial_state: np.ndarray = None
    skip_oracle: bool = False
    break_detailed_balance: bool = False
    quad: QuadratureConfig = DEFAULT_QUAD
    output: str = "out.csv"

    @property
    def is_tls(self):
        return self.omega0 is not None

    def bath_list(self):
        return [self.baths[bid] for _, bid in self.couplings]

    def jump_list(self):
        dec = spectral_decompose(self.h0)
        return [bohr_decompose(dec, op, index=i) for i, (op, _) in enumerate(self.couplings)]


def parse_config(data):
    """Validate a config dict into a RunConfig; error messages carry field paths."""
    if not isinstance(data, dict):
        raise ValidationError("config: top level must be an object")

    task = data.get("task")
    if task not in ("corrections", "evolve", "steadystate", "validate"):
        raise ValidationError(f"task: expected one of corrections/evolve/steadystate/validate, got {task!r}")

    beta = data.get("beta")
    if not _finite(beta) or beta <= 0:
        raise ValidationError("beta: must be a positive finite number")
    lam = data.get("lambda", 0.05)
    if not _finite(lam) or lam < 0:
        raise ValidationError("lambda: must be a nonnegative finite number")

    system = data.get("system")
    omega0 = None
    if not isinstance(system, dict):
        raise ValidationError("system: must be an object with 'tls' or 'hamiltonian'")
    if "tls" in system:
        omega0 = _object(system["tls"], "system.tls").get("omega0")
        if not _finite(omega0) or omega0 <= 0:
            raise ValidationError("system.tls.omega0: must be a positive finite number")
        h0 = tls_hamiltonian(float(omega0))
    elif "hamiltonian" in system:
        h0 = _parse_hermitian(system["hamiltonian"], "system.hamiltonian")
    else:
        raise ValidationError("system: needs either 'tls' or 'hamiltonian'")

    baths_cfg = data.get("baths")
    if not isinstance(baths_cfg, dict) or not baths_cfg:
        raise ValidationError("baths: must be a non-empty object")
    baths = {}
    for bid, b in baths_cfg.items():
        path = f"baths.{bid}"
        kind = _object(b, path).get("type")
        if kind == "ohmic":
            gc, wc = b.get("gamma_c"), b.get("cutoff")
            if not _finite(gc) or gc < 0:
                raise ValidationError(f"{path}.gamma_c: must be a nonnegative finite number")
            if not _finite(wc) or wc <= 0:
                raise ValidationError(f"{path}.cutoff: must be a positive finite number")
            baths[bid] = OhmicBath(beta=float(beta), coupling=float(gc), cutoff=float(wc))
        elif kind == "discrete":
            modes = b.get("modes")
            if not isinstance(modes, list) or not modes or not all(
                    isinstance(m, list) and len(m) == 2 and all(map(_finite, m)) for m in modes):
                raise ValidationError(
                    f"{path}.modes: must be a non-empty list of finite [frequency, coupling] pairs")
            try:
                baths[bid] = DiscreteBath(beta=float(beta), modes=tuple((m[0], m[1]) for m in modes))
            except (ValidationError, TypeError, IndexError) as exc:
                raise ValidationError(f"{path}.modes: {exc}") from None
        else:
            raise ValidationError(f"{path}.type: expected 'ohmic' or 'discrete', got {kind!r}")

    couplings_cfg = data.get("couplings")
    if not isinstance(couplings_cfg, list) or not couplings_cfg:
        raise ValidationError("couplings: must be a non-empty list")
    couplings = []
    for i, c in enumerate(couplings_cfg):
        path = f"couplings[{i}]"
        if "pauli" in _object(c, path):
            p = _object(c["pauli"], f"{path}.pauli")
            weights = [p.get(k, 0.0) for k in "xyz"]
            for k, v in zip("xyz", weights):
                if not _finite(v):
                    raise ValidationError(f"{path}.pauli.{k}: must be a finite number")
            op = pauli_coupling(*weights)
            if h0.shape[0] != 2:
                raise ValidationError(f"{path}.pauli: pauli couplings need a two-level system")
        elif "operator" in c:
            op = _parse_hermitian(c["operator"], f"{path}.operator")
        else:
            raise ValidationError(f"{path}: needs 'pauli' or 'operator'")
        bid = c.get("bath")
        if not isinstance(bid, str) or bid not in baths:
            raise ValidationError(f"{path}.bath: unknown bath id {bid!r}")
        if op.shape[0] != h0.shape[0]:
            raise ValidationError(f"{path}: operator dimension {op.shape[0]} != system dimension {h0.shape[0]}")
        couplings.append((op, bid))

    quad = DEFAULT_QUAD
    if "quadrature" in data:
        q = _object(data["quadrature"], "quadrature")
        fields = {k: q.get(k, getattr(DEFAULT_QUAD, k)) for k in ("abs_tol", "rel_tol", "limit")}
        for k in ("abs_tol", "rel_tol"):
            if not _finite(fields[k]) or fields[k] <= 0:
                raise ValidationError(f"quadrature.{k}: must be a positive finite number")
        if not isinstance(fields["limit"], int) or fields["limit"] < 10:
            raise ValidationError("quadrature.limit: must be an integer of at least 10")
        quad = QuadratureConfig(**fields)

    output = data.get("output", "out.csv")
    if not isinstance(output, str) or not output:
        raise ValidationError("output: must be a non-empty file path string")

    cfg = RunConfig(
        task=task, beta=float(beta), lam=float(lam), h0=h0,
        couplings=couplings, baths=baths, omega0=omega0,
        quad=quad, output=output,
    )

    sweep = data.get("sweep")
    if sweep is not None:
        if _object(sweep, "sweep").get("parameter") != "omega0":
            raise ValidationError("sweep.parameter: only 'omega0' sweeps are supported")
        vals = sweep.get("values")
        if not isinstance(vals, list) or not all(_finite(v) and v > 0 for v in vals):
            raise ValidationError("sweep.values: must be a list of positive finite numbers")
        cfg.sweep_values = [float(v) for v in vals]
    elif task == "corrections":
        cfg.sweep_values = list(SWEEP_BW0)

    if task == "evolve":
        ev = data.get("evolve")
        if not isinstance(ev, dict):
            raise ValidationError("evolve: required for the evolve task")
        times = ev.get("times")
        if not isinstance(times, list) or not all(_finite(t) and t >= 0 for t in times):
            raise ValidationError("evolve.times: must be a list of nonnegative finite numbers")
        cfg.evolve_times = sorted(float(t) for t in times)
        eqs = ev.get("equations", ["cumulant", "davies"])
        if not isinstance(eqs, list):
            raise ValidationError("evolve.equations: must be a list")
        for e in eqs:
            if e not in ("cumulant", "davies", "redfield"):
                raise ValidationError(f"evolve.equations: unknown equation kind {e!r}")
        cfg.evolve_equations = list(eqs)
        state = ev.get("initial_state")
        if state is None:
            raise ValidationError("evolve.initial_state: required")
        rho0 = _parse_hermitian(state, "evolve.initial_state")
        if rho0.shape != h0.shape:
            raise ValidationError(
                f"evolve.initial_state: dimension {rho0.shape[0]} != system dimension {h0.shape[0]}")
        try:
            validate_density_matrix(rho0)
        except ValidationError as exc:
            raise ValidationError(f"evolve.initial_state: {exc}") from None
        if np.linalg.eigvalsh(rho0).min() < -1e-10:
            raise ValidationError("evolve.initial_state: density matrix is not positive semi-definite")
        cfg.initial_state = rho0

    if "validate" in data:
        v = _object(data["validate"], "validate")
        for key in ("skip_oracle", "break_detailed_balance"):
            flag = v.get(key, False)
            if not isinstance(flag, bool):
                raise ValidationError(f"validate.{key}: must be true or false")
            setattr(cfg, key, flag)

    return cfg


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return parse_config(data)


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# --- corrections task ----------------------------------------------------------


def run_corrections(cfg):
    """Qubit coefficient sweep (TLS + single Ohmic bath) or a full coefficient table."""
    header = ["sweep_value", "coefficient_name", "correction_kind", "value_re", "value_im"]
    rows = []
    failures = []
    if cfg.is_tls and len(cfg.couplings) == 1 \
            and isinstance(cfg.bath_list()[0], OhmicBath):
        bath = cfg.bath_list()[0]
        for bw0 in cfg.sweep_values:
            try:
                vals = qubit_sweep_point(bath, bw0 / bath.beta, bath.coupling, cfg.quad)
            except NumericsError as exc:
                vals = None
                failures.append(f"sweep value {bw0:g}: {exc}")
            for kind in SWEEP_KINDS:
                for name in SWEEP_NAMES:
                    if vals is None:
                        rows.append([_fmt(bw0), name, kind, "nan", "nan"])
                    else:
                        v = vals[(kind, name)]
                        rows.append([_fmt(bw0), name, kind, _fmt(v), _fmt(0.0)])
    else:
        jumps = cfg.jump_list()
        baths = cfg.bath_list()
        for kind, table_kind, eq in (("mf", "mean_force", None),
                                     ("dyn", "dynamical", None),
                                     ("st_redfield", "steady_state", "redfield")):
            table = build_upsilon_table(table_kind, jumps, baths,
                                        equation=eq or "redfield", config=cfg.quad)
            for (a, b, w, wp), v in sorted(table.entries.items()):
                name = f"Y[{a};{b};{_fmt(w)};{_fmt(wp)}]"
                rows.append(["0", name, kind, _fmt(np.real(v)), _fmt(np.imag(v))])
    _write_csv(cfg.output, header, rows)
    for msg in failures:
        print(f"warning: {msg}", file=sys.stderr)
    return 0


# --- evolve task ----------------------------------------------------------------


def _rho_header(d):
    return [f"rho_{i}{j}_{part}" for i in range(d) for j in range(d) for part in ("re", "im")]


def _rho_cells(rho):
    return [_fmt(x) for z in rho.ravel() for x in (z.real, z.imag)]


def run_evolve(cfg):
    jumps = cfg.jump_list()
    baths = cfg.bath_list()
    header = ["t", "equation"] + _rho_header(cfg.h0.shape[0]) + ["trace_re", "min_eigenvalue"]

    generators = {}
    if "davies" in cfg.evolve_equations:
        generators["davies"] = build_davies_generator(cfg.h0, jumps, baths, cfg.lam, cfg.quad)
    if "redfield" in cfg.evolve_equations:
        generators["redfield"] = build_redfield_generator(cfg.h0, jumps, baths, cfg.lam, config=cfg.quad)

    rows = []
    for t in cfg.evolve_times:
        for eq in cfg.evolve_equations:
            if eq == "cumulant":
                state = propagate(cumulant_map(cfg.h0, jumps, baths, cfg.lam, t, cfg.quad),
                                  cfg.initial_state)
            else:
                state = propagate(generators[eq], cfg.initial_state, t)
            herm = 0.5 * (state + state.conj().T)
            rows.append([_fmt(t), eq] + _rho_cells(state)
                        + [_fmt(np.trace(state).real), _fmt(np.linalg.eigvalsh(herm).min())])
    _write_csv(cfg.output, header, rows)
    return 0


# --- steadystate task -------------------------------------------------------------


def run_steadystate(cfg):
    jumps = cfg.jump_list()
    baths = cfg.bath_list()
    states = {}
    states["davies"] = steady_state_of_generator(
        build_davies_generator(cfg.h0, jumps, baths, cfg.lam, cfg.quad))
    states["redfield"] = steady_state_of_generator(
        build_redfield_generator(cfg.h0, jumps, baths, cfg.lam, config=cfg.quad))
    hmf = assemble_correction(
        build_upsilon_table("mean_force", jumps, baths, config=cfg.quad), jumps)
    states["mean_force_gibbs"] = thermal_state(cfg.h0 + cfg.lam**2 * hmf, cfg.beta)

    rows = [[kind] + _rho_cells(states[kind]) for kind in ("davies", "redfield", "mean_force_gibbs")]
    _write_csv(cfg.output, ["kind"] + _rho_header(cfg.h0.shape[0]), rows)
    return 0


# --- validate task ----------------------------------------------------------------


def read_corrections_csv(path):
    """Parse a corrections CSV back into the (bw0, kind, name) -> value map."""
    rows = {}
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["sweep_value", "coefficient_name", "correction_kind"]:
            raise ValidationError(f"{path}: not a corrections CSV")
        for line in fh:
            sweep, name, kind, re, _ = line.strip().split(",")
            rows[(float(sweep), kind, name)] = float(re)
    return rows


def run_validate(cfg):
    bath = cfg.bath_list()[0]
    ohmic = isinstance(bath, OhmicBath)
    case = ReferenceCase(
        omega0=cfg.omega0 or 1.0,
        beta=cfg.beta,
        cutoff=bath.cutoff if ohmic else 50.0,
        coupling_strength=bath.coupling if ohmic else 1.0,
        config=cfg.quad,
    )
    if cfg.break_detailed_balance:
        # injected-fault mode: only the detailed-balance precondition is probed,
        # and the run fails whether or not the guard rejects the skewed diagonal
        guard = check_detailed_balance_guard(case)
        results = [CheckResult("steady_coherence_detailed_balance_precondition", False,
                               1.0, 0.0, guard.detail)]
    else:
        results = run_checks(case, skip_oracle=cfg.skip_oracle)
    lines = [r.line() for r in results]
    ok = all(r.passed for r in results)
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} ({sum(r.passed for r in results)}/{len(results)} checks)")
    report = "\n".join(lines) + "\n"
    with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    print(report, end="")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="meanforce",
        description="Hamiltonian-correction and master-equation sweeps for open quantum systems",
    )
    sub = parser.add_subparsers(dest="task", required=True)
    for task in ("corrections", "evolve", "steadystate", "validate"):
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", help="output path (overrides config)")
        p.add_argument("--tol-abs", type=float, help="quadrature absolute tolerance override")
        p.add_argument("--tol-rel", type=float, help="quadrature relative tolerance override")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the sweep runs in one process; N < 1 exits 2")
        if task == "validate":
            p.add_argument("--skip-oracle", action="store_true",
                           help="skip the exact-diagonalisation scaling check")
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("error: --threads must be at least 1", file=sys.stderr)
        return 2

    try:
        cfg = load_config(args.config)
    except (MeanforceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if cfg.task != args.task:
        print(f"error: config task {cfg.task!r} does not match subcommand {args.task!r}",
              file=sys.stderr)
        return 2
    if args.out:
        cfg.output = args.out
    if args.tol_abs is not None or args.tol_rel is not None:
        try:
            cfg.quad = QuadratureConfig(
                abs_tol=cfg.quad.abs_tol if args.tol_abs is None else args.tol_abs,
                rel_tol=cfg.quad.rel_tol if args.tol_rel is None else args.tol_rel,
                limit=cfg.quad.limit,
            )
        except ValidationError as exc:
            print(f"error: --tol-abs/--tol-rel: {exc}", file=sys.stderr)
            return 2
    if getattr(args, "skip_oracle", False):
        cfg.skip_oracle = True

    try:
        if cfg.task == "corrections":
            return run_corrections(cfg)
        if cfg.task == "evolve":
            return run_evolve(cfg)
        if cfg.task == "steadystate":
            return run_steadystate(cfg)
        return run_validate(cfg)
    except (MeanforceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
