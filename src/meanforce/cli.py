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
      "evolve": {"initial_state": [...], "times": [...],        # evolve
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
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from ._quad import DEFAULT_QUAD, QuadratureConfig
from .bath import DiscreteBath, OhmicBath
from .corrections import SWEEP_BW0, SWEEP_KINDS, SWEEP_NAMES, build_upsilon_table, qubit_sweep_point
from .errors import MeanforceError, ValidationError
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

FMT = "%.12g"


def _fmt(x):
    return FMT % float(x)


def _finite(x):
    """A finite JSON number; a JSON boolean is not one, though bool subclasses int.  Compared,
    not converted, so a JSON integer beyond the float range is not finite."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _positive(x, path):
    if not _finite(x) or x <= 0:
        raise ValidationError(f"{path}: must be a positive finite number")
    return x


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
    try:  # also rejects a matrix that is not square or not finite
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
    def is_qubit_sweep(self):
        """Corrections sweep omega0 for a qubit on one Ohmic bath, else emit one table."""
        return self.omega0 is not None and len(self.couplings) == 1 \
            and isinstance(self.bath_list()[0], OhmicBath)

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

    beta = _positive(data.get("beta"), "beta")
    lam = data.get("lambda", 0.05)
    if not _finite(lam) or lam < 0 or not _finite(float(lam) * float(lam)):
        raise ValidationError("lambda: must be a nonnegative number with a finite square")

    system = data.get("system")
    omega0 = None
    if not isinstance(system, dict):
        raise ValidationError("system: must be an object with 'tls' or 'hamiltonian'")
    if "tls" in system:
        omega0 = _positive(_object(system["tls"], "system.tls").get("omega0"), "system.tls.omega0")
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
            gc = b.get("gamma_c")
            if not _finite(gc) or gc < 0:
                raise ValidationError(f"{path}.gamma_c: must be a nonnegative finite number")
            wc = _positive(b.get("cutoff"), f"{path}.cutoff")
            try:
                baths[bid] = OhmicBath(beta=float(beta), coupling=float(gc), cutoff=float(wc))
            except ValidationError as exc:  # the support radius, set by the cutoff or by 1/beta
                raise ValidationError(f"{path}.cutoff: {exc}" if wc * beta >= 1 else f"beta: {exc}") from None
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
            _positive(fields[k], f"quadrature.{k}")
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
        if not isinstance(vals, list) or not vals or not all(_finite(v) and v > 0 for v in vals):
            raise ValidationError("sweep.values: must be a non-empty list of positive finite numbers")
        if task == "corrections" and not cfg.is_qubit_sweep:
            raise ValidationError("sweep: only a qubit coupled once to an Ohmic bath is swept")
        cfg.sweep_values = [float(v) for v in vals]
    elif task == "corrections" and cfg.is_qubit_sweep:
        cfg.sweep_values = list(SWEEP_BW0)
    # the qubit sweep and the validate checks divide by the first coupling's gamma_c
    bid = couplings[0][1]
    if task == "validate" or (task == "corrections" and cfg.is_qubit_sweep):
        if isinstance(baths[bid], OhmicBath) and baths[bid].coupling == 0:
            raise ValidationError(f"baths.{bid}.gamma_c: must be positive for the {task} task")
    if task == "validate":  # the checks run on the qubit of omega0 coupled by x sigma_x + z sigma_z
        pauli = couplings_cfg[0].get("pauli")
        if omega0 is None:
            raise ValidationError("system.hamiltonian: the validate task needs a 'tls' system")
        if not isinstance(baths[bid], OhmicBath):
            raise ValidationError(f"baths.{bid}.type: the validate task needs an 'ohmic' bath")
        if pauli is None:
            raise ValidationError("couplings[0].operator: the validate task needs a 'pauli' coupling")
        if pauli.get("y", 0):
            raise ValidationError("couplings[0].pauli.y: must be 0 for the validate task")
        if not (pauli.get("x", 0) and pauli.get("z", 0)):
            raise ValidationError("couplings[0].pauli: the validate task needs nonzero x and z")

    # a present evolve section is checked on every task, as sweep and validate are
    if task == "evolve" and "evolve" not in data:
        raise ValidationError("evolve: required for the evolve task")
    if "evolve" in data:
        ev = _object(data["evolve"], "evolve")
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
    messages = []
    if cfg.is_qubit_sweep:
        bath = cfg.bath_list()[0]
        values, messages = qubit_sweep_point(bath, [bw0 / bath.beta for bw0 in cfg.sweep_values],
                                             bath.coupling, cfg.quad)
        rows = [[_fmt(bw0), name, kind, _fmt(v), "0" if msg is None else "nan"]
                for bw0, point, msg in zip(cfg.sweep_values, values.tolist(), messages)
                for kind, row in zip(SWEEP_KINDS, point) for name, v in zip(SWEEP_NAMES, row)]
    else:
        jumps, baths = cfg.jump_list(), cfg.bath_list()
        for kind, table_kind in (("mf", "mean_force"), ("dyn", "dynamical"), ("st_redfield", "steady_state")):
            t = build_upsilon_table(table_kind, jumps, baths, config=cfg.quad)
            ij = np.array(np.nonzero(t.held))
            i, j = ij[:, np.lexsort(np.r_[t.freqs[ij[::-1]], t.coupling[ij[::-1]]])]  # sorted (a, b, w, w')
            a, w = t.coupling.tolist(), list(map(_fmt, t.freqs.tolist()))
            rows += [["0", f"Y[{a[p]};{a[q]};{w[p]};{w[q]}]", kind, _fmt(v.real), _fmt(v.imag)]
                     for p, q, v in zip(i.tolist(), j.tolist(), t.values[i, j].tolist())]
    _write_csv(cfg.output, header, rows)
    for bw0, msg in zip(cfg.sweep_values, messages):
        if msg is not None:
            print(f"warning: sweep value {bw0:g}: {msg}", file=sys.stderr)
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
    jumps, baths = cfg.jump_list(), cfg.bath_list()
    states = {"davies": build_davies_generator(cfg.h0, jumps, baths, cfg.lam, cfg.quad),
              "redfield": build_redfield_generator(cfg.h0, jumps, baths, cfg.lam, config=cfg.quad)}
    hmf = assemble_correction(build_upsilon_table("mean_force", jumps, baths, config=cfg.quad), jumps)
    rows = [[kind, *_rho_cells(steady_state_of_generator(gen))] for kind, gen in states.items()]
    rows.append(["mean_force_gibbs", *_rho_cells(thermal_state(cfg.h0 + cfg.lam**2 * hmf, cfg.beta))])
    _write_csv(cfg.output, ["kind"] + _rho_header(cfg.h0.shape[0]), rows)
    return 0


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
    try:
        if args.threads < 1:
            raise ValidationError("--threads must be at least 1")
        cfg = load_config(args.config)
        if cfg.task != args.task:
            raise ValidationError(f"config task {cfg.task!r} does not match subcommand {args.task!r}")
        cfg.output = args.out or cfg.output
        tols = {k: v for k, v in (("abs_tol", args.tol_abs), ("rel_tol", args.tol_rel)) if v is not None}
        if tols:
            try:
                cfg.quad = replace(cfg.quad, **tols)
            except ValidationError as exc:
                raise ValidationError(f"--tol-abs/--tol-rel: {exc}") from None
        cfg.skip_oracle |= getattr(args, "skip_oracle", False)
        if cfg.task == "validate":  # only this task loads the check suite
            from .validation import run_validate as run
        else:
            run = {"corrections": run_corrections, "evolve": run_evolve, "steadystate": run_steadystate}[cfg.task]
        return run(cfg)
    except (MeanforceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
