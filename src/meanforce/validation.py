"""End-to-end check suite shared by the CLI validate task and the acceptance tests.

Each check returns a CheckResult with the measured figure of merit and its
tolerance; `passed` is measured <= tol.  The spin-boson reference setup is a
qubit H0 = -(w0/2) sigma_z with coupling x sigma_x + z sigma_z to an Ohmic
bath, beta = 1, beta*wc = 50 unless a config overrides it.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._quad import DEFAULT_QUAD, _raise_failed
from .bath import OhmicBath, as_measure, integrated_gamma_matrix, lamb_shift_S, redfield_pair_matrices
from .corrections import (
    SWEEP_BW0,
    SWEEP_KINDS,
    SWEEP_NAMES,
    _mean_force_kernel,
    _mean_force_s_form,
    _spec_steady,
    build_upsilon_table,
    kossakowski_custom,
    kossakowski_redfield,
    kossakowski_secular,
    qubit_sweep_point,
    tls_diagonal_steady,
    upsilon_mean_force,
    upsilon_steady_offdiag,
)
from .errors import DetailedBalanceError
from .generators import (
    _checked_expm,
    build_cumulant_exponent,
    build_davies_generator,
    build_redfield_generator,
    choi_matrix,
    cumulant_map,
    interaction_redfield_generator,
    propagate,
    steady_state_of_generator,
    thermal_state,
)
from .operators import (
    assemble_correction,
    bohr_decompose,
    pauli_coupling,
    spectral_decompose,
    tls_hamiltonian,
)
from .oracle import (
    TruncatedBath,
    effective_hamiltonian,
    exact_reduced_gibbs,
    matching_bath,
    scaling_exponent,
    traceless,
)
from .perturbative import (
    four_tuples,
    fourth_order_solve_tls,
    g22_coefficient,
    g40_tls,
    g40_tls_direct,
    second_order_residual,
)

__all__ = ["CheckResult", "ReferenceCase", "ACCEPTANCE_CHECKS", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tol: float
    detail: str = ""

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"CHECK {self.name}: {status} measured={self.measured:.6e} tol={self.tol:.6e}{extra}"


@dataclass
class ReferenceCase:
    """Reference spin-boson configuration used by the acceptance checks."""

    omega0: float = 1.0
    beta: float = 1.0
    cutoff: float = 50.0
    coupling_strength: float = 1.0
    x: float = 1.0 / math.sqrt(2.0)
    z: float = 1.0 / math.sqrt(2.0)
    config: object = DEFAULT_QUAD
    seed: int = 7

    def bath(self):
        return OhmicBath(beta=self.beta, coupling=self.coupling_strength, cutoff=self.cutoff)

    def system(self):
        h0 = tls_hamiltonian(self.omega0)
        dec = spectral_decompose(h0)
        jump = bohr_decompose(dec, pauli_coupling(self.x, 0.0, self.z))
        return h0, dec, [jump]


# 10 x 10 grid of (w, w') pairs with every pair distinct, beta-units
_PAIR_GRID = tuple((float(w), float(wp)) for w in np.linspace(-2.0, 2.5, 10)
                   for wp in np.linspace(-2.23, 2.31, 10) + 0.013 if w != wp)
_SKEW = 1.1  # factor on the w > 0 Kossakowski diagonal in the injected fault


def check_dual_form(case):
    """Acceptance 1: pole-free kernel vs Lamb-shift form of the mean force."""
    measure, grid = as_measure(case.bath()), np.array(_PAIR_GRID).T
    kernel, failed = _mean_force_kernel(measure, *grid, case.config)
    _raise_failed(failed)
    s_form = _mean_force_s_form(measure, *grid, case.config)
    worst = float(np.max(np.abs(kernel - s_form) / np.maximum(1e-7, 1e-6 * np.abs(kernel))))
    return CheckResult("mean_force_dual_form", worst <= 1.0, worst, 1.0,
                       "max |kernel - S_form| / max(1e-7, 1e-6 |value|) over 10x10 grid")


def check_steady_coherence_identities(case):
    """Acceptance 2: steady coherences vs the kernel mean force, which reads no S(w) (Redfield K),
    and vs dynamical (secular K), each spec tabulated once over the grid closed under w -> -w."""
    bath, grid = case.bath(), np.array(_PAIR_GRID).T
    st_r = _spec_steady(kossakowski_redfield(bath, case.config), *grid)
    mf, failed = _mean_force_kernel(as_measure(bath), *grid, case.config)
    _raise_failed(failed)
    worst_r = float(np.max(np.abs(st_r - mf)))
    st_s = _spec_steady(kossakowski_secular(bath, case.config), *grid)
    freqs = sorted({x for pair in _PAIR_GRID for x in pair})
    w, wp = np.searchsorted(freqs, _PAIR_GRID).T
    dyn = redfield_pair_matrices(bath, freqs, np.inf, case.config)[1][w, wp]
    worst_s = float(np.max(np.abs(st_s - dyn)))
    return [CheckResult("steady_coherences_redfield_vs_mean_force", worst_r <= 1e-7, worst_r, 1e-7),
            CheckResult("steady_coherences_secular_vs_dynamical", worst_s <= 1e-10, worst_s, 1e-10)]


def _random_qutrit(seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2))
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def check_second_order_residual(case):
    """Acceptance 3: the coherence tables cancel the source term L2[rho0], on the reference
    qubit and on a random 3-level system."""
    bath = case.bath()
    spec = kossakowski_redfield(bath, case.config)
    h0q, sq = _random_qutrit(case.seed)
    out = []
    for name, (h0, _, jumps), detail in (
            ("tls", case.system(), "relative to ||L2[rho0]||"),
            ("qutrit", (h0q, None, [bohr_decompose(spectral_decompose(h0q), sq)]), "random 3-level system")):
        table = build_upsilon_table("steady_state", jumps, bath, "redfield", case.config)
        r = second_order_residual(h0, jumps, bath, spec, table)
        out.append(CheckResult(f"second_order_residual_{name}", r <= 1e-8, r, 1e-8, detail))
    return out


def check_fourth_order(case):
    """Acceptance 4: tuple cancellations and the TLS diagonal solutions."""
    bath = case.bath()
    _, dec, jumps = case.system()
    spec = kossakowski_redfield(bath, case.config)
    table = build_upsilon_table("steady_state", jumps, bath, "redfield", case.config)
    beta, w0 = case.beta, case.omega0

    coeffs = [partial(f, 0, 0) for f in (spec.K, spec.upsilon_dyn, table.value)]  # (w, w') -> K, Y_dyn, Y_st
    tuples = four_tuples(dec.energies, 0).tuples
    eighth = (w0, -w0, w0, -w0)
    vals = [g22_coefficient(*coeffs, *t, beta) for t in tuples if t != eighth]
    scale = max(abs(v) for v in vals)
    seven = abs(sum(vals)) / scale
    out = [CheckResult("g22_seven_tuple_cancellation", seven <= 1e-10, seven, 1e-10,
                       "relative to the largest tuple coefficient")]

    plus, minus = fourth_order_solve_tls(bath, w0, equation="redfield", config=case.config)
    red = max(abs(plus), abs(minus))
    out.append(CheckResult("fourth_order_redfield_diagonal", red <= 1e-12, red, 1e-12))

    worst = 0.0
    for bw0 in (0.5, 1.0, 2.0):
        w = bw0 / beta
        st_p, _ = tls_diagonal_steady(bath, w, "cumulant", case.config)
        mf_p = upsilon_mean_force(bath, w, w, "kernel", case.config)
        s_p = lamb_shift_S(bath, w, case.config)
        worst = max(worst, abs(mf_p - (st_p + s_p)) / abs(mf_p))
    out.append(CheckResult("cumulant_diagonal_identity", worst <= 1e-6, worst, 1e-6,
                           "Y_mf(w,w) = Y_st(w,w) + S(w) at beta*w0 in {0.5, 1, 2}"))

    closed = g40_tls(bath, w0, config=case.config)
    direct = g40_tls_direct(bath, w0, t_final=6.0 * beta, n_steps=1200, config=case.config)
    rel = abs(direct - closed) / abs(closed)
    out.append(CheckResult("g40_two_routes", rel <= 1e-4, rel, 1e-4,
                           "closed form vs double time integral"))
    return out


def check_cumulant_cptp(case):
    """Acceptance 5: cumulant map trace preservation and complete positivity."""
    bath = case.bath()
    h0, _, jumps = case.system()
    rho0 = np.array([[0.7, 0.2 + 0.1j], [0.2 - 0.1j, 0.3]], dtype=complex)
    worst_tr, worst_choi = 0.0, 0.0
    for lam in (0.02, 0.1):
        for t in (0.5, 5.0, 50.0):
            m = cumulant_map(h0, jumps, bath, lam, t / case.omega0, case.config)
            rho_t = propagate(m, rho0)
            worst_tr = max(worst_tr, abs(np.trace(rho_t).real - 1.0))
            worst_choi = max(worst_choi, -np.linalg.eigvalsh(choi_matrix(m)).min())
    return [
        CheckResult("cumulant_trace_preservation", worst_tr <= 1e-12, worst_tr, 1e-12),
        CheckResult("cumulant_choi_positive", worst_choi <= 1e-10, worst_choi, 1e-10,
                    "-(min Choi eigenvalue) over the (t, lam) grid"),
    ]


def check_generator_agreement(case):
    """Acceptance 6: ||L_cumulant - L_redfield|| scales as lam^4 at t = 2/w0."""
    bath = case.bath()
    h0, _, jumps = case.system()
    t = 2.0 / case.omega0
    h = 2e-4
    k0, kp, km = (build_cumulant_exponent(h0, jumps, bath, 1.0, t + d, case.config).matrix for d in (0.0, h, -h))
    li = interaction_redfield_generator(jumps, bath, 1.0, t, case.config).matrix
    lams = (1e-1, 3e-2, 1e-2)
    norms = []
    for lam in lams:
        e0 = _checked_expm(lam * lam * k0)
        diff = (_checked_expm(lam * lam * kp) - _checked_expm(lam * lam * km)) / (2 * h)
        lc = diff @ np.linalg.inv(e0)
        norms.append(np.linalg.norm(lc - lam * lam * li, 2))
    slope = scaling_exponent(lams, norms)
    return CheckResult("cumulant_redfield_generator_slope", abs(slope - 4.0) <= 0.3, slope, 0.3,
                       f"target 4 +- 0.3; norms {norms[0]:.2e}/{norms[1]:.2e}/{norms[2]:.2e}")


def check_oracle_scaling(case):
    """Acceptance 7: exact 3-mode bath; mean-force residual scales as lam^4."""
    h0, dec, _ = case.system()
    s_op = pauli_coupling(case.x, 0.0, case.z)
    tb = TruncatedBath(modes=((2.1, 0.6), (3.3, 0.8), (4.7, 0.5)), fock_cutoff=7)
    bath = matching_bath(tb, case.beta)
    jumps = [bohr_decompose(dec, s_op)]
    hmf = assemble_correction(build_upsilon_table("mean_force", jumps, bath, config=case.config), jumps)

    lams = (0.02, 0.05, 0.1)
    resid = []
    for lam in lams:
        rho = exact_reduced_gibbs(h0, s_op, tb, case.beta, lam)
        heff = effective_hamiltonian(rho, case.beta)
        resid.append(np.linalg.norm(heff - traceless(h0) - lam**2 * traceless(hmf)))
    slope = scaling_exponent(lams, resid)
    return CheckResult("oracle_mean_force_slope", abs(slope - 4.0) <= 0.3, slope, 0.3,
                       f"target 4 +- 0.3; residuals {resid[0]:.2e}/{resid[1]:.2e}/{resid[2]:.2e}")


def _slowest_rate(gen):
    ev = np.linalg.eigvals(gen.matrix)
    decaying = [e.real for e in ev if e.real < -1e-13]
    return -max(decaying)


def check_headline(case):
    """Acceptance 8: long-time cumulant coherence vs the mean-force Gibbs coherence.

    The map is evaluated at t_eq = 10/gap(lam), after the system has
    equilibrated on the dissipative timescale.  Expected to fail: the exact map
    loses its coherence algebraically (~1/t) beyond the relaxation time (its
    exponent is t times the secular, time-averaged generator plus bounded
    terms), so the 10-percent match cannot be met.  The Redfield fixed point,
    reported alongside for contrast, does satisfy the stated numbers.
    """
    bath = case.bath()
    h0, _, jumps = case.system()
    hmf = assemble_correction(build_upsilon_table("mean_force", jumps, bath, config=case.config), jumps)
    rho0 = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
    rels, rels_redfield = [], []
    for lam in (0.1, 0.05, 0.02):
        target = thermal_state(h0 + lam**2 * hmf, case.beta)[0, 1]
        gen = build_redfield_generator(h0, jumps, bath, lam, config=case.config)
        t_eq = 10.0 / _slowest_rate(gen)
        rho_c = propagate(cumulant_map(h0, jumps, bath, lam, t_eq, case.config), rho0)
        rels.append(abs(rho_c[0, 1] - target) / abs(target))
        rho_r = steady_state_of_generator(gen)
        rels_redfield.append(abs(rho_r[0, 1] - target) / abs(target))
    monotone = rels[0] >= rels[1] >= rels[2]
    passed = rels[1] <= 0.10 and monotone
    detail = (
        f"cumulant rel err at lam 0.1/0.05/0.02: {rels[0]:.3f}/{rels[1]:.3f}/{rels[2]:.3f}; "
        f"redfield fixed point: {rels_redfield[0]:.3f}/{rels_redfield[1]:.3f}/{rels_redfield[2]:.3f}"
    )
    out = [CheckResult("headline_cumulant_coherence", passed, rels[1], 0.10, detail)]

    davies = steady_state_of_generator(build_davies_generator(h0, jumps, bath, 0.05, case.config))
    coh = abs(davies[0, 1])
    out.append(CheckResult("headline_davies_coherence_zero", coh <= 1e-10, coh, 1e-10))
    return out


def qubit_sweep_rows(case):
    """(bw0, kind, name) -> value over the default beta*w0 sweep, in one batched pass."""
    values, failures = qubit_sweep_point(case.bath(), np.array(SWEEP_BW0) / case.beta,
                                         case.coupling_strength, case.config)
    _raise_failed({i: m for i, m in enumerate(failures) if m is not None})
    return {(bw0, kind, name): v for bw0, point in zip(SWEEP_BW0, values.tolist())
            for kind, row in zip(SWEEP_KINDS, point) for name, v in zip(SWEEP_NAMES, row)}


def _max_abs(values):
    """max |v|, nan when any v is nan (Python's max drops a nan that is not first)."""
    return float(np.max(np.abs(list(values))))


def check_sweep_structure(case, rows=None):
    """Acceptance 9: structural relations of the qubit coefficient sweep."""
    bath = case.bath()
    beta, gc = case.beta, case.coupling_strength
    rows = rows if rows is not None else qubit_sweep_rows(case)
    bw0s = sorted({k[0] for k in rows})

    scale = _max_abs(rows.values())
    im_flat = _max_abs(
        rows[(b, kind, "offdiag_im")] for b in bw0s for kind in ("mf", "st_redfield", "st_cumulant")
    )
    dyn_im = _max_abs(rows[(b, "dyn", "offdiag_im")] for b in bw0s)
    out = [CheckResult("sweep_imag_parts", im_flat <= 1e-10 * scale and dyn_im > 1e-3 * scale,
                       im_flat, 1e-10 * scale,
                       f"mf/st imag flat; max dynamical imag {dyn_im:.3e}")]

    red_diag = _max_abs(rows[(b, "st_redfield", "diag_diff")] for b in bw0s)
    out.append(CheckResult("sweep_redfield_diag_zero", red_diag <= 1e-12, red_diag, 1e-12))

    def offset(w0):
        return beta * (lamb_shift_S(bath, w0, case.config) - lamb_shift_S(bath, -w0, case.config)) / gc

    worst = _max_abs(rows[(b, "st_cumulant", "diag_diff")] - rows[(b, "mf", "diag_diff")] + offset(b / beta)
                     for b in bw0s)
    out.append(CheckResult("sweep_cumulant_diag_offset", worst <= 1e-6, worst, 1e-6,
                           "st_cumulant diag tracks mf diag minus beta*[S(w0)-S(-w0)]/gamma_c"))
    return out


def check_integrated_psd(case):
    """Bath invariant: the time-integrated gamma matrix stays PSD."""
    bath = case.bath()
    freqs = (-case.omega0, 0.0, case.omega0)
    worst = 0.0
    for t in (0.5, 5.0, 50.0):
        m = integrated_gamma_matrix(bath, freqs, t / case.omega0, case.config)
        lam_min = np.linalg.eigvalsh(0.5 * (m + m.conj().T)).min()
        worst = max(worst, -lam_min / np.trace(m).real)
    return CheckResult("integrated_gamma_psd", worst <= 1e-9, worst, 1e-9,
                       "-(min eig)/trace over t grid")


def check_detailed_balance_guard(case):
    """Injected fault: a skewed Kossakowski diagonal must be rejected."""
    bath = case.bath()
    base = kossakowski_redfield(bath, case.config)

    def bad_k(a, b, w, wp):
        return base.K(a, b, w, wp) * (_SKEW if w > 0 else 1.0)

    spec = kossakowski_custom(case.beta, bad_k, base.upsilon_dyn)
    try:
        upsilon_steady_offdiag(spec, bath, case.omega0, 0.0, config=case.config)
    except DetailedBalanceError:
        return CheckResult("detailed_balance_guard", True, 1.0, 1.0,
                           "skewed diagonal rejected as required")
    return CheckResult("detailed_balance_guard", False, 0.0, 1.0,
                       "skewed diagonal was not rejected")


ACCEPTANCE_CHECKS = (
    ("dual_form", check_dual_form),
    ("steady_coherences", check_steady_coherence_identities),
    ("second_order_residual", check_second_order_residual),
    ("fourth_order", check_fourth_order),
    ("cumulant_cptp", check_cumulant_cptp),
    ("generator_agreement", check_generator_agreement),
    ("oracle", check_oracle_scaling),
    ("headline", check_headline),
    ("sweep_structure", check_sweep_structure),
)


def run_checks(case, skip_oracle=False):
    """Run the full suite; returns a flat list of CheckResult."""
    results = []
    for name, fn in ACCEPTANCE_CHECKS:
        if name == "oracle" and skip_oracle:
            results.append(CheckResult("oracle_mean_force_slope", True, 0.0, 0.3, "SKIPPED"))
            continue
        out = fn(case)
        results.extend(out if isinstance(out, list) else [out])
    results.append(check_integrated_psd(case))
    return results


def run_validate(cfg):
    """The validate task of a `cli.RunConfig`: the checks on its qubit, or with
    break_detailed_balance only the injected-fault probe, which fails the run whether or
    not the guard rejects the skewed diagonal.  Writes the report to cfg.output and
    prints it; returns 0 when every check passed, else 1."""
    bath, op = cfg.bath_list()[0], cfg.couplings[0][0]  # op = x sigma_x + z sigma_z
    ohmic = isinstance(bath, OhmicBath)
    case = ReferenceCase(omega0=cfg.omega0, beta=cfg.beta, cutoff=bath.cutoff if ohmic else 50.0,
                         coupling_strength=bath.coupling if ohmic else 1.0, x=float(op[0, 1].real),
                         z=float(op[0, 0].real), config=cfg.quad)
    if cfg.break_detailed_balance:
        results = [CheckResult("steady_coherence_detailed_balance_precondition", False,
                               1.0, 0.0, check_detailed_balance_guard(case).detail)]
    else:
        results = run_checks(case, skip_oracle=cfg.skip_oracle)
    ok = all(r.passed for r in results)
    report = "".join(r.line() + "\n" for r in results) + (
        f"RESULT: {'PASS' if ok else 'FAIL'} ({sum(r.passed for r in results)}/{len(results)} checks)\n")
    with open(cfg.output, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report)
    print(report, end="")
    return 0 if ok else 1
