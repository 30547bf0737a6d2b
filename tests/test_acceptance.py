"""Acceptance suite: one test per criterion, each printing its PASS/FAIL line.

Criterion 8 (headline reconciliation) is implemented faithfully and is a known
honest failure: the exact cumulant map loses its steady coherence algebraically
at long times instead of holding the mean-force value, because the
time-integrated generator is secular (Davies-like) at long times.  The measured
numbers are printed in the check's detail string; every other criterion passes
at its stated tolerance.
"""

import json
import math

from meanforce import bath, corrections
from meanforce.cli import main as cli_main
from meanforce.cli import read_corrections_csv
from meanforce.validation import (
    ReferenceCase,
    check_steady_coherence_identities,
    check_cumulant_cptp,
    check_detailed_balance_guard,
    check_dual_form,
    check_sweep_structure,
    check_fourth_order,
    check_headline,
    check_integrated_psd,
    check_oracle_scaling,
    check_second_order_residual,
    check_generator_agreement,
    qubit_sweep_point,
    SWEEP_BW0,
    SWEEP_KINDS,
    SWEEP_NAMES,
)

CASE = ReferenceCase()


def report(results):
    results = results if isinstance(results, list) else [results]
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(r.line() for r in failed)


def test_criterion_1_dual_form_mean_force():
    report(check_dual_form(CASE))


def test_criterion_2_steady_coherence_identities():
    report(check_steady_coherence_identities(CASE))


def test_criterion_2_sees_an_error_in_the_lamb_shift(monkeypatch):
    # the Redfield coherences read S(w); the kernel mean force they are compared with does not,
    # so S(w) off by a relative 1e-6 must fail the claim-(ii) check
    lamb_shifts = bath._lamb_shifts

    def skewed(*args):
        values, failed = lamb_shifts(*args)
        return values * (1.0 + 1e-6), failed

    for module in (bath, corrections):
        monkeypatch.setattr(module, "_lamb_shifts", skewed)
    redfield = check_steady_coherence_identities(CASE)[0]
    assert redfield.name == "steady_coherences_redfield_vs_mean_force"
    assert not redfield.passed, redfield.line()


def test_criterion_3_second_order_residual():
    report(check_second_order_residual(CASE))


def test_criterion_4_fourth_order_tls():
    report(check_fourth_order(CASE))


def test_criterion_5_cumulant_cptp():
    report(check_cumulant_cptp(CASE))


def test_criterion_6_generator_agreement_slope():
    report(check_generator_agreement(CASE))


def test_criterion_7_exact_bath_oracle():
    report(check_oracle_scaling(CASE))


def test_criterion_8_headline_reconciliation():
    # faithful implementation of the criterion as stated; see module docstring
    report(check_headline(CASE))


def test_criterion_9_sweep_structure(tmp_path):
    # drive the check through the CLI CSV, as the criterion is worded
    cfg = {
        "task": "corrections",
        "system": {"tls": {"omega0": 1.0}},
        "couplings": [{"pauli": {"x": 0.7071067811865476, "z": 0.7071067811865476},
                       "bath": "b1"}],
        "baths": {"b1": {"type": "ohmic", "gamma_c": 1.0, "cutoff": 50.0}},
        "beta": 1.0,
        "output": str(tmp_path / "sweep.csv"),
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    assert cli_main(["corrections", "--config", str(path)]) == 0
    csv_rows = read_corrections_csv(str(tmp_path / "sweep.csv"))
    rows = {k: v for k, v in csv_rows.items()}
    report(check_sweep_structure(CASE, rows=rows))


def test_sweep_structure_fails_on_nan_rows():
    # a sweep point whose integral failed is written as nan rows; every
    # structural check must fail on it, also when it is not the first point
    bw0s = SWEEP_BW0[::4]
    values, failures = qubit_sweep_point(CASE.bath(), [b / CASE.beta for b in bw0s],
                                         CASE.coupling_strength, CASE.config)
    assert failures == [None] * len(bw0s)
    rows = {(bw0, kind, name): v for bw0, point in zip(bw0s, values.tolist())
            for kind, row in zip(SWEEP_KINDS, point) for name, v in zip(SWEEP_NAMES, row)}
    report(check_sweep_structure(CASE, rows=rows))
    third = SWEEP_BW0[8]
    rows.update({k: math.nan for k in rows if k[0] == third})
    results = check_sweep_structure(CASE, rows=rows)
    assert len(results) == 3
    assert not any(r.passed for r in results)
    assert all(math.isnan(r.measured) for r in results)


def test_supporting_invariants():
    report([check_integrated_psd(CASE), check_detailed_balance_guard(CASE)])
