import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforce.cli import RunConfig, load_config, main, parse_config, read_corrections_csv
from meanforce.errors import ValidationError

BASE = {
    "task": "corrections",
    "system": {"tls": {"omega0": 1.0}},
    "couplings": [{"pauli": {"x": 0.7071067811865476, "z": 0.7071067811865476}, "bath": "b1"}],
    "baths": {"b1": {"type": "ohmic", "gamma_c": 1.0, "cutoff": 50.0}},
    "beta": 1.0,
    "lambda": 0.05,
}


def with_state(state):
    """Config edit: turn BASE into an evolve run from `state`."""
    return lambda c: c.update(task="evolve", evolve={"initial_state": state, "times": [1.0]})


# every optional section present, so that the fuzz reaches each field path
FULL_TLS = dict(
    BASE, task="evolve",
    evolve={"initial_state": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]], "times": [1.0]},
    baths={"b1": BASE["baths"]["b1"], "d": {"type": "discrete", "modes": [[1.0, 0.1], [2.0, 0.2]]}},
    sweep={"parameter": "omega0", "values": [0.5, 1.0]},
    validate={"skip_oracle": True, "break_detailed_balance": False},
    quadrature={"abs_tol": 1e-9, "rel_tol": 1e-8, "limit": 400},
    output="out.csv",
)
FULL_MATRIX = dict(
    FULL_TLS,
    system={"hamiltonian": [[[0.3, 0], [0.1, 0.05]], [[0.1, -0.05], [-0.4, 0]]]},
    couplings=[{"operator": [[[0.0, 0], [1.0, 0]], [[1.0, 0], [0.5, 0]]], "bath": "d"}],
)


def field_paths(obj, prefix=()):
    """Every key/index path into a JSON value, the root's children included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for k, v in items:
        yield prefix + (k,)
        yield from field_paths(v, prefix + (k,))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5) | st.builds(list) | st.builds(dict),
    lambda inner: st.lists(inner, min_size=1, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, min_size=1, max_size=4),
    max_leaves=12,
)


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = json.loads(json.dumps(BASE))
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "meanforce.cli", *args],
        capture_output=True, text=True, timeout=560,
    )


class TestConfigValidation:
    def test_missing_bath_reference(self):
        cfg = json.loads(json.dumps(BASE))
        cfg["couplings"][0]["bath"] = "nope"
        with pytest.raises(ValidationError, match=r"couplings\[0\].bath"):
            parse_config(cfg)

    def test_non_hermitian_hamiltonian(self):
        cfg = json.loads(json.dumps(BASE))
        cfg["system"] = {"hamiltonian": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(ValidationError, match="system.hamiltonian"):
            parse_config(cfg)

    def test_bad_sweep_values(self):
        cfg = json.loads(json.dumps(BASE))
        cfg["sweep"] = {"parameter": "omega0", "values": [1.0, -2.0]}
        with pytest.raises(ValidationError, match="sweep.values"):
            parse_config(cfg)

    def test_bad_bath_field(self):
        cfg = json.loads(json.dumps(BASE))
        cfg["baths"]["b1"]["cutoff"] = -5.0
        with pytest.raises(ValidationError, match="baths.b1.cutoff"):
            parse_config(cfg)

    def test_bad_task(self):
        cfg = json.loads(json.dumps(BASE))
        cfg["task"] = "plot"
        with pytest.raises(ValidationError, match="task"):
            parse_config(cfg)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': quotes\n}")
        with pytest.raises(ValidationError, match="line"):
            load_config(str(path))

    @pytest.mark.parametrize("edit, path", [
        pytest.param(lambda c: c.update(system={"tls": 1.0}), "system.tls", id="tls"),
        pytest.param(lambda c: c["baths"].update(b1=[1, 2]), "baths.b1", id="bath"),
        pytest.param(lambda c: c.update(couplings=[5]), r"couplings\[0\]", id="coupling"),
        pytest.param(lambda c: c["couplings"][0]["pauli"].update(x="a"),
                     r"couplings\[0\].pauli.x", id="pauli_weight"),
        pytest.param(lambda c: c.update(quadrature={"abs_tol": "tight"}), "quadrature.abs_tol",
                     id="abs_tol"),
        pytest.param(lambda c: c.update(beta=float("inf")), "beta", id="beta_inf"),
        pytest.param(lambda c: c.update({"lambda": float("nan")}), "lambda", id="lambda_nan"),
        pytest.param(lambda c: c.update(system={"tls": {"omega0": float("inf")}}),
                     "system.tls.omega0", id="omega0_inf"),
        pytest.param(lambda c: c["baths"]["b1"].update(gamma_c=float("inf")), "baths.b1.gamma_c",
                     id="gamma_c_inf"),
        pytest.param(lambda c: c["baths"]["b1"].update(cutoff=float("inf")), "baths.b1.cutoff",
                     id="cutoff_inf"),
        pytest.param(lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[1.0, float("inf")]]}),
                     "baths.b1.modes", id="mode_inf"),
        pytest.param(lambda c: c.update(beta=10**400), "beta", id="beta_huge_int"),
        pytest.param(lambda c: c.update(system={"hamiltonian": [[[1, 0]], [[1, 0], [0, 0]]]}),
                     "system.hamiltonian", id="ragged_matrix"),
        pytest.param(lambda c: c.update(output=None), "output", id="output_null"),
        pytest.param(lambda c: c.update(output=7), "output", id="output_int"),
        pytest.param(lambda c: c.update(output=""), "output", id="output_empty"),
        pytest.param(lambda c: c["couplings"][0].update(bath=["b1"]), r"couplings\[0\].bath",
                     id="bath_unhashable"),
        pytest.param(with_state([[[1 / 3, 0]] * 3] * 3), "evolve.initial_state", id="state_dimension"),
        pytest.param(with_state([[[0.5, 0], [0.3, 0]], [[0.1, 0], [0.5, 0]]]), "evolve.initial_state",
                     id="state_non_hermitian"),
        pytest.param(with_state([[[1.5, 0], [0, 0]], [[0, 0], [-0.5, 0]]]), "evolve.initial_state",
                     id="state_negative"),
        pytest.param(lambda c: c.update(couplings=[{"operator": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
                                                    "bath": "b1"}]),
                     r"couplings\[0\].operator", id="operator_non_hermitian"),
        pytest.param(lambda c: c.update(validate={"skip_oracle": "no"}), "validate.skip_oracle",
                     id="skip_oracle_string"),
        pytest.param(lambda c: c.update(validate={"skip_oracle": [0]}), "validate.skip_oracle",
                     id="skip_oracle_list"),
        pytest.param(lambda c: c.update(validate={"skip_oracle": None}), "validate.skip_oracle",
                     id="skip_oracle_null"),
        pytest.param(lambda c: c.update(validate={"break_detailed_balance": 1}),
                     "validate.break_detailed_balance", id="break_balance_int"),
        pytest.param(lambda c: c.update(validate={"break_detailed_balance": "false"}),
                     "validate.break_detailed_balance", id="break_balance_string"),
    ])
    def test_malformed_field_named(self, edit, path):
        cfg = json.loads(json.dumps(BASE))
        edit(cfg)
        with pytest.raises(ValidationError, match=path):
            parse_config(cfg)

    def test_pure_state_accepted(self):
        cfg = json.loads(json.dumps(BASE))
        with_state([[[1.0, 0], [0, 0]], [[0, 0], [0, 0]]])(cfg)  # rank 1, eigenvalue 0
        assert parse_config(cfg).initial_state.shape == (2, 2)

    @settings(max_examples=300, deadline=None)
    @given(base=st.sampled_from([FULL_TLS, FULL_MATRIX]), data=st.data(), value=JSON_VALUES)
    def test_fuzz_one_field(self, base, data, value):
        cfg = json.loads(json.dumps(base))
        path = data.draw(st.sampled_from(list(field_paths(cfg))))
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        try:
            assert isinstance(parse_config(cfg), RunConfig)
        except ValidationError:
            pass

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, sweep={"parameter": "omega0", "values": [1.0]},
                           output=str(tmp_path / "missing" / "out.csv"))
        assert main(["corrections", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(BASE).replace('"beta": 1.0', '"beta": Infinity'))
        assert main(["corrections", "--config", str(path)]) == 2
        assert "beta" in capsys.readouterr().err

    # JSON true/false are Python bools, and bool subclasses int: none is a number
    @pytest.mark.parametrize("edit, path", [
        pytest.param(lambda c: c.update(beta=True), "beta", id="beta"),
        pytest.param(lambda c: c.update({"lambda": True}), "lambda", id="lambda"),
        pytest.param(lambda c: c.update(system={"tls": {"omega0": True}}), "system.tls.omega0",
                     id="omega0"),
        pytest.param(lambda c: c["baths"]["b1"].update(gamma_c=True), "baths.b1.gamma_c", id="gamma_c"),
        pytest.param(lambda c: c["baths"]["b1"].update(cutoff=True), "baths.b1.cutoff", id="cutoff"),
        pytest.param(lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[True, 0.1]]}),
                     "baths.b1.modes", id="mode_frequency"),
        pytest.param(lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[1.0, False]]}),
                     "baths.b1.modes", id="mode_coupling"),
        pytest.param(lambda c: c["couplings"][0]["pauli"].update(x=True), r"couplings[0].pauli.x",
                     id="pauli_x"),
        pytest.param(lambda c: c["couplings"][0]["pauli"].update(y=False), r"couplings[0].pauli.y",
                     id="pauli_y"),
        pytest.param(lambda c: c.update(quadrature={"abs_tol": True}), "quadrature.abs_tol", id="abs_tol"),
        pytest.param(lambda c: c.update(quadrature={"rel_tol": True}), "quadrature.rel_tol", id="rel_tol"),
        pytest.param(lambda c: c.update(quadrature={"limit": True}), "quadrature.limit", id="limit"),
        pytest.param(lambda c: c.update(sweep={"parameter": "omega0", "values": [True]}), "sweep.values",
                     id="sweep_values"),
        pytest.param(lambda c: with_state([[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]])(c)
                     or c["evolve"].update(times=[True, False]), "evolve.times", id="evolve_times"),
    ])
    def test_boolean_is_not_a_number(self, tmp_path, capsys, edit, path):
        cfg = json.loads(json.dumps(BASE))
        cfg.update(sweep={"parameter": "omega0", "values": [1.0]}, output=str(tmp_path / "out.csv"))
        edit(cfg)
        config = tmp_path / "bool.json"
        config.write_text(json.dumps(cfg))
        assert main([cfg["task"], "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert not (tmp_path / "out.csv").exists()


@pytest.fixture(scope="module")
def csv_pair(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corr")
    cfg = write_config(tmp, sweep={"parameter": "omega0", "values": [0.5, 1.0, 2.0]},
                       output=str(tmp / "a.csv"))
    assert main(["corrections", "--config", cfg]) == 0
    assert main(["corrections", "--config", cfg, "--out", str(tmp / "b.csv")]) == 0
    return (tmp / "a.csv").read_bytes(), (tmp / "b.csv").read_bytes(), str(tmp / "a.csv")


class TestCorrectionsTask:
    def test_byte_determinism(self, csv_pair):
        a, b, _ = csv_pair
        assert a == b

    def test_row_count_and_header(self, csv_pair):
        a, _, _ = csv_pair
        lines = a.decode().split("\n")
        assert lines[0] == "sweep_value,coefficient_name,correction_kind,value_re,value_im"
        assert len([l for l in lines if l]) == 1 + 3 * 3 * 4  # header + points*names*kinds

    def test_structural_relations(self, csv_pair):
        _, _, path = csv_pair
        rows = read_corrections_csv(path)
        bw0s = sorted({k[0] for k in rows})
        scale = max(abs(v) for v in rows.values())
        for b in bw0s:
            assert rows[(b, "st_redfield", "diag_diff")] == 0.0
            assert abs(rows[(b, "mf", "offdiag_im")]) <= 1e-10 * scale
            assert abs(rows[(b, "st_redfield", "offdiag_re")]
                       - rows[(b, "mf", "offdiag_re")]) <= 1e-7
        assert max(abs(rows[(b, "dyn", "offdiag_im")]) for b in bw0s) > 1e-3 * scale

    def test_threads_flag_accepted_without_effect(self, tmp_path, csv_pair):
        a, _, _ = csv_pair
        cfg = write_config(tmp_path, sweep={"parameter": "omega0", "values": [0.5, 1.0, 2.0]},
                           output=str(tmp_path / "p.csv"))
        assert main(["corrections", "--config", cfg, "--threads", "2"]) == 0
        assert (tmp_path / "p.csv").read_bytes() == a

    def test_quadrature_limit_reaches_workers(self, tmp_path, capsys):
        # limit 10 cannot resolve the spectral integrals at beta*w0 = 1
        cfg = write_config(tmp_path, sweep={"parameter": "omega0", "values": [1.0]},
                           quadrature={"limit": 10}, output=str(tmp_path / "lim.csv"))
        assert main(["corrections", "--config", cfg]) == 0
        rows = (tmp_path / "lim.csv").read_text().strip().split("\n")[1:]
        assert rows and all(r.endswith(",nan,nan") for r in rows)
        assert "warning: sweep value 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--threads", "0"), ("--tol-abs", "-1"),
                                             ("--tol-abs", "0"), ("--tol-rel", "nan"),
                                             ("--tol-abs", "inf")])
    def test_bad_argument_rejected(self, tmp_path, capsys, flag, value):
        assert main(["corrections", "--config", write_config(tmp_path), flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_general_system_emits_full_table(self, tmp_path):
        cfg = write_config(
            tmp_path,
            system={"hamiltonian": [[[0.3, 0], [0.1, 0.05]], [[0.1, -0.05], [-0.4, 0]]]},
            couplings=[{"operator": [[[0.0, 0], [1.0, 0]], [[1.0, 0], [0.5, 0]]], "bath": "b1"}],
            output=str(tmp_path / "gen.csv"),
        )
        assert main(["corrections", "--config", cfg]) == 0
        text = (tmp_path / "gen.csv").read_text()
        assert "Y[0;0;" in text
        assert "st_redfield" in text


@pytest.fixture(scope="module")
def evolve_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("evolve")
    cfg = write_config(
        tmp, task="evolve",
        evolve={
            "initial_state": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]],
            "times": [0.0, 5.0, 40.0, 400.0],
            "equations": ["cumulant", "davies"],
        },
        output=str(tmp / "ev.csv"),
    )
    assert main(["evolve", "--config", cfg]) == 0
    return str(tmp / "ev.csv")


class TestEvolveTask:
    def test_rows(self, evolve_csv):
        with open(evolve_csv) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        idx = {name: i for i, name in enumerate(header)}
        by_kind = {}
        for r in rows:
            by_kind.setdefault(r[idx["equation"]], []).append(r)
        for kind, krows in by_kind.items():
            # trace column is 1 to rounding
            for r in krows:
                assert abs(float(r[idx["trace_re"]]) - 1.0) <= 1e-12
            # t = 0 reproduces the input state
            first = krows[0]
            assert float(first[idx["t"]]) == 0.0
            assert float(first[idx["rho_00_re"]]) == pytest.approx(0.6, abs=1e-12)
            assert float(first[idx["rho_01_re"]]) == pytest.approx(0.1, abs=1e-12)

        def coh(kind, k):
            r = by_kind[kind][k]
            return abs(complex(float(r[idx["rho_01_re"]]), float(r[idx["rho_01_im"]])))

        # davies coherence decays towards zero; cumulant stays well above it
        assert coh("davies", 3) < coh("davies", 1) < coh("davies", 0)
        assert coh("cumulant", 3) > 3.0 * coh("davies", 3)

    def test_positivity_column_for_cumulant(self, evolve_csv):
        with open(evolve_csv) as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        idx = {name: i for i, name in enumerate(header)}
        for r in rows:
            if r[idx["equation"]] == "cumulant":
                assert float(r[idx["min_eigenvalue"]]) >= -1e-10


class TestSteadyStateTask:
    def test_rows(self, tmp_path):
        cfg = write_config(tmp_path, task="steadystate", output=str(tmp_path / "ss.csv"))
        assert main(["steadystate", "--config", cfg]) == 0
        text = (tmp_path / "ss.csv").read_text().strip().split("\n")
        kinds = [line.split(",")[0] for line in text[1:]]
        assert kinds == ["davies", "redfield", "mean_force_gibbs"]
        davies = text[1].split(",")
        # davies coherence is exactly zero
        assert float(davies[3]) == 0.0 and float(davies[4]) == 0.0


class TestValidateTask:
    def test_broken_detailed_balance_exits_nonzero(self, tmp_path):
        cfg = write_config(tmp_path, task="validate",
                           validate={"break_detailed_balance": True},
                           output=str(tmp_path / "report.txt"))
        r = run_cli("validate", "--config", cfg)
        assert r.returncode == 1
        report = (tmp_path / "report.txt").read_text()
        assert "steady_coherence_detailed_balance_precondition: FAIL" in report
        assert "rejected as required" in report

    def test_task_mismatch(self, tmp_path):
        cfg = write_config(tmp_path)
        r = run_cli("evolve", "--config", cfg)
        assert r.returncode == 2
        assert "does not match" in r.stderr

    def test_bad_config_path(self):
        r = run_cli("validate", "--config", "/nonexistent.json")
        assert r.returncode != 0


LAZY_QAWO = """
import sys
import meanforce.cli
loaded = "scipy.integrate" in sys.modules
from meanforce.bath import OhmicBath, correlation_time_domain
value = correlation_time_domain(OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0), 1.0)
print(loaded, "scipy.integrate" in sys.modules, repr(value))
"""


def test_start_up_defers_scipy_integrate():
    # only the t != 0 QAWO branch of correlation_time_domain loads scipy.integrate
    from meanforce.bath import OhmicBath, correlation_time_domain

    r = subprocess.run([sys.executable, "-c", LAZY_QAWO], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    at_import, after_call, value = r.stdout.split(maxsplit=2)
    assert (at_import, after_call) == ("False", "True")
    assert complex(value) == correlation_time_domain(OhmicBath(beta=1.0, coupling=1.0, cutoff=50.0), 1.0)


def test_start_up_loads_no_process_pool():
    # the sweep runs in one process, so the CLI needs no worker machinery
    code = "import sys, meanforce.cli; print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
