import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanforce import bath as mb
from meanforce._quad import QuadratureConfig
from meanforce.cli import RunConfig, load_config, main, parse_config, read_corrections_csv
from meanforce.corrections import build_upsilon_table
from meanforce.errors import ValidationError
from meanforce.operators import UpsilonTable, _stacked_jumps, stacked_tables

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

# d=3, H0 = diag(0, 1, 3), couplings |0><1| + |1><0| + 0.3|0><0| and
# |0><2| + |2><0| + 0.3|0><0|; bath ids "b" and "c" have equal parameters
OHMIC = {"type": "ohmic", "gamma_c": 1.0, "cutoff": 50.0}
THREE_LEVEL = {
    "task": "evolve",
    "system": {"hamiltonian": [[[0, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]],
                               [[0, 0], [0, 0], [3, 0]]]},
    "couplings": [
        {"operator": [[[0.3, 0], [1, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]],
         "bath": "b"},
        {"operator": [[[0.3, 0], [0, 0], [1, 0]], [[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 0], [0, 0]]],
         "bath": "b"},
    ],
    "baths": {"b": OHMIC, "c": OHMIC},
    "beta": 1.0,
    "lambda": 0.05,
    "evolve": {"initial_state": [[[0.5, 0], [0.1, 0], [0, 0]], [[0.1, 0], [0.3, 0], [0, 0]],
                                 [[0, 0], [0, 0], [0.2, 0]]],
               "times": [7.0], "equations": ["cumulant", "redfield", "davies"]},
}


def three_level(task, second_bath):
    """THREE_LEVEL as a `task` run with the second coupling on bath id `second_bath`."""
    cfg = json.loads(json.dumps(THREE_LEVEL))
    cfg["task"] = task
    cfg["couplings"][1]["bath"] = second_bath
    return cfg


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
        pytest.param(lambda c: c.update(quadrature={"abs_tol": 2**1024}), "quadrature.abs_tol",
                     id="abs_tol_2_1024"),
        pytest.param(lambda c: c.update(quadrature={"rel_tol": 2**1024}), "quadrature.rel_tol",
                     id="rel_tol_2_1024"),
        pytest.param(lambda c: c.update(system={"hamiltonian": [[[1, 0]], [[1, 0], [0, 0]]]}),
                     "system.hamiltonian", id="ragged_matrix"),
        pytest.param(lambda c: c.update(system={"hamiltonian": [[[float("nan"), 0], [0, 0]],
                                                                [[0, 0], [1, 0]]]}),
                     "system.hamiltonian: matrix has non-finite", id="hamiltonian_nan"),
        pytest.param(lambda c: c.update(couplings=[{"operator": [[[0, 0], [1, float("inf")]],
                                                                 [[1, 0], [0, 0]]],
                                                    "bath": "b1"}]),
                     r"couplings\[0\].operator: matrix has non-finite", id="operator_inf"),
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

    # a JSON integer of 2**64 is finite, as 2**63 is; 2**1024 is beyond the float range
    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    def test_tolerance_beyond_int64(self, field):
        assert getattr(parse_config(dict(BASE, quadrature={field: 2**64})).quad, field) == 2**64
        assert getattr(QuadratureConfig(**{field: 2**64}), field) == 2**64
        with pytest.raises(ValidationError, match="tolerances must be positive and finite"):
            QuadratureConfig(**{field: 2**1024})

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

    # both crashed with a traceback (exit 1): np.min of no values, and the qubit sweep's
    # and the validate checks' division by gamma_c
    @pytest.mark.parametrize("task, edit, path", [
        pytest.param("corrections", lambda c: c.update(sweep={"parameter": "omega0", "values": []}),
                     "sweep.values", id="empty_sweep"),
        pytest.param("corrections", lambda c: c["baths"]["b1"].update(gamma_c=0), "baths.b1.gamma_c",
                     id="sweep_gamma_c_0"),
        pytest.param("validate", lambda c: c["baths"]["b1"].update(gamma_c=0.0), "baths.b1.gamma_c",
                     id="validate_gamma_c_0"),
    ])
    def test_empty_sweep_and_zero_gamma_c_exit_2(self, tmp_path, capsys, task, edit, path):
        cfg = dict(json.loads(json.dumps(BASE)), task=task, output=str(tmp_path / "out.csv"))
        edit(cfg)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        assert main([task, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")
        assert not (tmp_path / "out.csv").exists()

    # each ended in a traceback and exit 1: an OverflowError at lambda**2, in a mode's
    # Bose factor e^{beta W} or in its atom weight 2 pi g^2 (n + 1), an SVD that did
    # not converge on a generator of infinite entries, and an Ohmic support radius
    # 40 max(cutoff, 1/beta) of inf in np.arange; a generator that overflows now ends
    # the run in assembly, and a density that overflows ends it in quadrature, with no
    # numpy RuntimeWarning on the way; beta = 1e300 ended in an OverflowError at beta**2
    # inside the mean-force kernel, and now meets the thermal-exponent guard first
    @pytest.mark.parametrize("task, edit, message", [
        pytest.param(task, edit, message, id=f"{name}-{task}")
        for name, edit, message, tasks in [
            ("lambda_square", lambda c: c.update({"lambda": 1e155}), "lambda:", ("steadystate", "evolve")),
            ("lambda_1e154", lambda c: c.update({"lambda": 1e154}), "generator is not finite",
             ("steadystate", "evolve")),
            ("pauli_x", lambda c: c["couplings"][0]["pauli"].update(x=1e154), "generator is not finite",
             ("steadystate", "evolve")),
            ("operator", lambda c: c.update(system=FULL_MATRIX["system"], couplings=[
                {"operator": [[[0.0, 0], [1e154, 0]], [[1e154, 0], [0.5, 0]]], "bath": "b1"}]),
             "generator is not finite", ("steadystate", "evolve")),
            ("mode_frequency", lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[1e300, 1.0]]}),
             "baths.b1.modes:", ("corrections", "steadystate", "evolve")),
            ("mode_coupling", lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[2.0, 1e300]]}),
             "baths.b1.modes:", ("corrections", "steadystate", "evolve")),
            ("cutoff_1e307", lambda c: c["baths"]["b1"].update(cutoff=1e307), "baths.b1.cutoff:",
             ("corrections", "steadystate", "evolve")),
            ("beta_1e-307", lambda c: c.update(beta=1e-307), "beta:", ("corrections", "steadystate", "evolve")),
            ("cutoff_1e306", lambda c: c["baths"]["b1"].update(cutoff=1e306), "integrand is not finite",
             ("steadystate", "evolve")),
            ("beta_1e300", lambda c: c.update(beta=1e300), "thermal exponent beta*w = ", ("steadystate",)),
        ]
        for task in tasks
    ])
    def test_extreme_finite_input_exits_2(self, tmp_path, capsys, task, edit, message):
        cfg = dict(json.loads(json.dumps(BASE)), task=task, output=str(tmp_path / "out.csv"))
        if task == "evolve":
            cfg["evolve"] = {"initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]], "times": [1.0]}
        edit(cfg)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([task, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out.csv").exists()
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("cfg", [
        pytest.param(dict(BASE, task="steadystate"), id="steadystate"),
        pytest.param(dict(BASE, task="evolve", evolve={"initial_state": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                                                       "times": [1.0]}), id="evolve"),
        pytest.param(three_level("corrections", "b"), id="table"),
    ])
    def test_zero_gamma_c_accepted_elsewhere(self, cfg):
        cfg = json.loads(json.dumps(cfg))
        for b in cfg["baths"].values():
            b["gamma_c"] = 0
        assert parse_config(cfg).bath_list()[0].coupling == 0

    # a present evolve section is checked on every task, as sweep and validate are
    @pytest.mark.parametrize("task", ["corrections", "steadystate", "validate"])
    @pytest.mark.parametrize("section, path", [
        pytest.param({"times": "bad"}, "evolve.times", id="times"),
        pytest.param([1.0], "evolve", id="not_object"),
        pytest.param({"initial_state": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]], "times": [1.0],
                      "equations": ["bogus"]}, "evolve.equations", id="equation"),
    ])
    def test_evolve_section_checked_on_every_task(self, tmp_path, capsys, task, section, path):
        cfg = write_config(tmp_path, task=task, evolve=section, output=str(tmp_path / "out.csv"))
        assert main([task, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("task", ["corrections", "steadystate", "validate"])
    def test_evolve_section_optional_off_evolve(self, task):
        cfg = dict(BASE, task=task)
        assert parse_config(cfg).initial_state is None
        state = [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]]
        assert parse_config(dict(cfg, evolve={"initial_state": state, "times": [1.0]})).evolve_times == [1.0]
        with pytest.raises(ValidationError, match="^evolve: required"):
            parse_config(dict(cfg, task="evolve"))


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
        # S(w) at beta*w = 1 starts its paired window from 13 ladder intervals: at abs and
        # rel 1e-12 it must bisect, past limit 10 (down to rel_tol 1e-11 every integral of
        # this point converges on its first intervals)
        cfg = write_config(tmp_path, sweep={"parameter": "omega0", "values": [1.0]},
                           quadrature={"limit": 10, "abs_tol": 1e-12, "rel_tol": 1e-12},
                           output=str(tmp_path / "lim.csv"))
        assert main(["corrections", "--config", cfg]) == 0
        rows = (tmp_path / "lim.csv").read_text().strip().split("\n")[1:]
        assert rows and all(r.endswith(",nan,nan") for r in rows)
        assert "warning: sweep value 1" in capsys.readouterr().err

    def test_failed_point_alone(self, tmp_path, capsys, monkeypatch):
        # a density that is nan within 1e-6 of W = 1514.5, the centre node of the last
        # first-round interval of Y_mf(+-w0, +-w0) at w0 = 2 (the ladder edge 1024 to
        # support + 2 w0 + 1), fails those two integrals only; the batched sweep gives nan rows for that point
        # alone, and the other points' rows equal their one-point runs
        real, holed = mb.gamma_spectral, {}

        def with_hole(b):
            if b not in holed:
                m = real(b)
                holed[b] = dataclasses.replace(
                    m, density=lambda w: np.where(np.abs(w - 1514.5) < 1e-6, np.nan, m.density(w)))
            return holed[b]

        monkeypatch.setattr(mb, "gamma_spectral", with_hole)

        def run(values, name):
            cfg = write_config(tmp_path, sweep={"parameter": "omega0", "values": values},
                               output=str(tmp_path / name))
            assert main(["corrections", "--config", cfg]) == 0
            return (tmp_path / name).read_text().strip().split("\n")[1:]

        rows = run([0.5, 1.0, 2.0], "all.csv")
        err = capsys.readouterr().err
        assert "warning: sweep value 2: integrand is not finite" in err
        assert "sweep value 0.5" not in err and "sweep value 1:" not in err
        assert len(rows) == 36 and all(r.endswith(",nan,nan") for r in rows[24:])
        assert rows[:12] == run([0.5], "half.csv")
        assert rows[12:24] == run([1.0], "one.csv")

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

    # a sweep only applies to the qubit path; elsewhere it would be silently dropped
    @pytest.mark.parametrize("edit", [
        pytest.param(lambda c: c.update(
            system={"hamiltonian": [[[float(i == j) * (0.0, 1.0, 2.5, 4.0)[i], 0] for j in range(4)]
                                    for i in range(4)]},
            couplings=[{"operator": [[[1.0 if abs(i - j) == 1 else 0.0, 0] for j in range(4)]
                                     for i in range(4)], "bath": "b1"}]), id="d4_hamiltonian"),
        pytest.param(lambda c: c.update(baths={"b1": {"type": "discrete", "modes": [[1.0, 0.1]]}}),
                     id="tls_discrete_bath"),
        pytest.param(lambda c: c.update(couplings=[c["couplings"][0], {"pauli": {"z": 1.0}, "bath": "b1"}]),
                     id="tls_two_couplings"),
    ])
    def test_sweep_on_table_path_exits_2(self, tmp_path, capsys, edit):
        cfg = json.loads(json.dumps(BASE))
        cfg.update(sweep={"parameter": "omega0", "values": [0.5, 1.0]}, output=str(tmp_path / "t.csv"))
        edit(cfg)
        with pytest.raises(ValidationError, match="^sweep:"):
            parse_config(cfg)
        del cfg["sweep"]
        assert not parse_config(cfg).is_qubit_sweep
        cfg["sweep"] = {"parameter": "omega0", "values": [0.5, 1.0]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        assert main(["corrections", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: sweep:")
        assert not (tmp_path / "t.csv").exists()

    def test_qubit_sweep_decides_both_paths(self):
        assert parse_config(BASE).is_qubit_sweep
        assert not parse_config(three_level("corrections", "b")).is_qubit_sweep


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

    def test_non_finite_cumulant_exits_2(self, tmp_path, capsys, monkeypatch):
        import meanforce.generators as mg
        from meanforce.generators import Superoperator

        nan = Superoperator(2, np.full((4, 4), np.nan, dtype=complex))
        monkeypatch.setattr(mg, "build_cumulant_exponent", lambda *args: nan)
        cfg = write_config(tmp_path, task="evolve", output=str(tmp_path / "ev.csv"), evolve={
            "initial_state": [[[0.6, 0], [0.1, 0]], [[0.1, 0], [0.4, 0]]],
            "times": [1.0], "equations": ["cumulant"]})
        assert main(["evolve", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "ev.csv").exists()


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


class TestBathIdentity:
    """Bath ids name baths: two ids of equal parameters are two independent baths."""

    @staticmethod
    def _run(tmp_path, task, second_bath):
        path = tmp_path / f"{task}_{second_bath}.json"
        path.write_text(json.dumps(three_level(task, second_bath)))
        out = tmp_path / f"{task}_{second_bath}.csv"
        assert main([task, "--config", str(path), "--out", str(out)]) == 0
        return out.read_text()

    def test_two_ids_parse_to_two_baths(self):
        baths = parse_config(three_level("evolve", "c")).bath_list()
        assert baths[0] == baths[1]

        def cross_shared(second_bath):
            cfg = parse_config(three_level("evolve", second_bath))
            zero = lambda bath, freqs: np.zeros((len(freqs), len(freqs)))
            coupling, freqs, _ = _stacked_jumps(cfg.jump_list())
            return stacked_tables(coupling, freqs, cfg.bath_list(), zero)[1][0, -1]

        assert not cross_shared("c")
        assert cross_shared("b")

    def test_evolve_differs_from_one_bath(self, tmp_path):
        assert self._run(tmp_path, "evolve", "c") != self._run(tmp_path, "evolve", "b")

    def test_corrections_cross_bath_blocks_are_zero(self, tmp_path):
        def cross(text):
            values = []
            for line in text.strip().split("\n")[1:]:
                _, name, _, re, im = line.split(",")
                a, b = name[2:].split(";")[:2]
                if a != b:
                    values.append(complex(float(re), float(im)))
            return values

        one = cross(self._run(tmp_path, "corrections", "b"))
        two = cross(self._run(tmp_path, "corrections", "c"))
        assert max(map(abs, one)) > 0
        assert all(v == 0 for v in two)


class TestTableFromArrays:
    """The table path writes its CSV and H_mf from the table arrays, never from `entries`."""

    @pytest.mark.parametrize("task", ["corrections", "steadystate"])
    def test_entries_view_never_built(self, tmp_path, monkeypatch, task):
        def refuse(table):
            raise AssertionError("entries view built")

        monkeypatch.setattr(UpsilonTable, "entries", property(refuse))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(three_level(task, "b")))
        assert main([task, "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 0

    @pytest.mark.parametrize("second_bath", ["b", "c"])
    def test_table_csv_rows_are_sorted_entries(self, tmp_path, second_bath):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(three_level("corrections", second_bath)))
        assert main(["corrections", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 0
        cfg = parse_config(three_level("corrections", second_bath))
        fmt = lambda x: "%.12g" % x
        expect = ["sweep_value,coefficient_name,correction_kind,value_re,value_im"]
        for kind, table_kind in (("mf", "mean_force"), ("dyn", "dynamical"), ("st_redfield", "steady_state")):
            table = build_upsilon_table(table_kind, cfg.jump_list(), cfg.bath_list())
            expect += [f"0,Y[{a};{b};{fmt(w)};{fmt(wp)}],{kind},{fmt(v.real)},{fmt(v.imag)}"
                       for (a, b, w, wp), v in sorted(table.entries.items())]
        assert (tmp_path / "t.csv").read_text() == "\n".join(expect) + "\n"


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


NO_SCIPY = """
import json, sys
import meanforce.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

loaded = [scipy_modules()]
for args in json.loads(sys.argv[1]):
    code = meanforce.cli.main(args)
    loaded.append([code] + scipy_modules())
print(json.dumps(loaded))
"""


def test_tasks_load_no_scipy(tmp_path):
    # numpy alone runs corrections (the qubit sweep and the coefficient table),
    # steadystate and evolve (the cumulant exponential included)
    configs = {
        "sweep": dict(BASE, sweep={"parameter": "omega0", "values": [0.5, 1.0]}),
        "table": three_level("corrections", "b"),
        "steady": dict(BASE, task="steadystate"),
        "evolve": dict(three_level("evolve", "c"), evolve=dict(THREE_LEVEL["evolve"], times=[0.5, 7.0])),
    }
    runs = []
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([cfg["task"], "--config", str(tmp_path / f"{name}.json"),
                     "--out", str(tmp_path / f"{name}.csv")])
    r = subprocess.run([sys.executable, "-c", NO_SCIPY, json.dumps(runs)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[]] + [[0]] * len(runs)


NUMPY_EXTRAS = """
import json, sys
import meanforce.cli

def extras():
    return sorted(m for m in sys.modules if m.split(".")[:2] in (["numpy", "ma"], ["numpy", "polynomial"]))

loaded = [extras()]
for args in json.loads(sys.argv[1]):
    code = meanforce.cli.main(args)
    loaded.append([code] + extras())
print(json.dumps(loaded))
"""


def test_benchmark_runs_load_no_numpy_ma_or_polynomial(tmp_path):
    # the seed-0 sweep, steady and evolve runs of perfbench/workloads.py: np.unique
    # without return_inverse imports numpy.ma, leggauss numpy.polynomial
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for name in ("qubit_sweep", "steady_d4", "evolve_d4"):
        cfg = workloads.make_config(name, 0, str(tmp_path / f"{name}.csv"))
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([cfg["task"], "--config", str(tmp_path / f"{name}.json")])
    r = subprocess.run([sys.executable, "-c", NUMPY_EXTRAS, json.dumps(runs)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[]] + [[0]] * len(runs)


VALIDATION_LOADED = """
import json, sys
import meanforce.cli

loaded = ["meanforce.validation" in sys.modules]
for args in json.loads(sys.argv[1]):
    code = meanforce.cli.main(args)
    loaded.append([code, "meanforce.validation" in sys.modules])
print(json.dumps(loaded))
"""


def test_benchmark_runs_leave_the_check_suite_unloaded(tmp_path):
    # only the validate task imports meanforce.validation; the seed-0 sweep, steady
    # and evolve runs of perfbench/workloads.py never compile it
    import importlib.util
    from pathlib import Path

    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = []
    for name in ("qubit_sweep", "steady_d4", "evolve_d4"):
        cfg = workloads.make_config(name, 0, str(tmp_path / f"{name}.csv"))
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
        runs.append([cfg["task"], "--config", str(tmp_path / f"{name}.json")])
    probe = write_config(tmp_path, "probe.json", task="validate", validate={"break_detailed_balance": True},
                         output=str(tmp_path / "report.txt"))
    runs.append(["validate", "--config", probe])
    r = subprocess.run([sys.executable, "-c", VALIDATION_LOADED, json.dumps(runs)],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    # the validate run prints its report before the last line
    assert json.loads(r.stdout.splitlines()[-1]) == [False, [0, False], [0, False], [0, False], [1, True]]


QUTRIT_PROBE = dict(three_level("validate", "b"), couplings=THREE_LEVEL["couplings"][:1])


class TestValidateSystem:
    """The validate checks run on the config's qubit: omega0 from system.tls, x and z
    from the first coupling's pauli weights; any other system or coupling exits 2."""

    @pytest.mark.parametrize("edit, path", [
        (lambda c: c.update(QUTRIT_PROBE), "system.hamiltonian"),
        (lambda c: c["couplings"][0].update(pauli=None, operator=[[[1, 0], [1, 0]], [[1, 0], [-1, 0]]]),
         "couplings[0].operator"),
        (lambda c: c["couplings"][0]["pauli"].update(y=0.1), "couplings[0].pauli.y"),
        (lambda c: c["couplings"][0].update(pauli={"x": 1.0}), "couplings[0].pauli"),
        (lambda c: c["couplings"][0].update(pauli={"z": 1.0}), "couplings[0].pauli"),
        (lambda c: c["couplings"][0].update(pauli={"x": 0.0, "z": 1.0}), "couplings[0].pauli"),
        (lambda c: c["baths"].update(b1={"type": "discrete", "modes": [[1.0, 0.1]]}), "baths.b1.type"),
    ], ids=["qutrit", "operator", "y", "x_only", "z_only", "x_zero", "discrete_bath"])
    def test_other_system_exits_2(self, tmp_path, capsys, edit, path):
        cfg = json.loads(json.dumps(BASE))
        cfg.update(task="validate", output=str(tmp_path / "report.txt"))
        edit(cfg)
        if cfg["couplings"][0].get("pauli", 0) is None:
            del cfg["couplings"][0]["pauli"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["validate", "--config", str(tmp_path / "cfg.json"), "--skip-oracle"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert not (tmp_path / "report.txt").exists()

    def test_checks_read_the_config_qubit(self, tmp_path, monkeypatch):
        import meanforce.validation as mv

        cases = []
        monkeypatch.setattr(mv, "check_detailed_balance_guard",
                            lambda case: cases.append(case) or mv.CheckResult("guard", True, 1.0, 1.0, "probe"))
        cfg = write_config(tmp_path, task="validate", system={"tls": {"omega0": 1.5}},
                           couplings=[{"pauli": {"x": 0.6, "z": -0.8}, "bath": "b1"}],
                           validate={"break_detailed_balance": True}, output=str(tmp_path / "report.txt"))
        assert main(["validate", "--config", cfg]) == 1
        assert [(c.omega0, c.x, c.z) for c in cases] == [(1.5, 0.6, -0.8)]
