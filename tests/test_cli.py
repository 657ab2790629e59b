import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from illume import EnvironmentState, Scenario, perr_conventional
from illume.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_inline_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--p0", "0.5", "--eta", "0.6", "--spectrum", "0.5,0.3,0.2"
        )
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["perr_c"] == pytest.approx(0.26, abs=1e-12)
        assert data["perr_q"] == pytest.approx(0.5 - 0.3 * (28 / 31), abs=1e-12)
        assert err == ""

    def test_region_one_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--p0", "0.3", "--eta", "0.5", "--spectrum", "0.5,0.5"
        )
        data = json.loads(out)
        assert code == 0
        assert data["region_c"] == "I" and data["region_q"] == "I"
        assert data["perr_c"] == 0.3 and data["perr_q"] == 0.3

    def test_no_signal(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--p0", "0.7", "--eta", "0", "--spectrum", "0.5,0.5"
        )
        data = json.loads(out)
        assert data["perr_c"] == pytest.approx(0.3, abs=1e-12)
        assert data["perr_q"] == pytest.approx(0.3, abs=1e-12)

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"p0": 0.6, "eta": 0.08, "spectrum": [0.5, 0.3, 0.2]}))
        code, out, _ = run_cli(capsys, "solve", "--scenario", str(path))
        data = json.loads(out)
        assert code == 0
        assert (data["region_c"], data["region_q"]) == ("II", "III")

    def test_spectrum_normalization_within_tolerance(self, capsys):
        # hand-typed decimals that sum to 0.9999997 are accepted and renormalized
        code, out, _ = run_cli(
            capsys, "solve", "--p0", "0.5", "--eta", "0.6",
            "--spectrum", "0.4999997,0.3,0.2",
        )
        assert code == 0
        assert json.loads(out)["perr_c"] == pytest.approx(0.26, abs=1e-6)

    def test_bad_spectrum_is_input_error(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--p0", "0.5", "--eta", "0.6", "--spectrum", "0.9,0.3"
        )
        assert code == 2
        assert out == ""
        assert "spectrum" in err

    @pytest.mark.parametrize("spectrum", ["a,b", "", "0.5,,0.5"])
    def test_non_number_spectrum_is_input_error(self, capsys, spectrum):
        code, out, err = run_cli(
            capsys, "solve", "--p0", "0.5", "--eta", "0.6", "--spectrum", spectrum
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: spectrum must be comma-separated reals")

    @pytest.mark.parametrize("spectrum", ["nan,0.5,0.5", "0.5,nan,0.5,0.0"])
    def test_nan_spectrum_is_input_error(self, capsys, tmp_path, spectrum):
        code, out, err = run_cli(
            capsys, "solve", "--p0", "0.5", "--eta", "0.6", "--spectrum", spectrum
        )
        assert (code, out) == (2, "")
        assert "spectrum" in err
        path = tmp_path / "scenario.json"
        path.write_text('{"p0": 0.5, "eta": 0.6, "spectrum": [NaN, 0.5, 0.5]}')
        code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "finite" in err

    def test_nested_spectrum_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text('{"p0": 0.5, "eta": 0.6, "spectrum": [[0.5], [0.5]]}')
        code, out, err = run_cli(capsys, "solve", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "spectrum" in err

    def test_missing_flags(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--p0", "0.5")
        assert code == 2
        assert "--eta" in err and "--spectrum" in err

    def test_unreadable_scenario_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--scenario", str(tmp_path / "missing.json"))
        assert code == 2
        assert "cannot read" in err

    def test_invalid_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "solve", "--scenario", str(path))
        assert code == 2


class TestOptimalState:
    def test_uniform_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "optimal-state", "--spectrum", "0.25,0.25,0.25,0.25")
        data = json.loads(out)
        assert code == 0
        np.testing.assert_allclose(data["mu"], [0.5] * 4, atol=1e-12)

    def test_skew3_schmidt_squares(self, capsys):
        code, out, _ = run_cli(capsys, "optimal-state", "--spectrum", "0.5,0.3,0.2")
        data = json.loads(out)
        np.testing.assert_allclose(data["mu_sq"], [6 / 31, 10 / 31, 15 / 31], atol=1e-12)
        assert data["lambda_h"] == pytest.approx(3 / 31, abs=1e-12)
        assert data["conventional_probe_index"] == 2


class TestSweep:
    def write_spec(self, tmp_path, **extra):
        payload = {"p0_range": [0, 1, 101], "eta_range": [0, 1, 101], "spectrum": [0.5, 0.5]}
        payload.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return path

    def test_grid_row_count(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        out_csv = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv))
        assert code == 0
        assert out == ""  # payload goes to the file, stdout stays clean
        assert "sweep:" in err
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 10202
        assert lines[0] == "p0,eta,region_c,region_q,perr_c,perr_q,advantage"

    def test_byte_identical_reruns(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 21], eta_range=[0, 1, 21])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(a))[0] == 0
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_columns(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            p0_range=[0.3, 0.7, 3],
            eta_range=[0.3, 0.9, 3],
            oracle_cfg={"restarts": 6, "steps_per_restart": 600, "seed": 2, "tolerance": 1e-6},
        )
        out_csv = tmp_path / "oracle.csv"
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv), "--oracle")
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].endswith("oracle_perr_c,oracle_perr_q")
        for line in lines[1:]:
            parts = line.split(",")
            assert abs(float(parts[8]) - float(parts[5])) <= 1e-5
            assert abs(float(parts[7]) - float(parts[4])) <= 1e-5

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 2], eta_range=[0, 1, 2])
        code, _, err = run_cli(
            capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "no" / "dir.csv")
        )
        assert code == 3
        assert "I/O error" in err

    def test_malformed_spec(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"p0_range": [0, 1, 5], "spectrum": [0.5, 0.5]}))
        code, _, err = run_cli(capsys, "sweep", "--spec", str(path), "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_oversized_grid_is_input_error(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 100000], eta_range=[0, 1, 100000])
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert "cells" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("in_file", [True, False])
    def test_oversized_oracle_grid_is_input_error(self, capsys, tmp_path, in_file):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 65], eta_range=[0, 1, 64],
                               oracle=in_file)
        out_csv = tmp_path / "x.csv"
        argv = ("sweep", "--spec", str(spec), "--out", str(out_csv))
        code, out, err = run_cli(capsys, *argv, *([] if in_file else ["--oracle"]))
        assert (code, out) == (2, "")
        assert "oracle sweep grid has 4160 cells" in err
        assert not out_csv.exists()
        if not in_file:  # the same spec without --oracle runs
            assert run_cli(capsys, *argv)[0] == 0
            assert len(out_csv.read_text().splitlines()) == 4161

    @pytest.mark.parametrize("in_file", [True, False])
    def test_costly_oracle_sweep_is_input_error(self, capsys, tmp_path, in_file):
        # 4 cells, but each would run 10^9 restarts per search
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 2], eta_range=[0, 1, 2],
                               oracle=in_file, oracle_cfg={"restarts": 10**9})
        out_csv = tmp_path / "x.csv"
        argv = ("sweep", "--spec", str(spec), "--out", str(out_csv))
        code, out, err = run_cli(capsys, *argv, *([] if in_file else ["--oracle"]))
        assert (code, out) == (2, "")
        assert "oracle sweep grid has 4 cells" in err
        assert not out_csv.exists()

    def test_oracle_dimension_cap_is_input_error(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0.4, 0.6, 2], eta_range=[0.5, 0.7, 2],
                               spectrum=[1 / 17] * 17)
        out_csv = tmp_path / "x.csv"
        argv = ("sweep", "--spec", str(spec), "--out", str(out_csv))
        code, out, err = run_cli(capsys, *argv, "--oracle")
        assert (code, out) == (2, "")
        assert "oracle sweep needs environment dimension <= 16, got 17" in err
        assert not out_csv.exists()
        assert run_cli(capsys, *argv)[0] == 0  # the analytic sweep has no such cap

    def test_oracle_cfg_without_oracle_adds_no_columns(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0.4, 0.6, 2], eta_range=[0.5, 0.7, 2],
                               oracle_cfg={"restarts": 10**9})
        out_csv = tmp_path / "x.csv"
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv))[0] == 0
        assert out_csv.read_text().splitlines()[0].split(",")[-1] == "advantage"


    @pytest.mark.parametrize("steps", [2.7, "4", True])
    def test_non_integer_steps_is_input_error(self, capsys, tmp_path, steps):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, steps])
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert "steps must be an integer" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("flag", ["false", 1, None])
    def test_non_bool_oracle_flag_is_input_error(self, capsys, tmp_path, flag):
        # a truthy cast would start an oracle search on every grid cell
        spec = self.write_spec(tmp_path, p0_range=[0.4, 0.6, 2], eta_range=[0.5, 0.7, 2],
                               oracle=flag)
        out_csv = tmp_path / "x.csv"
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(out_csv))
        assert (code, out) == (2, "")
        assert "oracle must be true or false" in err
        assert not out_csv.exists()

    @pytest.mark.parametrize("field, value", [("initial_step", 0.5), ("shrink_factor", 0.9)])
    def test_removed_oracle_cfg_field_is_input_error(self, capsys, tmp_path, field, value):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 2], eta_range=[0, 1, 2], oracle=True,
                               oracle_cfg={"restarts": 1, "seed": 0, field: value})
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert f"unknown oracle_cfg fields: {field}" in err

    @pytest.mark.parametrize("cfg, message", [
        ({"steps_per_restart": 0}, "must be an integer >= 1"),
        ({"restarts": 1.5}, "must be an integer >= 1"),
        ({"seed": 1.5}, "must be an integer >= 0"),
        (5, "must be a JSON object"),
        ([1, 2], "must be a JSON object"),
    ])
    def test_invalid_oracle_cfg_is_input_error(self, capsys, tmp_path, cfg, message):
        spec = self.write_spec(tmp_path, p0_range=[0, 1, 2], eta_range=[0, 1, 2], oracle=True,
                               oracle_cfg=cfg)
        code, out, err = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
        assert (code, out) == (2, "")
        assert message in err

    def test_oracle_reruns_are_byte_identical(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, p0_range=[0.4, 0.6, 2], eta_range=[0.5, 0.7, 2],
                               oracle_cfg={"restarts": 2, "seed": 0})
        code, _, _ = run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "x.csv"),
                             "--oracle")
        assert code == 0
        assert run_cli(capsys, "sweep", "--spec", str(spec), "--out", str(tmp_path / "y.csv"),
                       "--oracle")[0] == 0
        assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()

class TestVerify:
    def test_lemma_suite(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "lemmas", "--seed", "7",
                                 "--trials", "400")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["violations"] == 0
        assert data["suites"][0]["suite"] == "lemmas"
        assert "lemmas" in err

    def test_montecarlo_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "montecarlo", "--seed", "3",
                               "--trials", "20000")
        assert code == 0
        data = json.loads(out)
        assert data["violations"] == 0
        assert len(data["suites"][0]["checks"]) == 20

    def test_violations_exit_one(self, capsys, monkeypatch):
        import illume.cli as cli_mod

        def fake_suite(seed, trials):
            return {"suite": "lemmas", "seed": seed,
                    "checks": [{"name": "x", "trials": 1, "violations": 1, "worst_margin": -1.0}],
                    "violations": 1}

        monkeypatch.setattr(cli_mod, "run_lemma_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "lemmas", "--trials", "1")
        assert code == 1
        assert json.loads(out)["violations"] == 1


    @pytest.mark.parametrize("suite", ["lemmas", "montecarlo", "all"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_input_error(self, capsys, monkeypatch, suite, trials):
        import illume.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("no suite may run")

        for name in ("run_lemma_suite", "run_oracle_suite", "run_montecarlo_suite"):
            monkeypatch.setattr(cli_mod, name, never)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--trials", trials)
        assert (code, out) == (2, "")
        assert "--trials" in err

    @pytest.mark.parametrize("suite", ["lemmas", "oracle", "montecarlo", "all"])
    def test_negative_seed_is_input_error(self, capsys, monkeypatch, suite):
        import illume.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("no suite may run")

        for name in ("run_lemma_suite", "run_oracle_suite", "run_montecarlo_suite"):
            monkeypatch.setattr(cli_mod, name, never)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: --seed must be >= 0, got -1"]

    def test_trials_default_only_when_absent(self, capsys, monkeypatch):
        import illume.cli as cli_mod

        seen = []

        def fake_suite(seed, trials="suite default"):
            seen.append(trials)
            return {"suite": "lemmas", "seed": seed, "checks": [], "violations": 0}

        monkeypatch.setattr(cli_mod, "run_lemma_suite", fake_suite)
        assert run_cli(capsys, "verify", "--suite", "lemmas")[0] == 0
        assert run_cli(capsys, "verify", "--suite", "lemmas", "--trials", "1")[0] == 0
        assert seen == ["suite default", 1]

    def test_trials_do_not_leak_into_the_next_call(self, capsys, monkeypatch):
        # main() reuses one parser per process; an earlier --trials must not stick
        import illume.cli as cli_mod

        seen = []

        def fake_suite(seed, trials="suite default"):
            seen.append(trials)
            return {"suite": "lemmas", "seed": seed, "checks": [], "violations": 0}

        monkeypatch.setattr(cli_mod, "run_lemma_suite", fake_suite)
        assert run_cli(capsys, "verify", "--suite", "lemmas", "--trials", "5")[0] == 0
        assert run_cli(capsys, "verify", "--suite", "lemmas")[0] == 0
        assert seen == [5, "suite default"]


class TestSimulate:
    def test_deterministic(self, capsys):
        args = ["simulate", "--p0", "0.5", "--eta", "0.6", "--spectrum", "0.5,0.3,0.2",
                "--mode", "quantum", "--trials", "20000", "--seed", "11"]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        data = json.loads(out_a)
        assert abs(data["empirical_perr"] - data["analytic_perr"]) <= 4 * data["std_error"]

    def test_default_conventional_probe(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--p0", "0.5", "--eta", "0.6",
                               "--spectrum", "0.5,0.3,0.2", "--mode", "conventional",
                               "--trials", "20000", "--seed", "2")
        assert code == 0
        data = json.loads(out)
        s = Scenario(0.5, 0.6, EnvironmentState([0.5, 0.3, 0.2]))
        assert data["analytic_perr"] == perr_conventional(s)
        assert abs(data["empirical_perr"] - data["analytic_perr"]) <= 4 * data["std_error"]

    def test_negative_seed_is_input_error(self, capsys, monkeypatch):
        import illume.cli as cli_mod

        def never(*args, **kwargs):
            raise AssertionError("no simulation may run")

        monkeypatch.setattr(cli_mod, "simulate_measurement", never)
        code, out, err = run_cli(capsys, "simulate", "--p0", "0.5", "--eta", "0.6",
                                 "--spectrum", "0.5,0.5", "--mode", "quantum", "--seed", "-3")
        assert (code, out) == (2, "")
        assert err.splitlines() == ["error: --seed must be >= 0, got -3"]

    def test_probe_file(self, capsys, tmp_path):
        probe = tmp_path / "probe.json"
        probe.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
        code, out, _ = run_cli(capsys, "simulate", "--p0", "0.5", "--eta", "0.6",
                               "--spectrum", "0.5,0.5", "--mode", "conventional",
                               "--trials", "50000", "--seed", "4",
                               "--probe-file", str(probe))
        assert code == 0
        data = json.loads(out)
        # any pure probe of I/2 achieves the optimum here
        assert abs(data["empirical_perr"] - 0.35) <= 4 * data["std_error"]

    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_probe_file_is_input_error(self, capsys, tmp_path, entry):
        probe = tmp_path / "probe.json"
        probe.write_text(f"[[1.0, 0.0], [{entry}, 0.0]]")
        code, out, err = run_cli(capsys, "simulate", "--p0", "0.5", "--eta", "0.6",
                                 "--spectrum", "0.5,0.5", "--mode", "conventional",
                                 "--probe-file", str(probe))
        assert (code, out) == (2, "")
        assert "normalized" in err

    @pytest.mark.parametrize("probe", [
        "[[true, 0], [0, 0]]", '[["1", 0], [0, 0]]', "{}", "[[1, 0], [0]]", "[[1, 0, 0]]",
    ])
    def test_non_number_probe_file_is_input_error(self, capsys, tmp_path, probe):
        path = tmp_path / "probe.json"
        path.write_text(probe)
        code, out, err = run_cli(capsys, "simulate", "--p0", "0.5", "--eta", "0.6",
                                 "--spectrum", "0.5,0.5", "--mode", "conventional",
                                 "--probe-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    def test_invalid_mode_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--p0", "0.5", "--eta", "0.5", "--spectrum", "0.5,0.5",
                  "--mode", "classical"])
        assert exc.value.code == 2


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Input-boundary property: every scenario or sweep spec file either exits 2
# with an empty stdout, or yields strict output whose numbers are all finite.
# ---------------------------------------------------------------------------

_MISSING = object()
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
_NUMBER = st.one_of(
    st.floats(-0.5, 1.5),
    st.sampled_from([0.0, 1.0, math.nan, math.inf, -math.inf]),
)
_FIELD = st.one_of(_NUMBER, _JUNK)
_BAD = st.one_of(st.just(_MISSING), _FIELD)


@st.composite
def _input_files(draw, kind):
    """A valid scenario or sweep spec with zero or more fields made bad."""
    d = draw(st.integers(1, 4))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=d, max_size=d))
    identity = [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]
    data = {"spectrum": [x / sum(raw) for x in raw], "basis": identity}
    bad = {
        "spectrum": st.one_of(_BAD, st.lists(_FIELD, max_size=4)),
        "basis": st.one_of(
            _BAD,
            st.just([[[1.0, 0.0]] * d] * d),  # rows not orthonormal for d >= 2
            st.lists(st.lists(st.lists(_FIELD, min_size=2, max_size=2),
                              min_size=d, max_size=d), min_size=d, max_size=d),
            st.lists(st.lists(_FIELD, max_size=3), max_size=3),
        ),
    }
    if kind == "scenario":
        data.update(p0=draw(st.floats(0.0, 1.0)), eta=draw(st.floats(0.0, 1.0)))
        bad.update(p0=_BAD, eta=_BAD)
    else:
        for key in ("p0_range", "eta_range"):
            data[key] = [0.0, draw(st.floats(0.0, 1.0)), draw(st.integers(2, 4))]
            bad[key] = st.one_of(
                _BAD,
                st.lists(_FIELD, min_size=3, max_size=3),
                st.tuples(_FIELD, st.just(1.0), st.integers(-1, 4)).map(list),
                st.tuples(st.just(0.0), st.just(1.0), _FIELD).map(list),
            )
        # an oracle_cfg is validated even when the (slow) oracle is off
        data["oracle_cfg"] = None
        bad["oracle_cfg"] = st.one_of(_FIELD, st.fixed_dictionaries(
            {}, optional={"restarts": _FIELD, "seed": _FIELD, "tolerance": _FIELD}))
    for key, strategy in bad.items():
        if draw(st.integers(0, 3)) == 0:
            data[key] = draw(strategy)
    return draw(st.one_of(st.just(data), st.just(data), st.just(data), _JUNK))


def _write_json(path, data):
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if v is not _MISSING}
    path.write_text(json.dumps(data))  # NaN and +-inf become NaN/Infinity tokens


def _run_quietly(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def _mistyped(data) -> bool:
    """A bool or a string where a number belongs, or a spectrum that is not a list.

    Such a file must exit 2 even where a cast would read it as a number.
    """
    if not isinstance(data, dict):
        return False
    spectrum = data.get("spectrum")
    if not isinstance(spectrum, list):
        return True
    slots = [data.get("p0"), data.get("eta"), *spectrum, *_leaves(data.get("basis"))]
    for key in ("p0_range", "eta_range"):
        if isinstance(data.get(key), list):
            slots += data[key][:2]
    if isinstance(data.get("oracle_cfg"), dict):
        slots += data["oracle_cfg"].values()
    return any(isinstance(x, (bool, str)) for x in slots)


def _reject_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


def _assert_finite(value):
    if isinstance(value, dict):
        for item in value.values():
            _assert_finite(item)
    elif isinstance(value, list):
        for item in value:
            _assert_finite(item)
    elif isinstance(value, float):
        assert math.isfinite(value)


class TestInputBoundaryProperty:
    @settings(max_examples=40, deadline=None)
    @given(data=_input_files("scenario"))
    @example(data={"p0": 0.5, "eta": 0.5, "spectrum": [1.0], "basis": {}})  # was a TypeError
    # bools, numeric strings and a non-list spectrum were cast to numbers (exit 0)
    @example(data={"p0": True, "eta": 0.5, "spectrum": [1.0]})
    @example(data={"p0": "0.5", "eta": 0.5, "spectrum": [1.0]})
    @example(data={"p0": 0.5, "eta": 0.5, "spectrum": "1"})
    @example(data={"p0": 0.5, "eta": 0.5, "spectrum": [True]})
    @example(data={"p0": 0.5, "eta": 0.5, "spectrum": {"0.5": 0, "0.50": 1}})
    @example(data={"p0": 0.5, "eta": 0.5, "spectrum": [1.0], "basis": [[[True, 0.0]]]})
    def test_scenario_file_exits_2_or_gives_finite_json(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "scenario.json"
        _write_json(path, data)
        code, out, err = _run_quietly("solve", "--scenario", str(path))
        if code == 2:
            assert out == "" and err.startswith("error: ")
            return
        assert code == 0 and not _mistyped(data)
        _assert_finite(json.loads(out, parse_constant=_reject_constant))

    @settings(max_examples=40, deadline=None)
    @given(data=_input_files("sweep"))
    # non-numeric range bounds were a TypeError traceback
    @example(data={"p0_range": [None, 1.0, 3], "eta_range": [0.0, 1.0, 2], "spectrum": [1.0]})
    @example(data={"p0_range": [0.0, 1.0, 3], "eta_range": [[0.0], 1.0, 2], "spectrum": [1.0]})
    # string and bool range bounds were cast to numbers (exit 0)
    @example(data={"p0_range": ["0", "1", 3], "eta_range": [0.0, 1.0, 2], "spectrum": [1.0]})
    @example(data={"p0_range": [0.0, 1.0, 3], "eta_range": [False, True, 2], "spectrum": [1.0]})
    @example(data={"p0_range": [0.0, 1.0, 2], "eta_range": [0.0, 1.0, 2], "spectrum": [1.0],
                   "oracle_cfg": {"tolerance": True}})
    def test_sweep_spec_exits_2_or_gives_finite_csv(self, tmp_path_factory, data):
        spec = tmp_path_factory.getbasetemp() / "spec.json"
        csv = tmp_path_factory.getbasetemp() / "out.csv"
        csv.unlink(missing_ok=True)
        _write_json(spec, data)
        code, out, err = _run_quietly("sweep", "--spec", str(spec), "--out", str(csv))
        assert out == ""
        if code == 2:
            assert err.startswith("error: ") and not csv.exists()
            return
        assert code == 0 and not _mistyped(data)
        header, *rows = csv.read_text().splitlines()
        assert header == "p0,eta,region_c,region_q,perr_c,perr_q,advantage"
        assert rows
        for row in rows:
            p0, eta, region_c, region_q, *numbers = row.split(",")
            assert {region_c, region_q} <= {"I", "II", "III"}
            assert all(math.isfinite(float(x)) for x in (p0, eta, *numbers))
