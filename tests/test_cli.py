import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qsmooth import checks, cli, smoothing
from qsmooth.cli import main
from qsmooth.dynamics import unconditional_series
from qsmooth.qmath import ZeroTraceError


def read_csv(path):
    """Returns (preamble dict, header list, data array)."""
    preamble = {}
    header = None
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition("=")
                preamble[key.strip()] = val.strip()
            elif header is None:
                header = line.split(",")
            else:
                rows.append([float(x) for x in line.split(",")])
    return preamble, header, np.array(rows)


def run(args):
    return main(args)


def _json_clean(obj):
    """Arrays as lists, and non-finite floats as None: strict JSON has no
    NaN or Infinity."""
    if isinstance(obj, np.ndarray):
        return _json_clean(obj.tolist())
    if isinstance(obj, dict):
        return {k: _json_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_clean(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def stdlib_json(doc):
    """The standard library rendering the CLI's JSON must match byte for byte."""
    return json.dumps(_json_clean(doc), indent=1, sort_keys=True, allow_nan=False)


class TestSimulate:
    def test_header_contract(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--unraveling", "jump", "--omega", "5",
                    "--nbar", "0.5", "--seed", "42", "--t-final", "0.02",
                    "--out", str(out)])
        assert code == 0
        _, header, data = read_csv(out)
        assert ",".join(header) == "t,outcome,fx,fy,fz,sx,sy,sz,ux,uy,uz,p_filt,p_smooth"
        assert data.shape == (21, 13)
        assert np.isnan(data[0, 1])  # no outcome belongs to t = 0

    def test_provenance_embedded(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        run(["simulate", "--seed", "7", "--t-final", "0.01", "--out", str(out)])
        preamble, _, _ = read_csv(out)
        assert preamble["seed"] == "7"
        assert preamble["unraveling"] == "jump"
        assert "dt" in preamble and "rho0" in preamble

    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ["simulate", "--seed", "3", "--t-final", "0.05"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_dt_zero_is_config_error(self, capsys):
        assert run(["simulate", "--dt", "0"]) == 2

    def test_step_bound_is_the_largest_rate(self, tmp_path, capsys):
        # at eta = 0 the largest rate is the undetected emission, 2: 0.8 < 1
        assert run(["simulate", "--nbar", "1", "--eta", "0", "--dt", "0.4",
                    "--t-final", "2", "--out", str(tmp_path / "ok.csv")]) == 0
        # at the defaults it is the detected emission, 1.5
        assert run(["simulate", "--dt", "0.9", "--out", str(tmp_path / "x")]) == 2
        assert "dt = 1.35 must stay below 1" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_full_precision_roundtrip(self):
        # the CSV number formatter must reproduce doubles exactly
        rng = np.random.default_rng(0)
        for x in [np.pi, 1 / 3, 0.1, -1e-300, 2 ** 0.5, *rng.normal(size=20)]:
            assert float(cli._fmt(float(x))) == float(x)

    def test_swv_columns_on_request(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        run(["simulate", "--seed", "2", "--t-final", "0.02",
             "--smoothers", "petz_fuchs,swv", "--out", str(out)])
        _, header, data = read_csv(out)
        assert header[-2:] == ["p_swv", "swv_min_eig"]
        assert data.shape[1] == 15

    def test_gw_columns_on_request(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        run(["simulate", "--seed", "2", "--dt", "0.01", "--t-final", "0.05",
             "--smoothers", "gw", "--n-bob", "64", "--out", str(out)])
        _, header, data = read_csv(out)
        for col in ("gx", "gy", "gz", "p_gw", "p_gw_pf", "gw_ess"):
            assert col in header
        assert np.all(data[:, header.index("gw_ess")] >= 2)

    def test_recursive_smoother(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--seed", "4", "--t-final", "0.02", "--out", str(a)])
        run(["simulate", "--seed", "4", "--t-final", "0.02",
             "--smoothers", "recursive", "--out", str(b)])
        _, _, da = read_csv(a)
        _, _, db = read_csv(b)
        # skip the outcome column: its first entry is NaN by contract
        assert np.max(np.abs(da[:, 2:] - db[:, 2:])) < 1e-8
        assert np.array_equal(da[1:, 1], db[1:, 1])

    def test_conflicting_smoothers(self, capsys):
        assert run(["simulate", "--smoothers", "petz_fuchs,recursive"]) == 2

    def test_empty_smoothers_list_is_default(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", "--seed", "4", "--t-final", "0.02", "--out", str(a)])
        run(["simulate", "--seed", "4", "--t-final", "0.02", "--smoothers", ",",
             "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        run(["simulate", "--seed", "5", "--t-final", "0.01",
             "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        for key in ("config", "times", "outcome", "filtered_bloch",
                    "smoothed_bloch", "purity_filtered", "checks"):
            assert key in doc
        assert doc["config"]["seed"] == 5
        assert doc["checks"]["pairing_rel_spread"] < 1e-8

    def test_unconditional_bloch_reads_qubit_statistics(self, tmp_path, capsys):
        out = tmp_path / "sim.json"
        run(["simulate", "--seed", "5", "--t-final", "0.3", "--unraveling", "homodyne_x",
             "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        p = cli.build_params(doc["config"])
        bloch = smoothing.qubit_statistics(unconditional_series(p).T)[1]
        assert np.array_equal(doc["unconditional_bloch"], bloch.T)

    def test_uninformative_record_pairing(self, tmp_path, capsys):
        # eta = 0: the log pairing sits near 0, so a spread relative to its
        # mean would read round-off as a large number
        out = tmp_path / "sim.json"
        run(["simulate", "--eta", "0", "--t-final", "0.5", "--format", "json",
             "--out", str(out)])
        assert json.loads(out.read_text())["checks"]["pairing_rel_spread"] < 1e-8

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **kw):
            raise ZeroTraceError("record is inconsistent at time index 7")
        monkeypatch.setattr(smoothing, "petz_fuchs_series", boom)
        code = run(["simulate", "--t-final", "0.01", "--out",
                    str(tmp_path / "x.csv")])
        assert code == 3
        assert "time index 7" in capsys.readouterr().err


_FLOATS = st.one_of(st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16]),
                    st.floats())
_SHAPES = st.integers(1, 4).flatmap(
    lambda n: st.sampled_from([(n,), (n, 3), (0,), (n, 0)]))
_ARRAYS = st.one_of(
    _SHAPES.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=_FLOATS)),
    _SHAPES.flatmap(lambda shape: hnp.arrays(np.int64, shape)),
    _SHAPES.flatmap(lambda shape: hnp.arrays(np.bool_, shape)))
_TEXT = st.one_of(st.text(max_size=6),
                  st.sampled_from(['say "hi"', "back\\slash", "ünïcødé ☃"]))
_DOCS = st.recursive(
    st.one_of(_ARRAYS, _FLOATS, st.integers(), st.booleans(), st.none(), _TEXT),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=12)


class TestJsonRenderer:
    @settings(max_examples=300, deadline=None)
    @given(_DOCS)
    @example({"specials": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16]),
              "bloch": np.arange(6.0).reshape(2, 3), "none": np.zeros(0),
              "hollow": np.zeros((2, 0)), "record": np.arange(3),
              "flags": np.array([True, False]),
              'key "ü"': [None, 'a "b" \\ ☃', {}, [], {"nested": [1.5, -np.inf]}]})
    def test_matches_stdlib_json(self, doc):
        assert cli._render_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--smoothers", "recursive,swv", "--unraveling", "homodyne_y"],
        ["simulate", "--smoothers", "petz_fuchs,swv,gw", "--n-bob", "50"],
        ["simulate", "--unraveling", "homodyne_x", "--out", "-"],
        # t_final < 4 leaves the steady window empty, so the gains are null
        ["ensemble", "--n-traj", "4"],
    ], ids=" ".join)
    def test_cli_output_matches_stdlib_json(self, argv, tmp_path, capsys, monkeypatch):
        docs = []
        write = cli._write_json
        monkeypatch.setattr(cli, "_write_json",
                            lambda path, doc: docs.append(doc) or write(path, doc))
        out = tmp_path / "out.json"
        if "--out" not in argv:
            argv = argv + ["--out", str(out)]
        assert run(argv + ["--seed", "2", "--t-final", "0.2", "--format", "json"]) == 0
        text = capsys.readouterr().out if "-" in argv else out.read_text()
        assert text == stdlib_json(docs[0]) + "\n"
        if argv[0] == "ensemble":
            assert json.loads(text)["checks"]["purity_gain_mean"] is None


class TestConfigFile:
    def test_unknown_key_names_line(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = 5.0\n# comment\nwibble = 3\n")
        assert run(["simulate", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert f"{cfgfile}:3" in err and "wibble" in err

    def test_bad_value_reported(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = banana\n")
        assert run(["simulate", "--config", str(cfgfile)]) == 2

    def test_flag_overrides_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("omega = 1.0\nseed = 9\nt_final = 0.01\n")
        out = tmp_path / "sim.csv"
        run(["simulate", "--config", str(cfgfile), "--omega", "2.0",
             "--out", str(out)])
        preamble, _, _ = read_csv(out)
        assert preamble["omega"] == "2.0"
        assert preamble["seed"] == "9"

    def test_missing_file(self, capsys):
        assert run(["simulate", "--config", "/nonexistent/x.cfg"]) == 2

    def test_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_bytes(b"omega = 5\xff\n")
        assert run(["simulate", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert f"qsmooth: config error: {cfgfile}: cannot read config file" in err

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["simulate", "--t-final", "0.01", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"qsmooth: config error: {out}: cannot write output" in err


class TestIntegerRange:
    @pytest.mark.parametrize("args", [
        ["ensemble", "--n-traj", "0"],
        ["simulate", "--smoothers", "gw", "--n-bob", "0"],
        ["simulate", "--smoothers", "gw", "--n-bob", "-2"],
        *([command, "--seed", "-1"]
          for command in ("simulate", "ensemble", "validate", "classical-demo")),
        ["simulate", "--unraveling", "heterodyne"],
        ["simulate", "--smoothers", "gw", "--bob-unraveling", "heterodyne"],
        ["simulate", "--smoothers", "petz_fuchs,kalman"],
        ["simulate", "--rho0", "0,1"],
        ["simulate", "--rho0", "0.8,0,0.8"],
        ["simulate", "--rho0", "nan,0,0"],
        ["simulate", "--nbar", "nan"],
        ["simulate", "--unraveling", "homodyne_x", "--phi", "nan"],
        ["simulate", "--omega", "inf"],
        ["simulate", "--t-final", "nan"],
        ["simulate", "--seed", "1.5"],
        ["simulate", "--format", "xml"],
        # the text after --config is written to a config file, and the
        # error must name the file and line
        ["simulate", "--config", "omega 5"],
        ["simulate", "--config", "format = xml"],
        ["simulate", "--config", "unraveling = heterodyne"],
        ["simulate", "--smoothers", "gw", "--config", "bob_unraveling = heterodyne"],
        ["simulate", "--config", "smoothers = kalman"],
        ["simulate", "--config", "smoothers = recursive,petz_fuchs"],
        ["simulate", "--config", "rho0 = 0,1"],
        ["simulate", "--config", "rho0 = 0.8,0,0.8"],
        ["ensemble", "--config", "n_traj = 0"],
        ["simulate", "--smoothers", "gw", "--config", "n_bob = 0"],
        # the model's rules over a single field
        ["simulate", "--config", "nbar = -1"],
        ["simulate", "--config", "omega = inf"],
        ["validate", "--config", "seed = -1"],
    ], ids=" ".join)
    def test_out_of_range_is_config_error(self, args, tmp_path, capsys):
        text, where = " ".join(args), None
        if "--config" in args:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(args[-1] + "\n")
            args, where = args[:-1] + [str(cfgfile)], f"{cfgfile}:1"
        if "--t-final" not in args:
            args = args + ["--t-final", "0.01"]
        assert run(args + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "qsmooth: config error:" in err
        if "heterodyne" in text:
            assert "got 'heterodyne'" in err
        if where:
            assert where in err
        assert not (tmp_path / "x").exists()

    def test_single_second_observer_sample_is_numerical_failure(self, tmp_path, capsys):
        # one sample is in range, but its effective sample size is 1 < 2
        assert run(["simulate", "--smoothers", "gw", "--n-bob", "1", "--t-final", "0.01",
                    "--out", str(tmp_path / "x")]) == 3


class TestEnsembleCommand:
    def test_header_and_single_trajectory_match(self, tmp_path, capsys):
        sim = tmp_path / "sim.csv"
        ens = tmp_path / "ens.csv"
        common = ["--seed", "11", "--t-final", "0.2"]
        run(["simulate", *common, "--out", str(sim)])
        run(["ensemble", *common, "--n-traj", "1", "--out", str(ens)])
        _, header, edata = read_csv(ens)
        assert ",".join(header) == "t,ep_filt,se_filt,ep_smooth,se_smooth,p_uncond"
        _, sheader, sdata = read_csv(sim)
        assert np.allclose(edata[:, 1], sdata[:, sheader.index("p_filt")], atol=1e-12)
        assert np.allclose(edata[:, 3], sdata[:, sheader.index("p_smooth")], atol=1e-12)
        assert np.all(np.isnan(edata[:, 2]))  # flagged standard error

    def test_json_checks(self, tmp_path, capsys):
        out = tmp_path / "ens.json"
        run(["ensemble", "--seed", "1", "--t-final", "0.1", "--n-traj", "8",
             "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert "avg_purity_smoothed" in doc
        assert doc["checks"]["min_smoothed_eigenvalue"] >= -1e-10

    def test_empty_steady_window_is_noted(self, tmp_path, capsys):
        out = tmp_path / "ens.json"
        run(["ensemble", "--seed", "1", "--t-final", "0.1", "--n-traj", "4",
             "--format", "json", "--out", str(out)])
        assert json.loads(out.read_text())["checks"]["purity_gain_mean"] is None
        err = capsys.readouterr().err
        assert "steady window 4 <= t <= 0.1 holds no grid time" in err
        # a window with grid times in it gives gains and no note
        run(["ensemble", "--seed", "1", "--t-final", "4.01", "--n-traj", "2",
             "--format", "json", "--out", str(out)])
        assert json.loads(out.read_text())["checks"]["purity_gain_mean"] is not None
        assert "steady window" not in capsys.readouterr().err

    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["ensemble", "--seed", "2", "--t-final", "0.1", "--n-traj", "4"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestValidateCommand:
    def test_default_config_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["validate", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert code == 0
        assert doc["all_passed"] is True
        for check in doc["checks"]:
            assert check["passed"], check
            assert check["defect"] < check["tolerance"]

    def test_larger_dt_reports_larger_residual(self, tmp_path, capsys):
        fine = tmp_path / "fine.json"
        coarse = tmp_path / "coarse.json"
        run(["validate", "--out", str(fine)])
        code = run(["validate", "--dt", "0.1", "--out", str(coarse)])
        assert code == 0
        get = lambda doc: next(c for c in doc["checks"]
                               if c["check"] == "completeness_residual")
        fine_doc = json.loads(fine.read_text())
        coarse_doc = json.loads(coarse.read_text())
        assert get(coarse_doc)["defect"] > 100 * get(fine_doc)["defect"]

    def test_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(checks, "CHECKS",
                            (("always_fails", lambda p: (1.0, 1e-10), lambda p: [{}]),))
        assert run(["validate", "--out", str(tmp_path / "r.json")]) == 1

    def test_eta_zero_passes_with_every_check(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["validate", "--eta", "0", "--out", str(out)]) == 0
        names = [c["check"] for c in json.loads(out.read_text())["checks"]]
        assert names == ["criterion2_enumeration", "closed_vs_recursive",
                         "petz_composability", "classical_reduction",
                         "completeness_residual", "pairing_constant",
                         "swv_double_commutator"]

    def test_invalid_derived_model_is_config_error(self, tmp_path, capsys):
        # valid at dt = 1e-3, but the enumeration model's dt = 1e-2 is not
        assert run(["validate", "--nbar", "150", "--out", str(tmp_path / "r.json")]) == 2


class TestClassicalDemo:
    def test_routes_agree_and_row_count(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        code = run(["classical-demo", "--t-final", "0.5", "--dt", "0.01",
                    "--seed", "6", "--out", str(out)])
        assert code == 0
        _, header, data = read_csv(out)
        assert header == ["t", "pf_0", "pf_1", "ps_bayes_0", "ps_bayes_1",
                          "ps_retro_0", "ps_retro_1"]
        assert data.shape[0] == 51  # steps + 1
        assert np.max(np.abs(data[:, 3:5] - data[:, 5:7])) < 1e-10

    def test_uniform_likelihoods_make_smoothed_equal_filtered(self, tmp_path, capsys):
        out = tmp_path / "demo.csv"
        run(["classical-demo", "--demo-uniform", "1", "--t-final", "0.3",
             "--out", str(out)])
        _, _, data = read_csv(out)
        assert np.max(np.abs(data[:, 1:3] - data[:, 3:5])) < 1e-12

    def test_uniform_needs_positive_likelihoods(self, tmp_path, capsys):
        # at nbar = 0 the ground state never clicks: a zero likelihood
        assert run(["classical-demo", "--nbar", "0", "--demo-uniform", "1",
                    "--out", str(tmp_path / "demo.csv")]) == 2
        assert "raise nbar above 0" in capsys.readouterr().err


class TestHelp:
    def test_help_exits_zero(self, capsys):
        for argv in (["--help"], ["simulate", "--help"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            out = capsys.readouterr().out
            for command in ("simulate", "ensemble", "validate", "classical-demo"):
                assert command in out
            assert "--format {csv,json}" in out

    def test_flags_before_the_command(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--seed", "3", "--t-final", "0.02", "--out", str(a)]) == 0
        assert run(["--seed", "3", "--t-final", "0.02", "simulate", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
