"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from pradial.cli import main, write_csv
from pradial.measures import MeasureRep
from pradial.rates import rate_cone


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out", str(out)])
    return code, out


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_strict_json(path):
    def refuse(token):
        raise ValueError(f"non-strict JSON constant {token}")

    with open(path) as fh:
        return json.loads(fh.read(), parse_constant=refuse)


def sha16(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _reference_fmt(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def reference_write_csv(path, header, rows):
    """The row-at-a-time csv.writer the block writer replaced; its bytes
    are the format every CSV output keeps."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        w.writerow(header)
        for row in rows:
            w.writerow([_reference_fmt(v) for v in row])


_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
            1e-5, 1e-4, 1e16, 1e15, 0.1, -2.5, 1.0 / 3.0, 1.7976931348623157e308]


class TestWriteCsv:
    def assert_same(self, tmp_path, header, rows):
        write_csv(tmp_path / "new.csv", header, rows)
        reference_write_csv(tmp_path / "ref.csv", header, rows)
        assert (tmp_path / "new.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes()

    def test_float64_specials(self, tmp_path):
        rng = np.random.default_rng(5)
        x = np.concatenate([np.array(_SPECIAL * 3).reshape(-1, 5),
                            rng.standard_normal((20_000, 5)) ** 9])
        self.assert_same(tmp_path, [f"x{i}" for i in range(1, 6)], x)
        back = np.loadtxt(tmp_path / "new.csv", delimiter=",", skiprows=1)
        assert back.tobytes() == x.tobytes()

    def test_float32_widens_like_repr(self, tmp_path):
        x = (np.random.default_rng(6).standard_normal((300, 3)) * 1e-3) \
            .astype(np.float32)
        self.assert_same(tmp_path, ["a", "b", "c"], x)
        first = read_csv(tmp_path / "new.csv")[1][0]
        assert first == repr(float(x[0, 0]))

    def test_strided_and_transposed(self, tmp_path):
        x = np.random.default_rng(7).standard_normal((9000, 8))
        self.assert_same(tmp_path, ["a", "b", "c"], x[::3, 1:7:2])
        self.assert_same(tmp_path, [f"c{i}" for i in range(9000)], x.T)

    def test_zero_and_one_row(self, tmp_path):
        self.assert_same(tmp_path, ["x1", "x2"], np.empty((0, 2)))
        assert (tmp_path / "new.csv").read_bytes() == b"x1,x2\n"
        self.assert_same(tmp_path, ["x1", "x2"], np.array([[0.1, -0.0]]))

    @pytest.mark.parametrize("legacy", [False, "1.13"])
    def test_mixed_tuple_rows(self, tmp_path, legacy):
        # numpy's legacy print mode shortens str(np.float64) to 12 digits;
        # the cells must not follow it
        rows = [(20, 1.5e-9, np.float64(1.0 / 3.0), "", 0, 0.125,
                 np.float64(0.1)),
                (4000, 0.0, math.inf, 3.0 / 2000, 1, 0.125, np.float64(np.inf)),
                (np.int64(7), np.float32(0.1), -math.inf, "", 1, math.nan,
                 -0.0)]
        with np.printoptions(legacy=legacy):
            self.assert_same(tmp_path, ["n", "prob_exact",
                                        "neg_log_prob_over_n", "freq_mc",
                                        "censored", "rate_infimum", "gap"],
                             rows)

    def test_streams_in_blocks(self, tmp_path):
        # boxing the whole 20000 x 50 table at once costs about 70 MB of
        # traced Python objects; one block at a time stays near 1 MB
        x = np.random.default_rng(8).standard_normal((20_000, 50))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", [f"x{i}" for i in range(50)], x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestSample:
    def test_cone_outputs_and_manifest(self, tmp_path):
        code, out = run(tmp_path, "sample", "--target", "cone", "--n", "3",
                        "--count", "50", "--seed", "7")
        assert code == 0
        rows = read_csv(out / "samples.csv")
        assert rows[0] == ["x1", "x2", "x3"]
        assert len(rows) == 51
        pts = np.array(rows[1:], dtype=float)
        assert np.allclose(np.sum(pts ** 2, axis=1), 1.0, atol=1e-10)
        man = read_json(out / "manifest.json")
        assert man["artifact"] == "pradial"
        assert man["command"] == "sample"
        assert man["config"]["seed"] == 7
        assert "samples.csv" in man["outputs"]
        assert man["threshold_overridden"] is False

    def test_missing_required_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "sample", "--target", "cone")
        assert code == 2

    def test_unknown_target_is_usage_error(self, tmp_path):
        code, _ = run(tmp_path, "sample", "--target", "blob", "--n", "3")
        assert code == 2

    def test_byte_identical_rerun(self, tmp_path):
        args = ("sample", "--target", "pnpw", "--n", "4", "--count", "100",
                "--seed", "99")
        _, out1 = run(tmp_path / "a", *args)
        _, out2 = run(tmp_path / "b", *args)
        assert (out1 / "samples.csv").read_bytes() == \
            (out2 / "samples.csv").read_bytes()

    def test_mcmc_target_writes_diagnostics(self, tmp_path):
        code, out = run(tmp_path, "sample", "--target", "eigen-PH", "--n",
                        "3", "--count", "50", "--seed", "3")
        assert code == 0
        diag = read_json(out / "diagnostics.json")
        assert diag["chain_ok"] is True
        assert 0.2 <= diag["accept_rate"] <= 0.6

    @pytest.mark.parametrize("target", ["weighted-pnpw", "eigen-PH",
                                        "singular-PM"])
    def test_per_chain_diagnostics(self, tmp_path, target):
        code, out = run(tmp_path, "sample", "--target", target, "--n", "4",
                        "--count", "200", "--seed", "5")
        assert code == 0
        diag = read_strict_json(out / "diagnostics.json")
        per_chain = diag["accept_per_chain"]
        assert len(per_chain) == 4  # the default number of chains
        assert all(0.0 < a < 1.0 for a in per_chain)
        assert 0.0 < diag["ess"] <= 200

    def test_weighted_pnpw_writes_diagnostics(self, tmp_path):
        code, out = run(tmp_path, "sample", "--target", "weighted-pnpw",
                        "--n", "3", "--count", "50", "--seed", "3")
        assert code == 0
        diag = read_json(out / "diagnostics.json")
        assert diag["chain_ok"] is True
        assert 0.2 <= diag["accept_rate"] <= 0.6
        assert "diagnostics.json" in read_json(out / "manifest.json")["outputs"]

    @pytest.mark.parametrize("argv, digest", [
        (("--target", "cone", "--n", "4", "--seed", "1", "--count", "2000"),
         "7b22feb579edb3a6"),
        (("--target", "eigen-PH", "--n", "4", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "eb04c6920a3e31fe"),
        (("--target", "eigen-PH", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "918044d7be227a1b"),
        (("--target", "singular-PM", "--n", "16", "--seed", "1", "--theta",
          "0.3", "--count", "300"), "61ea39af8ec2e876"),
    ])
    def test_golden_digest(self, tmp_path, argv, digest):
        code, out = run(tmp_path, "sample", *argv)
        assert code == 0
        assert sha16(out / "samples.csv") == digest

    # a chain target's weight fixes its support and its degree, so
    # `sample --orthant` and `test-norm-law --m` are usage errors there
    @pytest.mark.parametrize("command, target, flags", [
        pytest.param("sample", t, ("--orthant",), id=t)
        for t in ("weighted-pnpw", "eigen-PH", "singular-PM")] + [
        pytest.param("test-norm-law", t, ("--m", "2"), id=f"m-{t}")
        for t in ("eigen-PH", "singular-PM")])
    def test_orthant_rejected_for_chain_targets(self, tmp_path, capsys,
                                                command, target, flags):
        code, out = run(tmp_path, command, "--target", target, "--n", "3",
                        "--count", "5", "--seed", "1", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("target", ["eigen-PH", "cone"])
    def test_count_below_one_is_usage_error(self, tmp_path, capsys, target):
        code, out = run(tmp_path, "sample", "--target", target, "--n", "3",
                        "--count", "0", "--seed", "1")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_manifest_reruns_as_config(self, tmp_path):
        code, out1 = run(tmp_path / "a", "sample", "--target", "uniform",
                         "--n", "2", "--count", "30", "--seed", "5")
        assert code == 0
        out2 = tmp_path / "b"
        code = main(["sample", "--config", str(out1 / "manifest.json"),
                     "--out", str(out2)])
        assert code == 0
        assert (out1 / "samples.csv").read_bytes() == \
            (out2 / "samples.csv").read_bytes()


class TestNormLaw:
    def test_euclid_passes(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "5000", "--seed", "11")
        assert code == 0
        rep = read_json(out / "norm_law_report.json")
        assert rep["p_value"] > 0.01
        assert rep["beta_shape_a"] == 2.5  # (5 + 0)/2

    def test_threshold_override_recorded(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "2000", "--seed", "11",
                        "--ks-pvalue-threshold", "0.5")
        man = read_json(out / "manifest.json")
        assert man["threshold_overridden"] is True

    def test_atom_mixture(self, tmp_path):
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "4000", "--seed", "13",
                        "--theta", "0.3")
        assert code == 0
        rep = read_json(out / "norm_law_report.json")
        assert rep["atom_fraction"] == pytest.approx(0.3, abs=0.03)
        lo, hi = rep["atom_count_interval"]
        assert lo <= rep["atom_fraction"] * rep["n_samples"] <= hi

    def test_flagged_exit_3(self, tmp_path):
        # an (artificially) extreme p-value threshold trips the gate
        code, out = run(tmp_path, "test-norm-law", "--target", "euclid",
                        "--n", "5", "--count", "2000", "--seed", "17",
                        "--ks-pvalue-threshold", "0.9999")
        assert code == 3


class TestRate:
    def test_beta_scan(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid", "--p",
                        "2", "--alpha", "1", "--x-steps", "199")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        # minimizer g/(g+alpha) = 1/3
        assert rep["min_x"] == pytest.approx(1.0 / 3.0, abs=0.01)
        assert rep["min_value"] == pytest.approx(0.0, abs=1e-3)
        rows = read_csv(out / "rate_scan.csv")
        assert rows[0] == ["x", "rate"]
        assert len(rows) == 200

    def test_point_evaluation(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid", "--p",
                        "2", "--alpha", "0", "--c", "-0.1", "--x", "0.5")
        rep = read_json(out / "rate_report.json")
        assert rep["value"] == pytest.approx(-0.5 * math.log(0.5) + 0.1,
                                             abs=1e-12)
        assert rep["branch"] == "alpha-zero"

    def test_emp_itemized_summands(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "emp-euclid", "--p",
                        "2", "--alpha", "1", "--analytic", "scaled-np",
                        "--z", "1.0")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "alpha-positive"
        assert sum(rep["summands"].values()) == pytest.approx(rep["value"],
                                                              abs=1e-9)

    def test_cone_h_arcsine(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "cone-H", "--p", "2",
                        "--beta", "2", "--analytic", "arcsine")
        rep = read_json(out / "rate_report.json")
        assert rep["value"] == pytest.approx(math.log(2.0) - 0.25, abs=1e-5)

    def test_atoms_csv_input(self, tmp_path):
        csv_path = tmp_path / "atoms.csv"
        csv_path.write_text("x\n0.1\n0.2\n0.3\n")
        code, out = run(tmp_path, "rate", "--target", "emp-euclid", "--p",
                        "2", "--alpha", "1", "--atoms-csv", str(csv_path))
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "cone-infinite"
        assert rep["value"] == "inf"

    def test_cone_infinite_below_gate(self, tmp_path):
        # m_2 of the atoms is 0.0467: the gate did not fire, the entropy
        # of an atomic measure is infinite
        csv_path = tmp_path / "atoms.csv"
        csv_path.write_text("x\n0.1\n0.2\n0.3\n")
        code, out = run(tmp_path, "rate", "--target", "cone-euclid", "--p",
                        "2", "--atoms-csv", str(csv_path))
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "cone-infinite"
        assert rep["value"] == "inf"

    def test_wigner_law_on_the_gate_is_finite(self, tmp_path, monkeypatch):
        # the semicircle of radius 2 has m_2 = 1 exactly and is the zero
        # of the cone-H rate; quadrature puts its moment 6e-14 above 1.
        # Its energy takes the closed form 1/4 here, since the analytic
        # quadrature costs about 50 s
        monkeypatch.setattr("pradial.rates.log_energy", lambda mu: 0.25)
        code, out = run(tmp_path, "rate", "--target", "cone-H", "--p", "2",
                        "--beta", "2", "--analytic", "semicircle", "--b", "2")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "finite"
        assert rep["value"] == pytest.approx(0.0, abs=1e-8)

    def test_count_is_not_a_rate_flag(self, tmp_path):
        code, _ = run(tmp_path, "rate", "--target", "beta-euclid", "--x",
                      "0.3", "--count", "5")
        assert code == 2

    def test_invalid_target(self, tmp_path):
        code, _ = run(tmp_path, "rate", "--target", "beta-H", "--p", "2",
                      "--beta", "3")
        assert code == 2

    def test_zero_support_bound_is_kept(self, tmp_path):
        # --a 0 is the arcsine law on [0, 1], not the fallback a = -1
        code, out = run(tmp_path, "rate", "--target", "cone-M", "--p", "2",
                        "--analytic", "arcsine", "--a", "0", "--b", "1")
        assert code == 0
        rep = read_json(out / "rate_report.json")
        assert rep["branch"] == "finite"
        assert rep["value"] == pytest.approx(
            rate_cone(MeasureRep.arcsine(0.0, 1.0), "M", 2.0, 2.0)[0],
            abs=1e-12)

    def test_scan_starts_at_zero(self, tmp_path):
        code, out = run(tmp_path, "rate", "--target", "beta-euclid",
                        "--x-min", "0", "--x-max", "0.5", "--x-steps", "3")
        assert code == 0
        rows = read_csv(out / "rate_scan.csv")
        assert [r[0] for r in rows[1:]] == ["0.0", "0.25", "0.5"]
        assert rows[1][1] == "inf"
        rep = read_json(out / "rate_report.json")
        assert rep["min_x"] == 0.25


class TestLdpVerify:
    def test_gap_shrinks(self, tmp_path):
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,40,80", "--seed", "1")
        assert code == 0
        rep = read_json(out / "ldp_report.json")
        assert rep["gap_monotone_decreasing"] is True
        assert rep["gap_final"] < 0.05
        rows = read_csv(out / "ldp_decay.csv")
        assert len(rows) == 4
        # exact decay rates exceed the infimum (upper-bound direction)
        for r in rows[1:]:
            assert float(r[6]) > 0

    def test_infimum_inside_event_is_zero(self, tmp_path):
        # b = 0.5 lies right of the minimizer x* = 1/3, so the event
        # holds the rate's zero
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.5", "--p",
                        "2", "--n-list", "20", "--seed", "1")
        assert code == 0
        rep = read_json(out / "ldp_report.json")
        assert rep["rate_infimum"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("b", ["0", "1.5", "-0.1"])
    def test_event_outside_unit_interval(self, tmp_path, capsys, b):
        code, out = run(tmp_path, "ldp-verify", "--event-b", b,
                        "--n-list", "20", "--seed", "1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--event-b" in err
        assert not out.exists()

    def test_decay_bytes_at_b_0_1(self, tmp_path):
        # the infimum at b = 0.1 is rate_beta(0.1): the former 2000-point
        # grid ended exactly at b, and these bytes are the ones it wrote
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,40,80", "--seed", "1")
        assert code == 0
        assert sha16(out / "ldp_decay.csv") == "8e1abf8d84fee979"

    def test_underflow_is_strict_json_and_exit_3(self, tmp_path):
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "20,4000", "--seed", "1")
        assert code == 3
        rep = read_strict_json(out / "ldp_report.json")
        assert rep["gap_final"] == "inf"
        assert (out / "ldp_decay.csv").exists()

    def test_monte_carlo_count_below_one_is_usage_error(self, tmp_path,
                                                        capsys):
        code, out = run(tmp_path, "ldp-verify", "--n-list", "20",
                        "--count", "0", "--monte-carlo", "--seed", "1")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_monte_carlo_censoring(self, tmp_path):
        # at n = 80 the event probability is ~1e-12: MC sees zero hits and
        # reports the rule-of-three bound with the censoring flag set
        code, out = run(tmp_path, "ldp-verify", "--event-b", "0.1", "--p",
                        "2", "--n-list", "80", "--count", "2000",
                        "--monte-carlo", "--seed", "21")
        assert code == 0
        rows = read_csv(out / "ldp_decay.csv")
        r = rows[1]
        assert int(r[4]) == 1  # censored
        assert float(r[3]) == pytest.approx(3.0 / 2000)


class TestAsymptotics:
    def test_ratios_approach_one(self, tmp_path):
        code, out = run(tmp_path, "asymptotics", "--n-list", "50,400")
        assert code == 0
        rows = read_csv(out / "asymptotics.csv")
        head = rows[0]
        i_lap = head.index("laplace_ratio")
        i_brt = head.index("breitung_ratio")
        i_el = head.index("adapted_laplace_err")
        i_eb = head.index("adapted_breitung_err")
        small, big = rows[1], rows[2]
        assert abs(float(big[i_lap]) - 1.0) < abs(float(small[i_lap]) - 1.0)
        assert abs(float(big[i_brt]) - 1.0) < abs(float(small[i_brt]) - 1.0)
        assert float(big[i_el]) < 0.02
        assert float(big[i_eb]) < 0.02


class TestNormConst:
    def test_constant_weight_exact(self, tmp_path):
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "3", "--p", "2", "--count", "1000", "--seed", "2")
        assert code == 0
        rep = read_json(out / "norm_const.json")
        expected = -3.0 * (math.log(2.0) + math.lgamma(1.5))
        assert rep["log_norm_const"] == pytest.approx(expected, abs=1e-12)

    def test_degenerate_estimate_is_strict_json(self, tmp_path, monkeypatch):
        # a weight that vanished on every draw degenerates to log C = -inf
        monkeypatch.setattr("pradial.cli.estimate_norm_const",
                            lambda *a, **k: (-math.inf, math.inf))
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "2", "--count", "10", "--seed", "2")
        assert code == 3
        rep = read_strict_json(out / "norm_const.json")
        assert rep["log_norm_const"] == "-inf"
        assert rep["se_log"] == "inf"

    def test_count_below_one_is_usage_error(self, tmp_path, capsys):
        code, out = run(tmp_path, "norm-const", "--weight", "one", "--n",
                        "2", "--count", "0", "--seed", "2")
        assert code == 2
        assert "--count" in capsys.readouterr().err
        assert not out.exists()

    def test_power_zero_is_the_constant_weight(self, tmp_path):
        # |x|^0 is the constant weight: the exact constant, not |x|^1
        code, out = run(tmp_path, "norm-const", "--weight", "power", "--m",
                        "0", "--n", "3", "--p", "2", "--count", "1000",
                        "--seed", "2")
        assert code == 0
        rep = read_json(out / "norm_const.json")
        assert rep["weight"] == "|x|^0.0"
        expected = -3.0 * (math.log(2.0) + math.lgamma(1.5))
        assert rep["log_norm_const"] == pytest.approx(expected, abs=1e-12)

    def test_unknown_weight(self, tmp_path):
        code, _ = run(tmp_path, "norm-const", "--weight", "frob", "--n", "3")
        assert code == 2

    def test_output_root_env(self, tmp_path, monkeypatch):
        root = tmp_path / "envroot"
        monkeypatch.setenv("PRADIAL_OUTPUT_ROOT", str(root))
        monkeypatch.chdir(tmp_path)
        code = main(["norm-const", "--weight", "one", "--n", "2",
                     "--count", "500", "--seed", "4"])
        assert code == 0
        assert (root / "norm_const.json").exists()


class TestParameterTable:
    @pytest.mark.parametrize("argv, files", [
        (["ldp-verify", "--n-list", "20,abc"], {}),
        (["asymptotics", "--n-list", "50,0"], {}),
        (["rate", "--target", "beta-euclid", "--x-steps", "0"], {}),
        (["sample", "--n", "abc", "--target", "cone"], {}),
        (["sample", "--config", "c.json"], {"c.json": "{not json"}),
        (["sample", "--config", "c.json"], {"c.json": '["cone"]'}),
        (["sample", "--config", "."], {}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "cone", "n": "abc"}'}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "blob", "n": 3}'}),
        (["sample", "--config", "c.json"],
         {"c.json": '{"target": "cone", "n": 3, "orthant": "yes"}'}),
        (["norm-const", "--config", "c.json"],
         {"c.json": '{"n": 3, "weight": "frob"}'}),
        (["ldp-verify", "--config", "c.json"], {"c.json": '{"n_list": "20,-1"}'}),
        (["rate", "--target", "emp-euclid", "--atoms-csv", "a.csv"],
         {"a.csv": "x,y\n0.1,0.2\n0.3,0.4\n"}),
        (["rate", "--target", "emp-H", "--grid-csv", "g.csv"],
         {"g.csv": "x\n0.1\n0.2\n"}),
    ])
    def test_malformed_input_is_usage_error(self, tmp_path, capsys,
                                            monkeypatch, argv, files):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        code, out = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_config_values_parsed_like_flags(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"target": "cone", "n": "3", "p": 2, "count": 5,'
                        ' "seed": 4, "unused": 1}')
        code, out = run(tmp_path, "sample", "--config", str(path))
        assert code == 0
        config = read_json(out / "manifest.json")["config"]
        assert config["n"] == 3 and config["count"] == 5
        assert type(config["p"]) is float and config["p"] == 2.0
        assert "unused" not in config
        code, flagged = run(tmp_path / "b", "sample", "--target", "cone",
                            "--n", "3", "--count", "5", "--seed", "4")
        assert (out / "samples.csv").read_bytes() == \
            (flagged / "samples.csv").read_bytes()
        assert (out / "manifest.json").read_bytes() == \
            (flagged / "manifest.json").read_bytes()

    # sha16 of manifest.json, pinned before the CLI became table-driven;
    # rate and asymptotics re-pinned when they lost count, which neither
    # reads.  Recorded defaults they hold: rate alpha 1.0 (from
    # defaults.json), ktheta and c; sample orthant false; ldp-verify
    # event_b, alpha_rate and monte_carlo; norm-const weight "one".
    @pytest.mark.parametrize("argv, digest", [
        (("sample", "--target", "cone", "--n", "3", "--count", "20",
          "--seed", "5"), "51f9edbe193a1b9b"),
        (("test-norm-law", "--target", "euclid", "--n", "4", "--count",
          "200", "--seed", "6"), "fa57251626c2a104"),
        (("rate", "--target", "beta-euclid", "--p", "2", "--x", "0.3"),
         "a947a190b11f1a3a"),
        (("ldp-verify", "--n-list", "20,40", "--seed", "7"),
         "d04e91cd595541eb"),
        (("asymptotics", "--n-list", "50", "--seed", "8"),
         "ae95f3a5963c68d9"),
        (("norm-const", "--n", "2", "--count", "50", "--seed", "9"),
         "05a4ca05c9c2bdf9"),
    ])
    def test_manifest_digest(self, tmp_path, argv, digest):
        code, out = run(tmp_path, *argv)
        assert code == 0
        assert sha16(out / "manifest.json") == digest
        # a rerun from the manifest records the same bytes
        code, again = run(tmp_path / "again", argv[0], "--config",
                          str(out / "manifest.json"))
        assert code == 0
        assert sha16(again / "manifest.json") == digest

    @pytest.mark.parametrize("argv", [
        ("rate", "--target", "beta-euclid", "--p", "2", "--x", "0.3"),
        ("asymptotics", "--n-list", "50", "--seed", "8")])
    def test_manifest_with_count_still_loads(self, tmp_path, argv):
        # manifests written while rate and asymptotics recorded count
        # rerun as before: a config key no row declares is ignored
        code, out = run(tmp_path, *argv)
        manifest = read_json(out / "manifest.json")
        manifest["config"]["count"] = 10000
        old = tmp_path / "old.json"
        old.write_text(json.dumps(manifest))
        code, again = run(tmp_path / "again", argv[0], "--config", str(old))
        assert code == 0
        assert (again / "manifest.json").read_bytes() == \
            (out / "manifest.json").read_bytes()

    @pytest.mark.parametrize("target, shape", [("eigen-PH", 4.5),
                                               ("singular-PM", 9.0)])
    def test_chain_norm_law_shape(self, tmp_path, target, shape):
        # (n + weight degree) / q at n = 3, p = 2, beta = 2: Delta_2 has
        # degree 6 with q = p; nabla_2 has degree 6 with q = p/2
        code, out = run(tmp_path, "test-norm-law", "--target", target, "--n",
                        "3", "--count", "200", "--seed", "3")
        assert code in (0, 3)
        assert read_json(out / "norm_law_report.json")["beta_shape_a"] == shape
