"""End-to-end command line checks: round trips, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

from diffspec import cli
from diffspec.delone import PointSet1D, cluster_frequency, enumerate_k_clusters
from diffspec.modelset import intensity_at, is_extinct, module_box, silver_mean_chain


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_window_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "tm.txt"
        code, _, _ = run(capsys, ["gen", "--rule", "thue-morse", "--len", "64", "--out", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.startswith("window lo ")

        # correlations computed from the file match the in-process source
        csv_file = tmp_path / "from_file.csv"
        csv_rule = tmp_path / "from_rule.csv"
        args_tail = ["--weights", "a=1,b=-1", "--lags", "8"]
        assert cli.main(["autocorr", "--in", str(path), "--out", str(csv_file)] + args_tail) == 0
        assert (
            cli.main(
                ["autocorr", "--rule", "thue-morse", "--len", "64", "--out", str(csv_rule)]
                + args_tail
            )
            == 0
        )
        assert csv_file.read_bytes() == csv_rule.read_bytes()

    def test_pointset_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "chain.txt"
        code, _, _ = run(
            capsys, ["gen", "--silver-mean", "--points", "500", "--out", str(path)]
        )
        assert code == 0
        ps = PointSet1D.parse(path.read_text())
        np.testing.assert_allclose(ps.coords, silver_mean_chain(500).coords, rtol=1e-12)


class TestAutocorr:
    def test_lag_one_value(self, capsys):
        code, out, _ = run(
            capsys,
            ["autocorr", "--rule", "thue-morse", "--weights", "a=1,b=-1",
             "--len", "8192", "--lags", "2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lag_or_diff,re,im,n_used"
        # lags -2..2 plus the header
        assert len(lines) == 6
        lag1 = next(ln for ln in lines[1:] if ln.startswith("1,")).split(",")
        assert float(lag1[1]) == pytest.approx(-1.0 / 3.0, abs=1e-3)
        assert float(lag1[2]) == 0.0

    def test_too_many_lags_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["autocorr", "--rule", "thue-morse", "--len", "32", "--lags", "100000"]
        )
        assert code == 2
        assert err.startswith("error:")


class TestDiffract:
    ARGS = [
        "diffract", "--rule", "period-doubling", "--weights", "a=1,b=-1",
        "--len", "2048", "--dyadic", "2", "--rel-tol", "0.1",
    ]

    def test_json_shape_and_known_atoms(self, capsys):
        code, out, _ = run(capsys, self.ARGS)
        assert code == 0
        data = json.loads(out)
        sched = data["schedule"]
        assert len(sched) == 4
        assert sched == sorted(sched)
        assert sched[-1] >= 2 * 2048
        ks = {a["k"] for a in data["atoms"]}
        assert 0.0 in ks and 0.5 in ks
        for atom in data["atoms"]:
            assert atom["stability"] <= 0.1
            assert atom["intensity"] > 0

    def test_byte_identical_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(self.ARGS + ["--out", str(p1)]) == 0
        assert cli.main(self.ARGS + ["--out", str(p2), "--threads", "2"]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_exactly_one_candidate_source(self, capsys):
        base = ["diffract", "--rule", "thue-morse", "--len", "256"]
        code, _, err = run(capsys, base + ["--dyadic", "2", "--sobol", "8"])
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, base)
        assert code == 2 and "exactly one" in err


class TestFactorAndFreq:
    def test_factor_reports_equivariance(self, capsys):
        code, out, _ = run(
            capsys,
            ["factor", "--rule", "thue-morse", "--len", "256", "--g", "xor", "--shifts", "8"],
        )
        assert code == 0
        assert "equivariance ok shifts 8" in out

    def test_letter_frequencies_with_pf_column(self, capsys):
        code, out, _ = run(
            capsys, ["freq", "--rule", "fibonacci", "--len", "4096", "--maxlen", "1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "word,frequency,pf_frequency"
        row_a = next(ln for ln in lines[1:] if ln.startswith("a,")).split(",")
        assert float(row_a[1]) == pytest.approx(0.618034, abs=1e-3)
        assert float(row_a[2]) == pytest.approx(0.618034, abs=1e-6)

    def test_cluster_frequencies_sum_to_one(self, capsys):
        code, out, _ = run(
            capsys, ["freq", "--silver-mean", "--points", "400", "--k-radius", "1.1"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "offsets,count,absolute,relative"
        assert len(lines) == 4
        total = sum(float(ln.split(",")[-1]) for ln in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_factor_with_more_shifts_than_window(self, capsys):
        code, out, err = run(
            capsys,
            ["factor", "--rule", "thue-morse", "--len", "64", "--g", "xor", "--shifts", "200"],
        )
        assert code == 0, err
        shifts = int(out.split("equivariance ok shifts ")[1].split()[0])
        assert 0 < shifts < 200

    @pytest.mark.parametrize("exact", [True, False])
    def test_cluster_frequencies_from_point_set_file(self, capsys, tmp_path, exact):
        chain = silver_mean_chain(3000)
        ps = chain if exact else PointSet1D(chain.coords)
        path = tmp_path / "points.txt"
        path.write_text(ps.serialize())
        out_csv = tmp_path / "freq.csv"
        code, _, err = run(
            capsys, ["freq", "--in", str(path), "--k-radius", "2.5", "--out", str(out_csv)]
        )
        assert code == 0, err
        src = PointSet1D.parse(path.read_text())
        if exact:
            assert np.array_equal(src.coords, chain.coords)
        lines = ["offsets,count,absolute,relative"]
        for cluster, n in enumerate_k_clusters(src, 2.5):
            fr = cluster_frequency(src, cluster)
            # 12-digit float files carry rounding noise above the 1e-9 merge
            # tolerance, so there the located count can fall short of n
            if exact:
                assert fr.count == n
            offs = ";".join(f"{o:.12g}" for o in cluster.offsets)
            lines.append(f"{offs},{fr.count},{fr.absolute:.12g},{fr.relative:.12g}")
        assert len(lines) >= 4
        assert out_csv.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestVerifyAndModelset:
    def test_dual_route_suite_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "dual-route", "--len", "2048", "--lags", "8"])
        assert code == 0
        assert "suite dual-route: PASS" in out

    def test_k_evaluation_lines(self, capsys):
        code, out, _ = run(capsys, ["modelset", "--points", "2000", "--k", "1,1"])
        assert code == 0
        assert out.startswith("k ") and "extinct false" in out
        code, out, _ = run(capsys, ["modelset", "--points", "2000", "--k", "2,0"])
        assert code == 0
        assert "extinct true" in out

    def test_inflated_chain_file(self, capsys, tmp_path):
        path = tmp_path / "inflated.txt"
        code, _, _ = run(
            capsys, ["modelset", "--points", "1000", "--inflate", "--out", str(path)]
        )
        assert code == 0
        ps = PointSet1D.parse(path.read_text())
        assert len(ps) > 100
        assert min(ps.distinct_gaps()) == pytest.approx(1 + np.sqrt(2.0), rel=1e-9)


class TestConfigAndErrors:
    def test_config_file_overrides_flags(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule=fibonacci\nlen=2048\n")
        code, out, _ = run(
            capsys,
            ["freq", "--rule", "thue-morse", "--len", "65536", "--maxlen", "1",
             "--config", str(cfg)],
        )
        assert code == 0
        row_a = next(ln for ln in out.splitlines() if ln.startswith("a,")).split(",")
        assert float(row_a[1]) == pytest.approx(0.618034, abs=2e-3)

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_option=1\n")
        code, _, err = run(
            capsys, ["freq", "--rule", "fibonacci", "--len", "256", "--config", str(cfg)]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_rule_lists_builtins(self, capsys):
        code, _, err = run(capsys, ["gen", "--rule", "nope"])
        assert code == 2
        assert "unknown rule" in err and "fibonacci" in err

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, ["gen"])
        assert code == 2
        assert "no source" in err

    @pytest.mark.parametrize(
        "body",
        [
            "0 0 1\n",  # three fields in exact mode
            "0 0.5 1 0\n",  # non-integer b
            "x 0 1 0\n",  # non-numeric a
            "99999999999999999999 0 1 0\n",  # outside int64
        ],
    )
    def test_malformed_exact_pointset_is_input_error(self, capsys, tmp_path, body):
        path = tmp_path / "bad.txt"
        path.write_text("pointset exact packing_radius 0.5\n0 0 1 0\n" + body)
        code, _, err = run(capsys, ["modelset", "--in", str(path), "--k", "1,1"])
        assert code == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_pointset_header_without_mode(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("pointset\n0 1 0\n")
        code, _, err = run(capsys, ["gen", "--in", str(path)])
        assert code == 2
        assert "mode" in err

    def test_malformed_pointset_error_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# chain\npointset exact packing_radius 0.5\n0 0 1 0\n\n1 0 1\n")
        code, _, err = run(capsys, ["freq", "--in", str(path)])
        assert code == 2
        assert err.startswith("error: line 5: ") and "Traceback" not in err

    @pytest.mark.parametrize("word", ["abA", "ab{", "ab\u00e9a", "a b"])
    def test_window_letter_outside_alphabet(self, capsys, tmp_path, word):
        path = tmp_path / "bad.txt"
        path.write_text(f"window lo 0 letters {len(word)}\n{word}\n", encoding="utf-8")
        code, _, err = run(capsys, ["autocorr", "--in", str(path), "--lags", "1"])
        assert code == 2
        assert "unknown letter" in err and "Traceback" not in err

    @pytest.mark.parametrize("head", ["window\n", "window lo\n", "window at 0\n"])
    def test_window_header_without_lo(self, capsys, tmp_path, head):
        path = tmp_path / "bad.txt"
        path.write_text(head + "abba\n")
        code, _, err = run(capsys, ["gen", "--in", str(path)])
        assert code == 2
        assert "window lo" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["autocorr", "--silver-mean", "--points", "40", "--zmax", "nan"],
            ["autocorr", "--silver-mean", "--points", "40", "--merge-tol", "inf"],
            ["diffract", "--rule", "period-doubling", "--len", "256", "--dyadic", "3",
             "--rel-tol", "nan"],
            ["diffract", "--rule", "period-doubling", "--len", "256", "--dyadic", "3",
             "--min-intensity", "nan"],
            ["freq", "--silver-mean", "--points", "40", "--k-radius", "inf"],
            ["verify", "smoothing", "--points", "200", "--eps", "inf"],
        ],
        ids=["zmax", "merge-tol", "rel-tol", "min-intensity", "k-radius", "eps"],
    )
    def test_non_finite_scalar_option(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {argv[-2]} must be finite")

    def test_non_finite_option_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("zmax=nan\n")
        code, _, err = run(
            capsys, ["autocorr", "--silver-mean", "--points", "40", "--config", str(cfg)]
        )
        assert code == 2
        assert err.startswith("error: --zmax must be finite")

    def test_zero_extent_chain_is_out_of_range(self, capsys):
        code, _, err = run(capsys, ["modelset", "--points", "1"])
        assert code == 2
        assert "zero extent" in err and "Traceback" not in err


class TestModuleBoxBound:
    @pytest.mark.parametrize(
        "argv",
        [
            ["modelset", "--points", "100", "--box", "1000000000000,1,1"],
            ["diffract", "--silver-mean", "--points", "1000", "--module-box", "99999999999,3,3"],
            ["modelset", "--points", "100", "--box=-1,1,1"],
            ["modelset", "--points", "100", "--box", "inf,1,1"],
        ],
    )
    def test_oversized_or_negative_box_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 10.0  # the box is refused, not listed
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_box_lines_match_single_k_evaluations(self, capsys):
        code, out, _ = run(capsys, ["modelset", "--points", "3000", "--box", "4,2,3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a,b,value,extinct,intensity"
        ps = silver_mean_chain(3000)
        box = module_box(4, 2, 3.0)
        assert len(lines) == len(box) + 1
        for line, k in zip(lines[1:], box):
            a, b, _value, extinct, intensity = line.split(",")
            assert (int(a), int(b)) == (k.a, k.b)
            assert extinct == str(is_extinct(k)).lower()
            assert float(intensity) == pytest.approx(intensity_at(ps, k), rel=1e-11, abs=1e-18)


class TestCandidateCounts:
    @pytest.mark.parametrize("flag", [["--kronecker", "-3"], ["--sobol", "0"]])
    def test_empty_candidate_source_is_usage_error(self, capsys, flag):
        argv = ["diffract", "--rule", "period-doubling", "--len", "4096"] + flag
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err
