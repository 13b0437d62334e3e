"""End-to-end command line checks: round trips, exit codes, determinism."""

import itertools
import json
import time

import numpy as np
import pytest

from diffspec import cli
from diffspec.delone import PointSet1D, cluster_frequency, enumerate_k_clusters
from diffspec.factors import apply_block_map
from diffspec.modelset import intensity_at, is_extinct, module_box, silver_mean_chain
from diffspec.subshift import SymbolicWindow, fixed_point_window, rule_by_name


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

    def test_point_set_rows_count_their_pairs(self, capsys):
        code, out, _ = run(
            capsys, ["autocorr", "--silver-mean", "--points", "1000", "--zmax", "3"]
        )
        assert code == 0
        rows = {float(ln.split(",")[0]): ln for ln in out.strip().splitlines()[1:]}
        # the value at 0 sums the 1000 pairs (x, x); the 999 gaps are 1 or 1 + sqrt(2)
        assert rows[0.0] == "0,0.500287918549,0,1000"
        assert sum(int(rows[z].split(",")[3]) for z in rows if z > 0) == 999

    def test_point_set_rows_mirror_without_negative_zero(self, capsys):
        code, out, _ = run(
            capsys, ["autocorr", "--silver-mean", "--points", "1000", "--zmax", "3"]
        )
        assert code == 0
        lines = out.strip().splitlines()[1:]
        assert not [ln for ln in lines if ",-0," in ln]
        # unit weights give real values: each row at -z reads as the row at z
        neg = [ln for ln in lines if ln.startswith("-")]
        pos = [ln for ln in lines if not ln.startswith(("-", "0,"))]
        assert [ln[1:] for ln in neg[::-1]] == pos
        assert pos[0] == "1,0.146084072216,0,292"

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

    @pytest.mark.parametrize("threads", ["-1", "0"])
    def test_threads_below_one_are_out_of_range(self, capsys, threads):
        code, out, err = run(capsys, self.ARGS + ["--threads", threads])
        assert code == 2 and out == ""
        assert err == f"error: --threads must be at least 1, got {threads}\n"

    @pytest.mark.parametrize("argv", [
        ["gen", "--rule", "thue-morse", "--len", "16"],
        ["autocorr", "--rule", "thue-morse", "--len", "16"],
        ["factor", "--rule", "thue-morse", "--len", "16"],
        ["freq", "--rule", "thue-morse", "--len", "16"],
        ["verify", "dual-route"],
        ["modelset", "--points", "40"],
    ], ids=lambda argv: argv[0])
    def test_threads_is_a_diffract_flag_only(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_threads_do_not_change_pointset_output(self, tmp_path):
        # float candidates on a point set are the rows the threads serve
        args = ["diffract", "--silver-mean", "--points", "20000", "--kronecker", "16"]
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(args + ["--threads", "1", "--out", str(p1)]) == 0
        assert cli.main(args + ["--threads", "2", "--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_fejer_grid_is_the_circle(self, capsys):
        args = ["--rule", "period-doubling", "--len", "4096", "--weights", "a=1,b=-1"]
        code, out, _ = run(capsys, ["diffract", *args, "--dyadic", "6", "--fejer", "64"])
        assert code == 0
        grid = json.loads(out)["grid"]
        assert (grid["min"], grid["max"], grid["step"]) == (0.0, 1.0, 1 / 1024)
        assert len(grid["values"]) == 1024
        # the grid masses total eta(0), which is 1 for weights +-1
        assert sum(grid["values"]) == pytest.approx(1.0, abs=1e-9)

    def test_fejer_zero_lags_is_the_constant_density(self, capsys):
        code, out, _ = run(capsys, [
            "diffract", "--rule", "thue-morse", "--len", "1024", "--weights", "a=1,b=-1",
            "--dyadic", "2", "--fejer", "0",
        ])
        assert code == 0
        values = json.loads(out)["grid"]["values"]
        assert values == [1 / 1024] * 1024

    def test_exactly_one_candidate_source(self, capsys):
        base = ["diffract", "--rule", "thue-morse", "--len", "256"]
        code, _, err = run(capsys, base + ["--dyadic", "2", "--sobol", "8"])
        assert code == 2 and "exactly one" in err
        code, _, err = run(capsys, base)
        assert code == 2 and "exactly one" in err


class TestFactorAndFreq:
    def test_factor_reports_the_block_check(self, capsys):
        code, out, _ = run(capsys, ["factor", "--rule", "thue-morse", "--len", "256", "--g", "xor"])
        assert code == 0
        lines = out.splitlines()
        sites = int(lines[0].split()[-1])  # factor lo LO letters N
        assert lines[-1] == f"blocks ok sites {sites} max_dev 0"

    def test_factor_names_the_first_site_that_disagrees(self, capsys, monkeypatch):
        # an image one site off its blocks is a property violation: exit 1
        def rolled(window, g):
            image = apply_block_map(window, g)
            return SymbolicWindow(np.roll(image.letters, 1), image.lo, dict(image.weights))

        monkeypatch.setattr(cli, "apply_block_map", rolled)
        code, out, _ = run(capsys, ["factor", "--rule", "thue-morse", "--len", "64", "--g", "xor"])
        assert code == 1
        sites, first = out.splitlines()[-1].split(" first_site ")
        assert sites.startswith("blocks violated sites ") and sites.endswith(" max_dev 1")
        assert int(first) < 0

    @pytest.mark.parametrize("shifts", ["0", "-5"])
    def test_factor_refuses_fewer_than_one_shift(self, capsys, shifts):
        # --shifts is gone with the shift check: any count is refused as
        # an unknown flag, before anything is written
        with pytest.raises(SystemExit) as exc:
            cli.main(["factor", "--rule", "thue-morse", "--len", "64", "--shifts", shifts])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --shifts {shifts}" in captured.err
        assert "Traceback" not in captured.err

    def test_identity_factor_reads_an_unweighted_letter_as_0(self, capsys):
        argv = ["factor", "--rule", "thue-morse", "--len", "64", "--weights", "a=1"]
        code, out, err = run(capsys, argv + ["--g", "identity"])
        assert code == 0, err
        head, word, *value_lines, _ = out.splitlines()
        values = {ln.split()[1]: complex(ln.split()[3].replace("i", "j")) for ln in value_lines}
        window = fixed_point_window(rule_by_name("thue-morse"), 0, 64, weights={0: 1.0})
        assert head == f"factor lo {window.lo} letters {len(window)}"
        assert [values[c] for c in word] == window.values().tolist()

    def test_factor_builds_the_unshifted_image_once(self, capsys, monkeypatch):
        from diffspec import factors

        original, calls = factors.apply_block_map, []

        def counting(window, g):
            calls.append(window.lo)
            return original(window, g)

        monkeypatch.setattr(cli, "apply_block_map", counting)
        monkeypatch.setattr(factors, "apply_block_map", counting)
        argv = ["factor", "--rule", "thue-morse", "--len", "256", "--g", "xor"]
        code, _, _ = run(capsys, argv)
        assert code == 0
        # one image of the window; the check reads its blocks off the
        # window's letters, not off a second image
        assert len(calls) == 1

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

    @pytest.mark.parametrize("extra", [[], ["--rule", "thue-morse"]], ids=["alone", "with-rule"])
    def test_pf_column_follows_rule_file(self, capsys, tmp_path, extra):
        rule = tmp_path / "fib.txt"
        rule.write_text("a -> ab\nb -> a\n")
        code, out, err = run(
            capsys,
            ["freq", "--rule-file", str(rule), "--len", "4096", "--maxlen", "1"] + extra,
        )
        if extra:  # a second source is refused, not silently overridden
            assert code == 2 and out == ""
            assert err.startswith("error: give one source") and "Traceback" not in err
            return
        assert code == 0
        rows = {ln.split(",")[0]: ln.split(",") for ln in out.strip().splitlines()[1:]}
        assert float(rows["a"][1]) == pytest.approx(0.618034, abs=1e-3)
        assert float(rows["a"][2]) == pytest.approx(0.618034, abs=1e-6)
        assert float(rows["b"][2]) == pytest.approx(0.381966, abs=1e-6)

    def test_pf_column_empty_for_window_file(self, capsys, tmp_path):
        path = tmp_path / "fib.txt"
        assert cli.main(["gen", "--rule", "fibonacci", "--len", "64", "--out", str(path)]) == 0
        code, out, _ = run(
            capsys, ["freq", "--in", str(path), "--maxlen", "1"]
        )
        assert code == 0
        assert all(ln.endswith(",") for ln in out.strip().splitlines()[1:])

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

    def test_factor_refuses_an_image_of_more_than_26_values(self, capsys, tmp_path):
        # every word of length 5 its own value: image ids run up to 31,
        # past the 26 letter names a..z
        words = ["".join(w) for w in itertools.product("ab", repeat=5)]
        path = tmp_path / "map.txt"
        path.write_text("offset 0 length 5\n" + "".join(f"{w} -> {i}\n" for i, w in enumerate(words)))
        code, out, err = run(
            capsys, ["factor", "--rule", "thue-morse", "--len", "256", "--map-file", str(path)]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: letter id 26 has no name") and "26 letters" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_factor_refuses_more_outputs_than_letter_ids(self, capsys, tmp_path):
        # every word of length 16 its own value: 65536 outputs, past the
        # 32768 ids an int16 window holds
        words = ["".join(w) for w in itertools.product("ab", repeat=16)]
        path = tmp_path / "map.txt"
        path.write_text("offset 0 length 16\n" + "".join(f"{w} -> {i}\n" for i, w in enumerate(words)))
        code, out, err = run(
            capsys, ["factor", "--rule", "thue-morse", "--len", "64", "--map-file", str(path)]
        )
        assert code == 2 and out == ""
        assert err == ("error: block map has 65536 distinct outputs, "
                       "more than the 32768 letter ids of a window\n")

    @pytest.mark.parametrize("lines, named", [
        ("a -> nan\nb -> 1e300\n", "(nan+0j)"),
        ("a -> 1\nb -> 1e300\n", "(1e+300+0j)"),
        ("a -> inf\nb -> 1\n", "(inf+0j)"),
        ("a -> 1\n* -> nan\n", "(nan+0j)"),
        ("a -> 1\nb -> 1.7e308+1.7e308i\n", "(1.7e+308+1.7e+308j)"),
    ])
    def test_factor_refuses_map_values_that_weights_refuse(self, capsys, tmp_path, lines, named):
        path = tmp_path / "map.txt"
        path.write_text("offset 0 length 1\n" + lines)
        code, out, err = run(
            capsys, ["factor", "--rule", "thue-morse", "--len", "64", "--map-file", str(path)]
        )
        assert code == 2 and out == ""
        assert err == f"error: block map value {named} is not finite or above 1e+100\n"

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

    def test_dual_route_suite_on_a_short_window(self, capsys):
        # 31 values support 13 lags: the distributions take those, and a
        # --lags past them is refused naming that lag
        code, out, err = run(capsys, ["verify", "dual-route", "--len", "16", "--lags", "1"])
        assert code == 0 and err == ""
        assert out.startswith("suite dual-route: PASS\n") and "lags = 1\n" in out
        code, out, err = run(capsys, ["verify", "dual-route", "--len", "16", "--lags", "14"])
        assert code == 2 and out == ""
        assert err == "error: 31 values cannot support max_lag 14 (need 32)\n"

    def test_negative_lag_of_the_dual_route_suite_is_out_of_range(self, capsys):
        code, out, err = run(capsys, ["verify", "dual-route", "--lags", "-1"])
        assert code == 2 and out == ""
        assert err == "error: max_lag -1 must be nonnegative\n"

    @pytest.mark.parametrize("points", [1, 2, 3, 4, 5])
    def test_inflation_suite_on_a_chain_without_extent_is_out_of_range(self, capsys, points):
        # the chain, or the inflated chain it leaves, has zero extent
        code, out, err = run(capsys, ["verify", "inflation", "--points", str(points)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: a sample of {points} point(s) inflates to ")
        assert err.endswith(": no extent\n") and err.count("\n") == 1

    @pytest.mark.parametrize("points", [3, 4, 5])
    def test_smoothing_suite_on_a_locator_set_without_extent_is_out_of_range(
        self, capsys, points
    ):
        # the one singleton locator point of a chain this short has no extent
        code, out, err = run(capsys, ["verify", "smoothing", "--points", str(points)])
        assert code == 2 and out == ""
        assert err == f"error: a sample of {points} point(s) has 1 locator point(s): no extent\n"

    @pytest.mark.parametrize(
        "suite, flag",
        [("dual-route", "--points"), ("word-freq", "--eps"), ("smoothing", "--rule"),
         ("inflation", "--len"), ("extinction", "--maxlen")],
    )
    def test_a_flag_the_suite_does_not_read_exits_2_naming_it(self, capsys, suite, flag):
        code, out, err = run(capsys, ["verify", suite, flag, "3"])
        assert code == 2 and out == ""
        assert err == f"error: verify {suite} reads no {flag}\n"

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

    # a rule file next to --rule is test_pf_column_follows_rule_file[with-rule]
    @pytest.mark.parametrize("argv", [
        ["gen", "--rule", "thue-morse", "--silver-mean"],
        ["freq", "--in", "WINDOW", "--rule", "fibonacci"],
        ["autocorr", "--in", "WINDOW", "--silver-mean", "--weights", "a=1,b=-1"],
    ], ids=["rule-and-silver-mean", "in-and-rule", "in-and-silver-mean"])
    def test_two_sources_are_a_usage_error(self, capsys, tmp_path, argv):
        window = tmp_path / "window.txt"
        window.write_text("window lo 0 letters 3\naba\n")
        argv = [str(window) if a == "WINDOW" else a for a in argv]
        code, out, err = run(capsys, argv + ["--len", "64", "--points", "40"])
        assert code == 2 and out == ""
        assert err.startswith("error: give one source") and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["gen", "--silver-mean", "--points", "4", "--weights", "a=2,b=-1"],
        ["diffract", "--silver-mean", "--points", "2000", "--weights", "a=5",
         "--candidates", "0"],
        ["diffract", "--in", "POINTS", "--weights", "a=5", "--candidates", "0"],
    ], ids=["gen-silver-mean", "diffract-silver-mean", "diffract-pointset-file"])
    def test_weights_with_a_point_set_are_a_usage_error(self, capsys, tmp_path, argv):
        points = tmp_path / "points.txt"
        points.write_text(silver_mean_chain(40).serialize())
        argv = [str(points) if a == "POINTS" else a for a in argv]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --weights") and "Traceback" not in err

    def test_negative_zmax_is_out_of_range(self, capsys):
        code, out, err = run(
            capsys, ["autocorr", "--silver-mean", "--points", "40", "--zmax", "-1"]
        )
        assert code == 2 and out == ""
        assert err.startswith("error: z_max") and "Traceback" not in err

    def test_negative_merge_tol_is_out_of_range(self, capsys):
        code, out, err = run(
            capsys, ["autocorr", "--silver-mean", "--points", "40", "--merge-tol", "-1"]
        )
        assert code == 2 and out == ""
        assert err == "error: merge_tol -1.0 must be nonnegative\n"

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
        "text",
        ["window lo -4 letters 99\nabaababa\n", "window lo -4 letters 8\nabaababa\nabaab\n"],
        ids=["letters-mismatch", "second-word-line"],
    )
    def test_window_file_must_match_its_header(self, capsys, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, out, err = run(capsys, ["gen", "--in", str(path)])
        assert code == 2 and out == ""
        assert err.startswith("error: window") and "Traceback" not in err

    def test_window_file_comments_are_not_word_lines(self, capsys, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("# fib\nwindow lo -4 letters 8\n\n  # indented\nabaababa\n# end\n")
        code, out, _ = run(capsys, ["gen", "--in", str(path)])
        assert (code, out) == (0, "window lo -4 letters 8\nabaababa\n")

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

    @pytest.mark.parametrize("radius, shown", [("-1", "-1"), ("-1e-10", "-1e-10")])
    def test_negative_cluster_radius_is_named(self, capsys, radius, shown):
        # -1e-10 lies within the merge tolerance of 0, yet is refused too
        code, out, err = run(
            capsys, ["freq", "--silver-mean", "--points", "50", f"--k-radius={radius}"]
        )
        assert (code, out) == (2, "")
        assert err == f"error: cluster radius K = {shown} must be nonnegative\n"

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

    @pytest.mark.parametrize("level", ["-1", "25", str(10**18)])
    def test_dyadic_level_past_the_limit_is_out_of_range(self, capsys, level):
        argv = ["diffract", "--rule", "period-doubling", "--len", "64", "--dyadic", level]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: --dyadic level must be in 0..24")
        assert f"the limit of {2**24}" in err and err.count("\n") == 1
