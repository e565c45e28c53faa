import csv
import hashlib
import json

import numpy as np
import pytest

from seblocks import cli, nulldist, simulate, twosample
from seblocks.partition import (
    PLAN_NAMES, Sample, block_frequencies, canonical_plan, fit_partition, make_plan,
)

Y_TOY = [
    [1.28, 0.87], [-0.79, -0.96], [0.70, 0.65],
    [-1.23, 1.58], [-0.24, -0.68], [-0.40, 1.36],
]
X_ALT = [
    [-0.25, -1.79], [-2.21, -0.26], [0.11, -1.66], [-1.45, -1.42],
    [0.64, -1.66], [0.81, -1.88], [-3.18, -2.01], [-2.18, -0.61],
]


def write_csv(path, rows, header=None):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def toy_files(tmp_path):
    y = write_csv(tmp_path / "y.csv", Y_TOY)
    x = write_csv(tmp_path / "x.csv", X_ALT)
    return x, y


class TestTestCommand:
    def test_worked_example_from_raw_tables(self, toy_files, capsys):
        x, y = toy_files
        code = cli.main(["test", "--x", x, "--y", y, "--test", "wilcoxon", "--plan", "spiral"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 40
        assert payload["p_two_sided"] == pytest.approx(0.008, abs=5e-4)

    def test_decide_exit_code(self, toy_files, capsys):
        x, y = toy_files
        code = cli.main([
            "test", "--x", x, "--y", y, "--test", "wilcoxon", "--plan", "spiral",
            "--decide", "--alpha", "0.05",
        ])
        assert code == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["reject"] is True

    def test_identical_files_tie_error(self, tmp_path, capsys):
        path = write_csv(tmp_path / "same.csv", Y_TOY)
        code = cli.main(["test", "--x", path, "--y", path, "--test", "wilcoxon"])
        assert code == 1
        assert "tie-error" in capsys.readouterr().err

    def test_runs_univariate(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[-4.62], [-1.56], [-0.21], [0.13], [0.27]])
        y = write_csv(tmp_path / "y.csv", [[-0.36], [0.00], [0.75], [3.32]])
        code = cli.main(["test", "--x", x, "--y", y, "--test", "runs"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 6

    def test_dimension_mismatch(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[1.0, 2.0]])
        y = write_csv(tmp_path / "y.csv", [[1.0], [2.0]])
        assert cli.main(["test", "--x", x, "--y", y]) == 1
        assert "mismatch" in capsys.readouterr().err

    def test_malformed_csv_names_row(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0,oops\n")
        y = write_csv(tmp_path / "y.csv", Y_TOY)
        assert cli.main(["test", "--x", str(path), "--y", y]) == 1
        assert "row 2" in capsys.readouterr().err

    def test_a_bad_row_is_named_by_its_line_in_the_file(self, tmp_path, capsys):
        # blank lines count: the spreadsheet and the editor both call it row 5
        path = tmp_path / "gaps.csv"
        path.write_text("1\n2\n\n\nfoo\n")
        y = write_csv(tmp_path / "y.csv", [[0.5]])
        assert cli.main(["test", "--x", str(path), "--y", y]) == 1
        assert capsys.readouterr().err == f"error: {path}: row 5 has a non-numeric cell: ['foo']\n"

    def test_a_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # the "CSV UTF-8" export of spreadsheets starts with a BOM
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.5,2\n2.5,3\n3.5,4\n")
        assert cli.read_sample_csv(str(path)).points.tolist() == [[1.5, 2], [2.5, 3], [3.5, 4]]
        path.write_bytes(b"\xef\xbb\xbfu,v\n2.5,3\n")
        assert cli.read_sample_csv(str(path)).points.tolist() == [[2.5, 3]]

    def test_header_autodetected(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", X_ALT, header=["u", "v"])
        y = write_csv(tmp_path / "y.csv", Y_TOY)
        code = cli.main(["test", "--x", x, "--y", y, "--test", "empty_block", "--plan", "spiral"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["statistic"] == 5

    def test_header_only_csv_has_no_data_rows(self, tmp_path, capsys):
        x = tmp_path / "hdr.csv"
        x.write_text("a,b\n")
        y = write_csv(tmp_path / "y.csv", Y_TOY)
        assert cli.main(["test", "--x", str(x), "--y", y]) == 1
        assert capsys.readouterr().err == f"error: {x}: no data rows\n"

    @pytest.mark.parametrize("flags, code", [([], 1), (["--on-ties", "perturb"], 0)])
    def test_runs_and_a_tie_inside_the_reference_sample(self, tmp_path, capsys, flags, code):
        x = write_csv(tmp_path / "x.csv", [[0.5], [2.5]])
        y = write_csv(tmp_path / "y.csv", [[1.0], [1.0], [3.0]])
        assert cli.main(["test", "--x", x, "--y", y, "--test", "runs", *flags]) == code
        out, err = capsys.readouterr()
        if code:
            assert "tie-error" in err
        else:
            # 0.5 lies below both copies of 1.0, 2.5 between them and 3.0
            assert json.loads(out)["statistic"] == 4

    def test_table_and_csv_output(self, toy_files, capsys):
        x, y = toy_files
        assert cli.main(["test", "--x", x, "--y", y, "--output", "table"]) == 0
        out = capsys.readouterr().out
        assert "statistic" in out and "40" in out
        assert cli.main(["test", "--x", x, "--y", y, "--output", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2 and "statistic" in lines[0]

    def test_partition_sample_swap_warns_and_perturbs(self, toy_files, capsys):
        # the alternative sample repeats one coordinate value, so swapping
        # the roles needs the deterministic tie perturbation
        x, y = toy_files
        code = cli.main([
            "test", "--x", x, "--y", y, "--partition-sample", "x",
            "--test", "empty_block", "--plan", "spiral", "--on-ties", "perturb",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "smaller than the partitioning sample" in captured.err
        payload = json.loads(captured.out)
        assert payload["m"] == 6 and payload["n"] == 8

    def test_csv_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        sample = Sample(rng.standard_normal((9, 3)))
        path = tmp_path / "s.csv"
        cli.write_sample_csv(str(path), sample)
        back = cli.read_sample_csv(str(path))
        assert np.array_equal(back.points, sample.points)

    @pytest.mark.parametrize("label", [*PLAN_NAMES, "sp", "ss", "stair-step", "SPIRAL"])
    def test_every_plan_label_gives_the_library_result(self, tmp_path, capsys, label):
        # the univariate plans fit the first coordinate alone
        cols = slice(0, 1) if label.startswith("univariate") else slice(None)
        x_pts, y_pts = np.array(X_ALT)[:, cols], np.array(Y_TOY)[:, cols]
        x = write_csv(tmp_path / "x.csv", x_pts)
        y = write_csv(tmp_path / "y.csv", y_pts)
        assert cli.main(["test", "--x", x, "--y", y, "--plan", label]) == 0
        payload = json.loads(capsys.readouterr().out)
        plan = make_plan(label, y_pts.shape[1], len(y_pts))
        freqs = block_frequencies(fit_partition(plan, Sample(y_pts)), Sample(x_pts))
        expected = twosample.block_test("wilcoxon", freqs, method="auto").to_json_dict()
        for key in ("statistic", "p_lower", "p_upper", "p_two_sided", "p_value"):
            assert payload[key] == expected[key], key
        assert payload["plan"] == canonical_plan(label)

    def test_runs_refuses_an_unknown_plan(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[-4.62], [-1.56], [0.27]])
        y = write_csv(tmp_path / "y.csv", [[-0.36], [0.75]])
        argv = ["test", "--x", x, "--y", y, "--test", "runs", "--plan", "no_such_plan"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: unknown plan label 'no_such_plan'\n"

    def test_a_runs_report_has_no_plan_key(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[-4.62], [-1.56], [-0.21], [0.13], [0.27]])
        y = write_csv(tmp_path / "y.csv", [[-0.36], [0.00], [0.75], [3.32]])
        assert cli.main(["test", "--x", x, "--y", y, "--test", "runs", "--plan", "ss"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["statistic"] == 6 and "plan" not in payload

    def test_runs_refuses_a_value_both_samples_hold(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[1.0], [2.5]])
        y = write_csv(tmp_path / "y.csv", [[1.0], [3.0]])
        assert cli.main(["test", "--x", x, "--y", y, "--test", "runs"]) == 1
        assert capsys.readouterr().err == (
            "error: tie-error: cross-sample tied values; the runs count is undefined\n"
        )


    def test_a_boundary_tie_warns_and_a_normal_null_reports_its_moments(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[0.5], [1.5], [2.0], [3.5]])
        y = write_csv(tmp_path / "y.csv", [[1.0], [2.0], [3.0]])
        argv = ["test", "--x", x, "--y", y, "--plan", "univariate", "--method", "normal"]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: 1 tested point(s) tie a partition threshold; "
            "counted by the half-open convention\n"
        )
        payload = json.loads(out)
        assert payload["statistic"] == 15 and payload["method"] == "normal"
        # E[T] = 4 * 28 / 7 and Var[T] = 4 * 3 * (7 * 140 - 28^2) / (7^2 * 6)
        assert (payload["null"], payload["null_mean"], payload["null_variance"]) == (
            "normal", 16.0, 8.0
        )


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["test", "--x", "x.csv", "--y", "y.csv", "--method", "bogus"],
         "seblocks test: argument --method: invalid choice: 'bogus'"),
        (["test", "--y", "y.csv"], "seblocks test: the following arguments are required: --x"),
        ([], "seblocks: the following arguments are required: command"),
        # refused before any null is built, exact (empty_block) or Monte Carlo
        (["test", "--x", "x.csv", "--y", "y.csv", "--test", "empty_block", "--seed", "-2"],
         "seblocks test: argument --seed: must be >= 0, got -2\n"),
        (["test", "--x", "x.csv", "--y", "y.csv", "--draws", "0"],
         "seblocks test: argument --draws: must be >= 1, got 0\n"),
        (["dist", "--statistic", "dixon_c2", "--m", "3", "--n", "3", "--seed", "-1"],
         "seblocks dist: argument --seed: must be >= 0, got -1\n"),
        (["dist", "--statistic", "dixon_c2", "--m", "3", "--n", "3", "--draws", "-5"],
         "seblocks dist: argument --draws: must be >= 1, got -5\n"),
        (["dist", "--statistic", "dixon_c2", "--m", "3", "--n", "3", "--seed", "1.5"],
         "seblocks dist: argument --seed: invalid int value: '1.5'\n"),
    ])
    def test_a_usage_error_is_one_line_and_exit_one(self, capsys, argv, message):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {message}") and err.count("\n") == 1

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["test", "--help"])
        assert exc.value.code == 0
        assert "--plan" in capsys.readouterr().out

    def test_dist_to_a_missing_directory_is_one_line(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        argv = ["dist", "--statistic", "runs", "--m", "3", "--n", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1


class TestDistCommand:
    def test_empty_block_table(self, capsys):
        code = cli.main(["dist", "--statistic", "empty_block", "--m", "8", "--n", "6"])
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0] == ["value", "numerator", "denominator", "probability"]
        values = [int(r[0]) for r in rows[1:]]
        assert values == list(range(0, 7))
        from fractions import Fraction

        assert sum(Fraction(int(r[1]), int(r[2])) for r in rows[1:]) == 1

    def test_runs_support(self, capsys):
        cli.main(["dist", "--statistic", "runs", "--m", "5", "--n", "4"])
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert [int(r[0]) for r in rows[1:]] == list(range(2, 10))

    def test_oracle_cross_check(self, capsys):
        code = cli.main([
            "dist", "--statistic", "precedence", "--m", "5", "--n", "5",
            "--j", "2", "--oracle",
        ])
        assert code == 0
        assert "oracle cross-check passed" in capsys.readouterr().err

    def test_oracle_refuses_a_monte_carlo_law(self, capsys):
        code = cli.main([
            "dist", "--statistic", "linear_rank", "--scores", "mood", "--m", "4", "--n", "3",
            "--method", "monte_carlo", "--oracle",
        ])
        assert code == 1
        assert "--oracle needs an exact pmf" in capsys.readouterr().err

    def test_oracle_fails_on_a_closed_form_with_shifted_counts(self, monkeypatch, capsys):
        right = nulldist.empty_block_pmf

        def shifted(m, n):
            law = right(m, n)
            counts = (law.counts[0] + 1, law.counts[1] - 1, *law.counts[2:])
            return nulldist.Pmf(law.support, counts, law.total, m, n, law.statistic)

        monkeypatch.setattr(nulldist, "empty_block_pmf", shifted)
        argv = ["dist", "--statistic", "empty_block", "--m", "4", "--n", "3", "--oracle"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "error: oracle cross-check FAILED: closed form disagrees with enumeration\n"
        )

    def test_oracle_all_statistics(self, capsys):
        for stat in ("empty_block", "maximal_block", "runs", "interior_exterior", "dixon_c2", "linear_rank"):
            code = cli.main(["dist", "--statistic", stat, "--m", "4", "--n", "3", "--oracle"])
            assert code == 0, stat

    def test_capacity_suggests_monte_carlo(self, capsys):
        code = cli.main([
            "dist", "--statistic", "dixon_c2", "--m", "60", "--n", "60",
            "--method", "exact",
        ])
        assert code == 1
        assert "monte_carlo" in capsys.readouterr().err

    def test_a_malformed_cap_is_one_error_line(self, monkeypatch, capsys):
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", "abc")
        assert cli.main(["dist", "--statistic", "dixon_c2", "--m", "4", "--n", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: SEBLOCKS_ENUM_CAP ") and err.count("\n") == 1

    def test_a_cap_past_the_int64_ranks_is_one_error_line(self, monkeypatch, capsys):
        # C(80, 40) = 1.1e23 arrangements: refused before any is enumerated
        monkeypatch.setenv("SEBLOCKS_ENUM_CAP", str(10**26))
        argv = ["dist", "--statistic", "dixon_c2", "--m", "40", "--n", "40", "--method", "exact"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"error: SEBLOCKS_ENUM_CAP must be below 2^63, got '{10**26}'\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "pmf.csv"
        code = cli.main([
            "dist", "--statistic", "maximal_block", "--m", "4", "--n", "4",
            "--out", str(out),
        ])
        assert code == 0 and out.exists()

    # recorded before pmfs held integer counts
    PINNED_CSV = {
        ("empty_block", "4", "3"): (
            "value,numerator,denominator,probability\r\n"
            "0,1,35,0.02857142857142857\r\n1,12,35,0.34285714285714286\r\n"
            "2,18,35,0.5142857142857142\r\n3,4,35,0.11428571428571428\r\n"
        ),
        ("dixon_c2", "3", "2"): (
            "value,numerator,denominator,probability\r\n"
            "0.0,1,10,0.1\r\n0.2222222222222222,3,5,0.6\r\n0.6666666666666666,3,10,0.3\r\n"
        ),
        ("interior_exterior", "3", "2"): (
            "s0_in,s0_ex,numerator,denominator,probability\r\n"
            "0,0,1,10,0.1\r\n0,1,2,5,0.4\r\n0,2,1,10,0.1\r\n1,0,1,5,0.2\r\n1,1,1,5,0.2\r\n"
        ),
    }

    @pytest.mark.parametrize("stat, m, n", list(PINNED_CSV))
    def test_csv_output_is_pinned(self, stat, m, n, capsys):
        assert cli.main(["dist", "--statistic", stat, "--m", m, "--n", n]) == 0
        assert capsys.readouterr().out == self.PINNED_CSV[stat, m, n]

    @pytest.mark.parametrize("stat, m, n", list(PINNED_CSV))
    def test_json_output_lists_the_csv_atoms(self, stat, m, n, capsys):
        argv = ["dist", "--statistic", stat, "--m", m, "--n", n]
        assert cli.main([*argv, "--output", "json"]) == 0
        atoms = json.loads(capsys.readouterr().out)
        rows = list(csv.reader(self.PINNED_CSV[stat, m, n].splitlines()))[1:]
        assert len(atoms) == len(rows)
        for atom, row in zip(atoms, rows):
            assert list(atom) == ["value", "numerator", "denominator", "probability"]
            value = atom["value"] if isinstance(atom["value"], list) else [atom["value"]]
            shown = [repr(v) if isinstance(v, float) else str(v) for v in value]
            fields = [atom["numerator"], atom["denominator"], repr(atom["probability"])]
            assert shown + [str(f) for f in fields] == row

    def test_table_output_rejected_for_a_pmf(self, capsys):
        for stat in ("empty_block", "interior_exterior"):
            argv = ["dist", "--statistic", stat, "--m", "3", "--n", "2", "--output", "table"]
            assert cli.main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert len(captured.err.strip().splitlines()) == 1 and "table" in captured.err

    def test_normal_approximation_formats(self, capsys):
        argv = ["dist", "--statistic", "linear_rank", "--scores", "klotz", "--m", "3",
                "--n", "2", "--method", "normal", "--output"]
        assert cli.main([*argv, "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["mean", "variance", "m", "n"]
        assert cli.main([*argv, "table"]) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("mean")

    def test_unknown_statistic(self, capsys):
        assert cli.main(["dist", "--statistic", "entropy", "--m", "3", "--n", "3"]) == 1

    @pytest.mark.parametrize("family", ["vdw", "th"])
    def test_an_unknown_score_family_lists_the_known_ones(self, toy_files, capsys, family):
        x, y = toy_files
        known = "wilcoxon van_der_waerden terry_hoeffding mood klotz siegel_tukey"
        for argv in (["dist", "--statistic", "linear_rank", "--m", "3", "--n", "3"],
                     ["test", "--x", x, "--y", y]):
            assert cli.main([*argv, "--scores", family]) == 1
            err = capsys.readouterr().err
            assert err == f"error: unknown score family {family!r}; known: {known}\n"


class TestPowerCommand:
    def make_config(self, tmp_path, **overrides):
        cfg = {
            "m": 15, "n": 15, "p": 2, "alpha": 0.05, "replicates": 40,
            "seed": 11, "null_draws": 1500,
            "runs": [
                {"scenario": 3, "c": 2.0, "tests": [
                    {"test": "wilcoxon", "plan": "spiral"},
                    {"test": "empty_block", "plan": "stairstep"},
                ]},
            ],
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_csv_output(self, tmp_path, capsys):
        code = cli.main(["power", "--config", self.make_config(tmp_path)])
        assert code == 0
        rows = list(csv.reader(capsys.readouterr().out.strip().splitlines()))
        assert rows[0][0] == "scenario"
        assert len(rows) == 3

    def test_same_seed_same_output(self, tmp_path):
        cfg = self.make_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["power", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["power", "--config", cfg, "--out", str(out2)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_zero_replicates_rejected(self, tmp_path, capsys):
        code = cli.main(["power", "--config", self.make_config(tmp_path, replicates=0)])
        assert code == 1

    def test_parse_error_reports_line(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n "m": 10,\n broken\n}')
        assert cli.main(["power", "--config", str(path)]) == 1
        assert "line 3" in capsys.readouterr().err

    def test_missing_keys(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"m": 5}))
        assert cli.main(["power", "--config", str(path)]) == 1
        assert "replicates" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("5", "the top level must be a JSON object"),
        ('{"replicates": 2, "seed": 1, "runs": [5]}', "'runs' must be a non-empty list of objects"),
        ('{"replicates": 2.9, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'replicates' must be an integer, got 2.9"),
        ('{"m": 5.7, "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'm' must be an integer, got 5.7"),
        ('{"n": true, "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'n' must be an integer, got True"),
        ('{"p": "3", "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'p' must be an integer, got '3'"),
        ('{"replicates": 2, "seed": 1.0, "runs": [{"tests": "ALL"}]}',
         "top level: 'seed' must be an integer, got 1.0"),
        ('{"replicates": 2, "seed": 1, "null_draws": 2e3, "runs": [{"tests": "ALL"}]}',
         "top level: 'null_draws' must be an integer, got 2000.0"),
        ('{"replicates": 2, "seed": 1, "workers": false, "runs": [{"tests": "ALL"}]}',
         "top level: 'workers' must be an integer, got False"),
        ('{"replicates": 2, "seed": 1, "runs": [{"scenario": 3.0, "c": 2.0, "tests": "ALL"}]}',
         "runs[0]: 'scenario' must be an integer, got 3.0"),
        ('{"alpha": true, "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'alpha' must be a number, got True"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}, {"c": false, "tests": "ALL"}]}',
         "runs[1]: 'c' must be a number, got False"),
        ('{"alpha": null, "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'alpha' must be a number, got None"),
        ('{"alpha": "0.05", "replicates": 2, "seed": 1, "runs": [{"tests": "ALL"}]}',
         "top level: 'alpha' must be a number, got '0.05'"),
        ('{"replicates": 2, "seed": 1, "runs": [{"c": "0", "tests": "ALL"}]}',
         "runs[0]: 'c' must be a number, got '0'"),
        ('{"replicates": 2, "seed": 1, "runs": [{"scenario": 0}]}',
         "runs[0]: missing required key 'tests'"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": "all"}]}',
         "runs[0]: 'tests' must be \"ALL\" or a non-empty list of objects"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [5]}]}',
         "runs[0]: 'tests' must be \"ALL\" or a non-empty list of objects"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [{"test": 5}]}]}',
         "runs[0].tests[0]: 'test' must be a string, got 5"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [{"test": null}]}]}',
         "runs[0].tests[0]: 'test' must be a string, got None"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [{"plan": "spiral"}]}]}',
         "runs[0].tests[0]: missing required key 'test'"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [{"test": "rs", "plan": 5}]}]}',
         "runs[0].tests[0]: 'plan' must be a string, got 5"),
        ('{"replicates": 2, "seed": 1, "runs": [{"tests": [{"test": "rs", "alternative": 3}]}]}',
         "runs[0].tests[0]: 'alternative' must be a string or null, got 3"),
        ('{"replicates": 2, "seed": -1, "runs": [{"tests": "ALL"}]}', "seed must be >= 0"),
        ('{"replicates": 2, "seed": 1, "null_draws": 0, "runs": [{"tests": "ALL"}]}',
         "null_draws must be >= 1"),
    ])
    def test_malformed_config_is_one_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert cli.main(["power", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_shipped_configs_resolve(self):
        for name in ("tables_6_8_spotcheck", "tables_6_8_full"):
            cfg = cli._load_power_config(name)
            assert cfg["m"] == 200 and cfg["runs"]

    def test_unknown_config(self, capsys):
        assert cli.main(["power", "--config", "no_such_config"]) == 1

    @pytest.mark.parametrize("key", ["null_draw", "randomize_roles", "permute_columns"])
    def test_an_unknown_top_level_key_is_refused(self, tmp_path, capsys, key):
        path = self.make_config(tmp_path, **{key: False})
        assert cli.main(["power", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: top level: unknown key {key!r}; known: "
            "m n p alpha replicates seed null_draws workers runs\n"
        )

    def test_an_unknown_run_key_is_refused(self, tmp_path, capsys):
        path = self.make_config(tmp_path, runs=[{"scenario": 3, "cc": 2.0, "tests": "ALL"}])
        assert cli.main(["power", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: runs[0]: unknown key 'cc'; known: scenario c tests\n"
        )

    def test_an_unknown_test_key_is_refused(self, tmp_path, capsys):
        tests = [{"test": "wilcoxon"}, {"test": "precedence", "alternatve": "lower"}]
        path = self.make_config(tmp_path, runs=[{"scenario": 0, "tests": tests}])
        assert cli.main(["power", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: runs[0].tests[1]: unknown key 'alternatve'; "
            "known: test plan j alternative\n"
        )

    @pytest.mark.parametrize("j", [2.5, True, "2"])
    def test_a_j_that_is_not_an_integer_is_refused(self, tmp_path, capsys, j):
        tests = [{"test": "wilcoxon"}, {"test": "precedence", "j": j}]
        path = self.make_config(tmp_path, runs=[{"scenario": 0, "tests": tests}])
        assert cli.main(["power", "--config", path]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: runs[0].tests[1]: 'j' must be an integer or null, got {j!r}\n"
        )

    def test_a_null_j_takes_the_default(self, tmp_path):
        tests = [{"test": "precedence", "j": None}, {"test": "precedence"}]
        path = self.make_config(tmp_path, replicates=5, runs=[{"scenario": 0, "tests": tests}])
        assert cli.main(["power", "--config", path, "--out", str(tmp_path / "out")]) == 0
        first, second = json.loads((tmp_path / "out.json").read_text())["results"]
        assert first == second

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_a_worker_flag_below_one_is_refused(self, tmp_path, capsys, workers):
        path = self.make_config(tmp_path, workers=2)
        assert cli.main(["power", "--config", path, "--workers", workers]) == 1
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"

    def test_a_config_worker_count_below_one_is_refused(self, tmp_path, capsys):
        path = self.make_config(tmp_path, workers=0)
        assert cli.main(["power", "--config", path, "--workers", "1"]) == 1
        assert capsys.readouterr().err == f"error: {path}: workers must be >= 1\n"

    def test_a_replicate_that_keeps_tying_is_one_line(self, tmp_path, capsys, monkeypatch):
        def constant(spec, rng):
            return np.zeros((spec.m, spec.p)), np.zeros((spec.n, spec.p))

        monkeypatch.setattr(simulate, "generate_scenario", constant)
        assert cli.main(["power", "--config", self.make_config(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: replicate 0 ") and err.count("\n") == 1

    # digests of the CSV and JSON files, recorded before the assignment
    # kernel counted thresholds per (column, direction) pair; m != n, so
    # both role assignments run, and every plan name, score, block and
    # Dixon column and the j and alternative keys are covered
    @pytest.mark.parametrize("cfg, csv_md5, json_md5", [
        ({"m": 26, "n": 19, "p": 3, "alpha": 0.1, "replicates": 200, "seed": 20261018,
          "null_draws": 2000, "runs": [
              {"scenario": 2, "c": 1.5, "tests": [
                  {"test": "wilcoxon", "plan": "spiral"},
                  {"test": "van_der_waerden", "plan": "spiral_cycle_all", "alternative": "lower"},
                  {"test": "terry_hoeffding", "plan": "spiral_paired"},
                  {"test": "mood", "plan": "stairstep"},
                  {"test": "klotz", "plan": "stairstep_max", "alternative": "upper"},
                  {"test": "siegel_tukey", "plan": "stairstep_cycle_all"},
                  {"test": "dixon_c2", "plan": "stairstep_reversing"},
                  {"test": "precedence", "plan": "spiral", "j": 4},
                  {"test": "maximal_block", "plan": "stairstep", "j": 6},
                  {"test": "empty_block", "plan": "spiral_paired"},
              ]},
              {"scenario": 0, "tests": "ALL"},
          ]},
         "42ab68d91738f67f0f5516615b028df0", "56c3e354192cc48735ca6462b63ee59a"),
        ({"m": 14, "n": 17, "p": 1, "replicates": 200, "seed": 7, "null_draws": 2000,
          "runs": [{"scenario": 4, "c": 3.0, "tests": [
              {"test": "wilcoxon", "plan": "univariate"},
              {"test": "empty_block", "plan": "univariate_desc"},
              {"test": "runs"},
          ]}]},
         "fbbd18720af34e267004d5fd1af94e91", "395dcfb52d3a51aa1047cad01299a727"),
    ], ids=["p3", "univariate"])
    def test_output_files_are_pinned(self, tmp_path, cfg, csv_md5, json_md5):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["power", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert hashlib.md5((tmp_path / "out.csv").read_bytes()).hexdigest() == csv_md5
        assert hashlib.md5((tmp_path / "out.json").read_bytes()).hexdigest() == json_md5

    def test_a_missing_out_directory_is_refused_before_the_study(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_study(*args, **kwargs):
            raise AssertionError("the study ran")

        monkeypatch.setattr(simulate, "run_power_study", no_study)
        out = tmp_path / "missing" / "out"
        path = self.make_config(tmp_path)
        assert cli.main(["power", "--config", path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {out}: the output directory does not exist\n"
        )
