"""CLI end-to-end: subcommands, exit codes, config files, determinism."""

import csv
import json
import math

import pytest

from hgspdc import engine, oracle, reference, validate
from hgspdc.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_PARAMS, EXIT_VALIDATION, main
from hgspdc.serialization import parse_matrix_csv
from hgspdc.channel import DEFAULT_STRENGTH_COEFF, derive_constants, turbulence_strength
from hgspdc.engine import ModePair, parse_mode, selection_rule_allowed
from hgspdc.validate import check_turbulence_golden, run_checks


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_exit(capsys, *argv):
    """run, with argparse's SystemExit read as the exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMatrixCommand:
    def test_default_prints_reference_vacuum_table(self, capsys):
        code, out, _ = run(capsys, "matrix")
        assert code == EXIT_OK
        assert "0.31307" in out
        assert "# w_variant=propagated" in out

    def test_csv_output_reproduces_vacuum_golden(self, capsys, tmp_path):
        path = tmp_path / "vac.csv"
        code, _, _ = run(capsys, "matrix", "--format", "csv", "--output", str(path))
        assert code == EXIT_OK
        doc = parse_matrix_csv(path.read_text())
        for i in range(10):
            for j in range(10):
                assert abs(doc["matrix"][i][j] - reference.VACUUM_MATRIX[i][j]) < 5e-4

    def test_rytov_flag_reproduces_turbulence_golden(self, capsys, tmp_path):
        path = tmp_path / "turb.csv"
        code, _, _ = run(capsys, "matrix", "--rytov", "0.02",
                         "--format", "csv", "--output", str(path))
        assert code == EXIT_OK
        doc = parse_matrix_csv(path.read_text())
        for i in range(10):
            for j in range(10):
                assert abs(doc["matrix"][i][j] - reference.TURBULENCE_MATRIX[i][j]) < 5e-4
        assert float(doc["params"]["rytov"]) == 0.02

    def test_single_mode(self, capsys):
        code, out, _ = run(capsys, "matrix", "--modes", "00", "--rytov", "0.02")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert len(lines) == 2  # header row + one mode row

    def test_max_sum_10_csv_round_trip(self, capsys):
        # order-10 labels such as 0,10 hold a comma and must stay one field
        code, out, _ = run(capsys, "matrix", "--max-sum", "10", "--format", "csv")
        assert code == EXIT_OK
        doc = parse_matrix_csv(out)
        want = [m.label() for m in engine.expand_modes(10)]
        assert len(want) == 66 and "0,10" in want
        assert doc["ordering"] == want
        assert len(doc["matrix"]) == 66
        assert all(len(row) == 66 for row in doc["matrix"])
        assert doc["matrix"][0][0] == pytest.approx(0.31307, rel=1e-10)

    def test_modes_read_the_labels_a_matrix_prints(self, capsys, tmp_path):
        # modes are whitespace separated; "0,10" is one mode, as labelled
        labels = " ".join(m.label() for m in engine.expand_modes(10))
        assert "0,10" in labels
        _, by_max_sum, _ = run(capsys, "matrix", "--max-sum", "10", "--format", "json")
        code, by_modes, _ = run(capsys, "matrix", "--modes", labels, "--format", "json")
        assert code == EXIT_OK and by_modes == by_max_sum
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"modes={labels}\nformat=json\n")
        code, by_file, _ = run(capsys, "matrix", "--config", str(cfg))
        assert code == EXIT_OK and by_file == by_max_sum

    @pytest.mark.parametrize("modes", ["00,01", "00,01,10", "00 01,10"])
    def test_comma_separated_modes_exit_2(self, capsys, modes):
        code, out, err = run(capsys, "matrix", "--modes", modes)
        assert code == EXIT_PARAMS and out == ""
        assert "separate modes with spaces" in err

    def test_max_sum_expansion(self, capsys):
        code, out, _ = run(capsys, "matrix", "--max-sum", "1", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ordering"] == ["00", "01", "10"]

    @pytest.mark.parametrize("max_sum", ["8", "9", "10"])
    def test_high_order_vacuum_zeros_exact(self, capsys, max_sum):
        code, out, _ = run(capsys, "matrix", "--max-sum", max_sum, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        modes = [parse_mode(label) for label in doc["ordering"]]
        for s, row in zip(modes, doc["matrix"]):
            for i, v in zip(modes, row):
                if not selection_rule_allowed(ModePair(s, i)):
                    assert v == 0.0, (s, i)

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "matrix", "--format", "json")
        doc = json.loads(out)
        assert doc["matrix"][0][0] == 0.31307
        assert doc["params"]["gamma"] == 0.0

    def test_pump_waist_reported_as_given_json(self, capsys):
        code, out, _ = run(capsys, "matrix", "--pump-waist", "0.045",
                           "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["pump_waist_m"] == 0.045

    def test_pump_waist_reported_as_given_csv(self, capsys):
        code, out, _ = run(capsys, "matrix", "--pump-waist", "0.09",
                           "--format", "csv")
        assert code == EXIT_OK
        assert parse_matrix_csv(out)["params"]["pump_waist_m"] == "0.09"

    def test_invalid_params_exit_2(self, capsys):
        for argv in (["matrix", "--rytov", "-0.5"], ["sweep", "--grid", "a,b"],
                     ["sweep", "--pairs", "a,b:00"]):
            code, _, err = run(capsys, *argv)
            assert code == EXIT_PARAMS, argv
            assert "invalid parameters" in err

    @pytest.mark.parametrize("argv", [
        ["matrix", "--rytov", "nan"], ["matrix", "--rytov", "inf"],
        ["matrix", "--wavelength", "nan"], ["matrix", "--distance", "inf"],
        ["matrix", "--cn2", "inf"], ["matrix", "--cn2", "1e300"],
        ["matrix", "--pump-waist", "inf"], ["sweep", "--grid", "0,nan"],
        ["matrix", "--rytov", "1e300"],
        # z^(11/6) overflows in rytov_to_cn2
        ["matrix", "--distance", "1e300", "--rytov", "0.01"],
        ["sweep", "--pairs", ""],
        # k^(7/6) underflows to 0 in rytov_to_cn2
        ["matrix", "--rytov", "0.01", "--wavelength", "1e300"],
    ])
    def test_non_finite_channel_input_exit_2(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_PARAMS
        assert "invalid parameters" in err and "Traceback" not in err

    def test_links_whose_kernel_constants_leave_the_float_range(self, capsys):
        # no matrix reads the per-term kernels' constants: at a 1e-300 m
        # wavelength, where b1 overflows, the seeds are finite and the
        # matrix is valid; at a 1e200 m pump waist Lambda0 underflows to 0,
        # and the seeds are a numerical failure
        code, out, _ = run(capsys, "matrix", "--wavelength", "1e-300", "--format", "csv")
        assert code == EXIT_OK
        values = [v for row in parse_matrix_csv(out)["matrix"] for v in row]
        assert len(values) == 100 and all(0.0 <= v < math.inf for v in values)
        code, _, err = run(capsys, "matrix", "--pump-waist", "1e200")
        assert code == EXIT_NUMERICAL
        assert err.startswith("error: numerical failure: pi_factor(3, 3): the Pi seeds C=nan, ")
        assert err.rstrip().endswith("at gamma=0, Lambda0=0")

    def test_kernel_overflow_exit_3(self, capsys, corrupt_seeds):
        # a seed beyond the float range, here an injected C = inf, is a
        # numerical failure
        corrupt_seeds(lambda seeds, gamma: seeds._replace(c=math.inf))
        code, _, err = run(capsys, "matrix", "--distance", "1e-40", "--rytov", "1",
                           "--max-sum", "10")
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and "Traceback" not in err

    def test_nan_pi_exit_3(self, capsys, corrupt_seeds):
        # an injected nan delta at the turbulent set: a numerical failure
        # naming the grid's first Pi, not a matrix with nan entries
        corrupt_seeds(lambda seeds, gamma:
                      seeds._replace(delta=math.nan) if gamma > 0 else seeds)
        code, out, err = run(capsys, "matrix", "--distance", "1e-25", "--rytov", "1e-3",
                             "--pump-waist", "7.0710678", "--max-sum", "10", "--format", "csv")
        assert code == EXIT_NUMERICAL
        assert "pi_factor(10, 10)" in err and "Traceback" not in err
        assert "nan" not in out

    def test_subnormal_anchor_exit_3(self, capsys):
        # the vacuum (00,00) entry is 1.4e-320: its calibration factor
        # overflows, so no matrix of inf and nan entries is printed
        code, out, err = run(capsys, "matrix", "--wavelength", "1.367e129",
                             "--distance", "5.95e-12", "--pump-waist", "4.996e24")
        assert code == EXIT_NUMERICAL and out == ""
        assert "calibration reference (00,00) is 1.41e-320" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["--distance", "1e-25", "--rytov", "1e-3", "--pump-waist", "7.0710678"],
        ["--distance", "1e-40", "--rytov", "1"]], ids=["1e-25", "1e-40"])
    def test_tiny_links_are_valid_matrices(self, capsys, argv):
        # c2/c1 is ~5e30 and ~2e45 here, yet the closed-form seeds, and so
        # every Pi, stay finite
        code, out, err = run(capsys, "matrix", *argv, "--max-sum", "10", "--format", "csv")
        assert code == EXIT_OK and err == ""
        values = [v for row in parse_matrix_csv(out)["matrix"] for v in row]
        assert len(values) == 66 * 66
        assert all(math.isfinite(v) and v >= 0.0 for v in values)

    @pytest.mark.parametrize("argv", [["--rytov", "1e20"], ["--rytov", "1.0000001"],
                                      ["--cn2", "1e-10"]])
    def test_strong_turbulence_exit_2(self, capsys, argv):
        # the closed form holds for weak fluctuations only, rytov <= 1
        code, _, err = run(capsys, "matrix", *argv)
        assert code == EXIT_PARAMS
        assert "weak-fluctuation range" in err and "rytov <= 1" in err

    def test_conflicting_mode_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "matrix", "--modes", "00", "--max-sum", "2")
        assert exc.value.code == EXIT_PARAMS

    def test_raw_normalization(self, capsys):
        code, out, _ = run(capsys, "matrix", "--normalize", "raw",
                           "--modes", "00", "--format", "json")
        doc = json.loads(out)
        assert doc["normalization"]["mode"] == "raw"
        assert doc["matrix"][0][0] == pytest.approx(30.80786070128007, rel=1e-10)

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "matrix", "--rytov", "0.02", "--format", "csv")
        _, second, _ = run(capsys, "matrix", "--rytov", "0.02", "--format", "csv")
        assert first == second

    def test_numerical_failure_exit_3(self, capsys, monkeypatch):
        # the closed form's validity guard cannot fire for physical inputs
        # (c1 reduces to u^2/(2 b1) + u L0/(1+L0^2) > 0), so exercise the
        # exit-code mapping directly
        import hgspdc.cli as cli
        from hgspdc.errors import NumericalError

        def boom(cfg):
            raise NumericalError("synthetic failure")

        monkeypatch.setattr(cli, "_compute_matrix", boom)
        code, _, err = run(capsys, "matrix")
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err


class TestConfigFile:
    def test_file_values_and_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nrytov=0.02\nmodes=00 01\nformat=json\n")
        code, out, _ = run(capsys, "matrix", "--config", str(cfg))
        doc = json.loads(out)
        assert doc["ordering"] == ["00", "01"]
        assert doc["params"]["rytov"] == 0.02
        # flag overrides the file
        code, out, _ = run(capsys, "matrix", "--config", str(cfg), "--rytov", "0.05")
        doc = json.loads(out)
        assert doc["params"]["rytov"] == 0.05

    def test_malformed_line_exit_2(self, capsys, tmp_path):
        # a line without = is the file's own error; a bad value or an
        # unknown key is the parser's, as for a flag, with the usage
        cfg, out_path = tmp_path / "bad.cfg", tmp_path / "out.txt"
        for text, named in (("rytov 0.02\n", "'rytov 0.02'"),
                            ("max_sum=x\n", "--max-sum: invalid int value: 'x'"),
                            ("rytov=x\n", "--rytov: invalid float value: 'x'"),
                            ("wavelenght=1.55e-6\n", "--wavelenght=1.55e-6")):
            cfg.write_text(text)
            code, out, err = run_exit(capsys, "matrix", "--config", str(cfg),
                                      "--output", str(out_path))
            assert code == EXIT_PARAMS and out == "", text
            assert named in err, text
            assert not out_path.exists()

    @pytest.mark.parametrize("command", ["matrix", "sweep", "rank"])
    def test_unknown_normalization_exit_2(self, capsys, tmp_path, command):
        # rank needs a turbulent channel; sweep reads no rytov key
        cfg, out_path = tmp_path / "run.cfg", tmp_path / "out.txt"
        cfg.write_text("normalize=unit\n" + ("rytov=0.02\n" if command != "sweep" else ""))
        code, out, err = run_exit(capsys, command, "--config", str(cfg),
                                  "--output", str(out_path))
        assert code == EXIT_PARAMS and out == ""
        assert "argument --normalize: invalid choice: 'unit'" in err
        assert not out_path.exists()

    def test_flag_overrides_conflicting_file_group(self, capsys, tmp_path):
        # --rytov must shadow a cn2 value coming from the file
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cn2=2.4e-17\nmodes=00\nformat=json\n")
        code, out, _ = run(capsys, "matrix", "--config", str(cfg),
                           "--rytov", "0.02")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["params"]["rytov"] == 0.02

    @pytest.mark.parametrize("text, message", [
        ("modes=00 01\nmax_sum=2\n", "argument --max-sum: not allowed with argument --modes"),
        ("cn2=2.4e-17\nrytov=0.02\n", "argument --rytov: not allowed with argument --cn2"),
        ("format=xml\n", "argument --format: invalid choice: 'xml'"),
    ], ids=["modes-and-max_sum", "cn2-and-rytov", "format-xml"])
    def test_conflicting_or_unknown_file_values_exit_2(self, capsys, tmp_path,
                                                       text, message):
        cfg, out_path = tmp_path / "run.cfg", tmp_path / "out.txt"
        cfg.write_text(text)
        code, out, err = run_exit(capsys, "matrix", "--config", str(cfg),
                                  "--output", str(out_path))
        assert code == EXIT_PARAMS and out == ""
        assert message in err
        assert not out_path.exists()

    @pytest.mark.parametrize("text, flags, ordering", [
        ("modes=00\nformat=json\n", ("--max-sum", "1"), ["00", "01", "10"]),
        ("max_sum=2\nformat=json\n", ("--modes", "00"), ["00"]),
    ], ids=["max-sum-over-modes", "modes-over-max_sum"])
    def test_mode_flag_shadows_file_group(self, capsys, tmp_path, text, flags,
                                          ordering):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, _ = run(capsys, "matrix", "--config", str(cfg), *flags)
        assert code == EXIT_OK
        assert json.loads(out)["ordering"] == ordering

    def test_dashed_key_is_read(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pump-waist=0.0035\nformat=json\n")
        code, out, _ = run(capsys, "matrix", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["params"]["pump_waist_m"] == 0.0035


# (command, flags every run gives, flag, value): each command's own flags,
# sweep's grid and pairs included; rank needs a turbulent channel
_FILE_KEYS = [
    *(("matrix", [], flag, value) for flag, value in (
        ("--wavelength", "1e-6"), ("--distance", "1000"), ("--pump-waist", "0.05"),
        ("--cn2", "2.4e-17"), ("--rytov", "0.02"), ("--modes", "00 0,10 11"),
        ("--max-sum", "2"), ("--normalize", "raw"), ("--format", "json"),
        ("--format", "csv"), ("--output", None))),
    *(("sweep", [], flag, value) for flag, value in (
        ("--wavelength", "1e-6"), ("--distance", "1000"), ("--pump-waist", "0.05"),
        ("--normalize", "raw"), ("--format", "json"), ("--output", None),
        ("--grid", "0,0.03,0.05"), ("--pairs", "00:01 11:11 0,2:2,0"))),
    ("rank", [], "--cn2", "2.4e-17"), ("rank", [], "--rytov", "0.05"),
    *(("rank", ["--rytov", "0.02"], flag, value) for flag, value in (
        ("--wavelength", "1e-6"), ("--distance", "1000"), ("--pump-waist", "0.05"),
        ("--modes", "00 02 11"), ("--max-sum", "2"), ("--normalize", "raw"),
        ("--format", "json"), ("--output", None))),
]


class TestConfigIsItsFlags:
    """A config file is parsed by the command's own parser: each key is a
    flag of the command, and acts as that flag does."""

    @pytest.mark.parametrize("command, base, flag, value", _FILE_KEYS,
                             ids=[f"{c}{flag}{'=' + v if v else ''}"
                                  for c, _, flag, v in _FILE_KEYS])
    def test_file_key_equals_its_flag(self, capsys, tmp_path, command, base, flag, value):
        by_flag, by_file = tmp_path / "flag.out", tmp_path / "file.out"
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value or by_file}\n")
        want = run(capsys, command, *base, flag, value or str(by_flag))
        got = run(capsys, command, *base, "--config", str(cfg))
        assert want[0] == EXIT_OK and got == want
        if value is None:
            assert by_file.read_text() == by_flag.read_text() != ""

    @pytest.mark.parametrize("text, flags", [
        ("grid=0,0.05\npairs=11:11\nformat=json\n", ["--grid", "0,0.01", "--format", "csv"]),
        ("grid=0,0.05\npairs=11:11\n", ["--pairs", "00:00 00:01"]),
    ], ids=["grid-and-format", "pairs"])
    def test_sweep_flag_shadows_its_file_key(self, capsys, tmp_path, text, flags):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        file_only = dict(line.split("=") for line in text.splitlines())
        kept = [f"--{k}={v}" for k, v in file_only.items() if f"--{k}" not in flags]
        want = run(capsys, "sweep", *kept, *flags)
        assert want[0] == EXIT_OK
        assert run(capsys, "sweep", "--config", str(cfg), *flags) == want

    @pytest.mark.parametrize("command, flags", [
        ("matrix", ["--rytov", "0.02"]), ("rank", ["--cn2", "2.4e-17"])])
    def test_flag_shadows_both_keys_of_its_group(self, capsys, tmp_path, command, flags):
        # the file alone is an error: it gives both keys of a group, and a
        # bad value; the flag's group shadows all of them
        cfg = tmp_path / "run.cfg"
        cfg.write_text("cn2=x\nrytov=0.05\nmodes=00 01\nmax_sum=2\n")
        assert run_exit(capsys, command, "--config", str(cfg))[0] == EXIT_PARAMS
        want = run(capsys, command, *flags, "--max-sum", "1")
        assert want[0] == EXIT_OK
        assert run(capsys, command, "--config", str(cfg), *flags, "--max-sum", "1") == want

    @pytest.mark.parametrize("text, message", [
        ("config=other.cfg\n", "error: invalid parameters: unknown config key 'config'"),
        ("ryt=0.02\n", "error: unrecognized arguments: --ryt=0.02"),
        ("command=rank\n", "error: unrecognized arguments: --command=rank"),
    ], ids=["config", "abbreviated", "command"])
    def test_key_that_is_no_flag_of_the_command_exit_2(self, capsys, tmp_path, text, message):
        # a file names no other file, and its keys name flags in full
        cfg, out_path = tmp_path / "run.cfg", tmp_path / "out.txt"
        cfg.write_text(text)
        code, out, err = run_exit(capsys, "matrix", "--config", str(cfg),
                                  "--output", str(out_path))
        assert code == EXIT_PARAMS and out == ""
        assert message in err
        assert not out_path.exists()

    def test_rank_help_lists_json_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["rank", "--help"])
        out = capsys.readouterr().out
        assert "--format {json}" in out and "csv" not in out


class TestEmptyValues:
    """An empty value is an input like any other: it fails as the command
    reads it, not as if it were absent."""

    @pytest.mark.parametrize("command, flag, message", [
        ("sweep", "--grid", "sweep grid is empty"),
        ("sweep", "--pairs", "sweep pair list is empty"),
        ("matrix", "--modes", "mode list is empty"),
        ("matrix", "--output", "cannot write '': No such file or directory"),
        ("rank", "--output", "cannot write '': No such file or directory"),
        ("sweep", "--output", "cannot write '': No such file or directory"),
    ], ids=["sweep-grid", "sweep-pairs", "matrix-modes", "matrix-output", "rank-output",
            "sweep-output"])
    @pytest.mark.parametrize("form", ["flag", "file"])
    def test_empty_value_exit_2(self, capsys, tmp_path, command, flag, message, form):
        argv = ["--rytov", "0.02"] if command == "rank" else []
        if form == "flag":
            argv += [flag, ""]
        else:
            (tmp_path / "run.cfg").write_text(f"{flag[2:]}=\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        code, out, err = run(capsys, command, *argv)
        assert code == EXIT_PARAMS and out == ""
        assert err == f"error: invalid parameters: {message}\n"

    def test_empty_validate_output_exit_2(self, capsys):
        code, out, err = run(capsys, "validate", "--vacuum-only", "--output", "")
        assert code == EXIT_PARAMS and out == ""
        assert err == "error: invalid parameters: cannot write '': No such file or directory\n"


class TestSweepCommand:
    def test_degenerate_grid(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "0")
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert lines[0] == 'rytov,"P(00,00)","P(00,01)"'
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[1]) == pytest.approx(0.31307, rel=1e-10)
        assert float(row[2]) == pytest.approx(0.0, abs=1e-12)

    def test_csv_header_one_field_per_pair(self, capsys):
        pairs = "00:00 00:01 0,10:10,0"
        code, out, _ = run(capsys, "sweep", "--grid", "0,0.01", "--pairs", pairs)
        assert code == EXIT_OK
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = list(csv.reader(lines))
        names = [ModePair(parse_mode(s), parse_mode(i)).label()
                 for s, i in (tok.split(":") for tok in pairs.split())]
        assert rows[0] == ["rytov"] + [f"P{label}" for label in names]
        assert all(len(row) == 1 + len(names) for row in rows)

    def test_trend_columns(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "0,0.01,0.02,0.03",
                           "--pairs", "00:00 00:01")
        lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
        rows = [ln.split(",") for ln in lines[1:]]
        p0000 = [float(r[1]) for r in rows]
        p0001 = [float(r[2]) for r in rows]
        assert all(a > b for a, b in zip(p0000, p0000[1:]))
        assert p0001[0] < 1e-10 and all(a < b for a, b in zip(p0001, p0001[1:]))

    @pytest.mark.parametrize("pairs", ["00,01:00", "00:00 01:0,00", "00,10,01:00"])
    def test_comma_separated_pair_modes_exit_2(self, capsys, pairs):
        # a zero-padded comma token lists modes; as in --modes it is the one
        # "separate modes with spaces" error, not a pair of the first mode
        code, out, err = run(capsys, "sweep", "--grid", "0", "--pairs", pairs)
        assert code == EXIT_PARAMS and out == ""
        assert "separate modes with spaces" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("pairs, label", [
        ("00:01 00:01", "(00,01)"), ("01:00 0,1:0,0", "(01,00)"),
        ("00:00 9,0:10,0 00:02 9,0:10,0", "(90,10,0)")])
    def test_repeated_pair_exit_2(self, capsys, fmt, pairs, label):
        # the series are keyed by label, so a repeated pair would silently
        # collapse into one column
        code, out, err = run(capsys, "sweep", "--grid", "0,0.01", "--pairs", pairs,
                             "--format", fmt)
        assert code == EXIT_PARAMS and out == ""
        assert f"pair {label} is given more than once" in err

    def test_negative_probability_exit_3(self, capsys, corrupt_seeds):
        # with delta negative at rytov 0.01, the seeds there would make
        # negative terms; the sweep rejects them as a matrix would
        corrupt_seeds(lambda seeds, gamma:
                      seeds._replace(delta=-seeds.delta) if gamma > 0 else seeds)
        code, out, err = run(capsys, "sweep", "--grid", "0,0.01", "--pairs", "9,0:10,0")
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in err and out == ""

    def test_vacuum_forbidden_high_orders(self, capsys):
        # vacuum P(90,10,0) is forbidden, so exactly 0
        code, out, _ = run(capsys, "sweep", "--grid", "0,0.01", "--pairs", "9,0:10,0")
        assert code == EXIT_OK
        rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")]
        assert [float(v) for v in rows[1]] == [0.0, 0.0]
        assert float(rows[2][1]) > 0.0

    def test_descending_grid_exit_2(self, capsys):
        code, _, _ = run(capsys, "sweep", "--grid", "0.02,0.01")
        assert code == EXIT_PARAMS

    def test_json_series_lengths(self, capsys):
        code, out, _ = run(capsys, "sweep", "--grid", "0,0.02", "--format", "json")
        doc = json.loads(out)
        assert len(doc["grid"]) == 2
        assert all(len(v) == 2 for v in doc["series"].values())
        assert all(x >= 0 for v in doc["series"].values() for x in v)


class TestRankCommand:
    def test_reference_ordering(self, capsys):
        code, out, _ = run(capsys, "rank", "--rytov", "0.02", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        leak = {r["pair"]: r["p_turb"] for r in doc["leakage"]}
        assert min(leak["(00,01)"], leak["(00,10)"]) > max(
            leak["(00,12)"], leak["(00,21)"])
        retention = {r["pair"]: r["retention"] for r in doc["retention"]}
        assert retention["(00,02)"] > retention["(00,00)"]
        # reference tables give 0.2262 / 0.31307 for the retained (00,00) pair
        assert retention["(00,00)"] == pytest.approx(0.2262 / 0.31307, abs=2e-3)
        notes = {r["pair"]: r["note"] for r in doc["retention"]}
        assert notes["(00,02)"] == "robust"

    def test_vacuum_input_all_leakage_zero(self, capsys):
        code, out, _ = run(capsys, "rank", "--rytov", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        # forbidden entries are exactly 0 in vacuum
        assert all(r["p_turb"] == 0.0 for r in doc["leakage"])

    def test_missing_turbulence_exit_2(self, capsys):
        code, _, err = run(capsys, "rank")
        assert code == EXIT_PARAMS


class TestUnreadInputs:
    """A flag or config key the command does not read is a parameter error,
    not a silent no-op: sweep takes no channel or mode grid, rank writes no
    CSV."""

    @pytest.mark.parametrize("argv, text", [
        (["sweep", "--rytov", "0.05"], None), (["sweep", "--cn2", "1e-14"], None),
        (["sweep", "--modes", "00"], None), (["sweep", "--max-sum", "2"], None),
        (["sweep"], "rytov=0.05\n"), (["sweep"], "cn2=1e-14\n"),
        (["sweep"], "modes=00\n"), (["sweep"], "max_sum=2\n"),
        (["rank", "--rytov", "0.02", "--format", "csv"], None),
        (["rank", "--rytov", "0.02"], "format=csv\n"),
    ], ids=["sweep-rytov", "sweep-cn2", "sweep-modes", "sweep-max-sum",
            "sweep-rytov=", "sweep-cn2=", "sweep-modes=", "sweep-max_sum=",
            "rank-csv", "rank-format=csv"])
    def test_unread_input_exit_2(self, capsys, tmp_path, argv, text):
        out_path = tmp_path / "out.txt"
        argv = [*argv, "--output", str(out_path)]
        if text is not None:
            (tmp_path / "run.cfg").write_text(text)
            argv += ["--config", str(tmp_path / "run.cfg")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an unknown flag
            code = exc.code
        assert code == EXIT_PARAMS
        assert capsys.readouterr().out == ""
        assert not out_path.exists()

    def test_sweep_help_lists_no_channel_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--grid" in out
        for flag in ("--cn2", "--rytov", "--modes", "--max-sum"):
            assert flag not in out


class TestPathErrors:
    """A config file that cannot be read or an output path that cannot be
    written is a parameter error, exit 2 with one error line."""

    @pytest.mark.parametrize("argv", [
        ["matrix"], ["sweep", "--grid", "0,0.01"], ["rank", "--rytov", "0.02"],
        ["validate", "--vacuum-only", "--nodes", "64"]], ids=lambda argv: argv[0])
    def test_unwritable_output_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "missing" / "out.txt"
        code, _, err = run(capsys, *argv, "--output", str(path))
        assert code == EXIT_PARAMS
        assert err == f"error: invalid parameters: cannot write {path}: " \
                      "No such file or directory\n"
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_exit_2(self, capsys, tmp_path, kind):
        path = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
                "not-utf8": tmp_path / "binary.cfg"}[kind]
        if kind == "not-utf8":
            path.write_bytes(b"rytov=\xff\xfe\n")
        code, out, err = run(capsys, "matrix", "--config", str(path))
        assert code == EXIT_PARAMS and out == ""
        assert err.startswith(f"error: invalid parameters: cannot read config {path}: ")
        assert err.count("\n") == 1


class TestValidateCommand:
    def test_vacuum_only_passes(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        report.write_text("x" * 100_000)  # an older, longer file is replaced
        code, out, _ = run(capsys, "validate", "--vacuum-only",
                           "--output", str(report))
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["passed"] is True
        names = {c["name"] for c in doc["checks"]}
        assert "vacuum_golden" in names and "turbulence_golden" not in names

    def test_full_run_reports_known_trend_failure(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "validate", "--output", str(report))
        assert code == EXIT_VALIDATION
        doc = json.loads(report.read_text())
        failing = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert failing == ["trend_forbidden_increasing"]
        assert "PASS  turbulence_golden" in out

    def test_report_carries_the_reference_seeds(self, capsys, tmp_path):
        # C, alpha, beta and delta of the reference channel in vacuum and at
        # rytov 0.02, as pi_seeds gives them; delta is 0 in vacuum only
        report = tmp_path / "report.json"
        run(capsys, "validate", "--vacuum-only", "--output", str(report))
        rows = json.loads(report.read_text())["pi_seeds"]
        assert [row["rytov"] for row in rows] == [0.0, reference.REFERENCE_RYTOV]
        for row in rows:
            seeds = engine.pi_seeds(derive_constants(
                reference.reference_config(), turbulence_strength(row["rytov"])))
            assert row == {"rytov": row["rytov"], "C": seeds.c,
                           "alpha": [seeds.alpha.real, seeds.alpha.imag],
                           "beta": [seeds.beta.real, seeds.beta.imag], "delta": seeds.delta}
        assert rows[0]["delta"] == 0.0 < rows[1]["delta"]
        assert rows[0]["C"] == engine.pi_factor(
            0, 0, derive_constants(reference.reference_config()))

    def test_every_check_reports_elapsed(self, capsys, tmp_path):
        results = run_checks()
        assert all(r.elapsed_s is not None and r.elapsed_s >= 0.0 for r in results)
        report = tmp_path / "report.json"
        run(capsys, "validate", "--output", str(report))
        checks = json.loads(report.read_text())["checks"]
        assert [c["name"] for c in checks] == [r.name for r in results]
        assert all(c["elapsed_s"] is not None and c["elapsed_s"] >= 0.0
                   for c in checks)
        # the report's schema: these keys in this order, and extras only
        # where a check has them
        keys = ["name", "passed", "max_deviation", "detail", "elapsed_s"]
        for c in checks:
            extra = ["extras"] if c["name"] == "oracle_agreement" else []
            assert list(c) == keys + extra, c["name"]

    def test_gamma_sensitivity_probe(self):
        # a 10% gamma perturbation breaks the turbulence fixture while the
        # vacuum fixture (gamma-independent) keeps passing
        assert check_turbulence_golden().passed
        assert not check_turbulence_golden(
            strength_coeff=1.1 * DEFAULT_STRENGTH_COEFF).passed

    def test_node_count_above_cap_exit_2(self, capsys, monkeypatch):
        def no_quadrature(*args):
            raise AssertionError("quadrature ran for a rejected node count")

        monkeypatch.setattr(oracle, "_overlap_grid", no_quadrature)
        code, _, err = run(capsys, "validate", "--vacuum-only",
                           "--nodes", str(oracle.MAX_NODES + 1))
        assert code == EXIT_PARAMS
        assert "invalid parameters" in err

    def test_unwritable_report_fails_before_any_check(self, capsys, monkeypatch, tmp_path):
        # exit 2 with the path error alone: no check runs, no PASS/FAIL line
        def not_run():
            raise AssertionError("a check ran before the report path was checked")

        monkeypatch.setattr(validate, "ALL_CHECKS", (not_run,) * len(validate.ALL_CHECKS))
        report = tmp_path / "missing" / "report.json"
        code, out, err = run(capsys, "validate", "--output", str(report))
        assert code == EXIT_PARAMS and out == ""
        assert err == f"error: invalid parameters: cannot write {report}: " \
                      "No such file or directory\n"

    @pytest.mark.parametrize("nodes", [10, oracle.MAX_NODES + 1])
    def test_node_count_checked_before_any_check(self, capsys, monkeypatch, tmp_path,
                                                 nodes):
        def not_run():
            raise AssertionError("a check ran before the node count was checked")

        monkeypatch.setattr(validate, "ALL_CHECKS", (not_run,) * len(validate.ALL_CHECKS))
        report = tmp_path / "report.json"
        code, out, err = run(capsys, "validate", "--nodes", str(nodes), "--output", str(report))
        assert code == EXIT_PARAMS and out == ""
        assert "invalid parameters" in err
        assert not report.exists()  # checked before the report path is opened
