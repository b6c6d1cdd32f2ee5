import re

import pytest

from oscphase.cli import main, parse_config
from oscphase.errors import ConfigError
from oscphase.study import CSV_HEADER

FRESNEL_CFG = """\
f = x^2
g = 1
alpha = -1
beta = 1
n = 2
"""

QUADRATIC_CFG = """\
f = x^2
g = 1
alpha = -1
beta = 1
n = 2
"""

MONOTONE_CFG = """\
f = T*(x + x^2/10)
g = 1/x
alpha = 1
beta = 2
n = 3
T = 10000
"""

CUBIC_CFG = """\
f = T*(x^2 + x^3/3)
g = 1/(1+x^2)
alpha = -0.5
beta = 0.5
n = 2
T = 1024
"""

MULTI_STATIONARY_CFG = """\
f = T*(x^4 - x^2)
g = 1
alpha = -1
beta = 1
n = 1
T = 64
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_round_trip(self):
        cfg = parse_config(CUBIC_CFG + "[params]\na = 2.5\n")
        assert cfg.f == "T*(x^2 + x^3/3)"
        assert cfg.params == {"a": 2.5}
        p = cfg.to_problem()
        assert p.T == 1024.0
        assert p.M == 1.0  # default beta - alpha

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing key: f"):
            parse_config("g = 1\nalpha = 0\nbeta = 1\nn = 2\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key: zz"):
            parse_config(FRESNEL_CFG + "zz = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(FRESNEL_CFG + "f = x\n")

    def test_duplicate_parameter(self):
        with pytest.raises(ConfigError, match="line 8: duplicate parameter: c"):
            parse_config(FRESNEL_CFG + "[params]\nc = 1\nc = 2\n")

    @pytest.mark.parametrize("name", ["x", "T", "M", "N", "U"])
    def test_parameter_the_problem_binds(self, name):
        # [params] M = 100 with g = 1 + M*x used to give g = 1 + 2*x.
        with pytest.raises(ConfigError, match=f"line 7: parameter {name} "
                                              "would be ignored"):
            parse_config(FRESNEL_CFG + f"[params]\n{name} = 100\n")

    def test_t_inferred_from_curvature(self):
        cfg = parse_config(QUADRATIC_CFG)
        p = cfg.to_problem()
        # max|f''| * M^2 = 2 * 4
        assert p.T == pytest.approx(8.0)

    def test_t_required_when_f_references_it(self):
        with pytest.raises(ConfigError, match="T is required"):
            parse_config("f = T*x^2\ng = 1\nalpha = -1\nbeta = 1\nn = 2\n").to_problem()


@pytest.mark.parametrize("text, message", [
    (FRESNEL_CFG + "[bounds]\n", "line 6: unknown section [bounds]"),
    (FRESNEL_CFG + "T 4\n", "line 6: expected key = value"),
    (FRESNEL_CFG + "[params]\nc = two\n", "line 7: parameter c is not a number"),
    (FRESNEL_CFG.replace("alpha = -1", "alpha = minus one"),
     "bad numeric value: could not convert string to float: 'minus one'"),
])
def test_config_refusal_exits_1(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["quad", "--config", cfg]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_unreadable_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["quad", "--config", str(missing)]) == 1
    assert capsys.readouterr().err == (
        f"cannot read config: [Errno 2] No such file or directory: '{missing}'\n")


class TestCmdQuad:
    def test_fresnel_output(self, tmp_path, capsys):
        cfg = write(tmp_path, "fresnel.cfg", FRESNEL_CFG)
        assert main(["quad", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("0.488253406075 + 0.343415678364i")
        panels, nodes = out.splitlines()[1:3]
        assert panels.startswith("panels: ") and nodes.startswith("nodes: ")
        assert int(nodes.split()[1]) >= 24 * int(panels.split()[1])

    def test_full_period_zero(self, tmp_path, capsys):
        cfg = write(tmp_path, "lin.cfg",
                    "f = x\ng = 1\nalpha = 0\nbeta = 1\nn = 1\nT = 1\nM = 1\n")
        assert main(["quad", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith(
            "0.000000000000 + 0.000000000000i")

    def test_unattainable_tol_exits_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "fresnel.cfg", FRESNEL_CFG)
        assert main(["quad", "--config", cfg, "--tol", "1e-30"]) == 3

    @pytest.mark.parametrize("g, warnings", [
        ("1/(x - 1.4144667855116144)",
         ["warning: a divisor in g changes sign inside [alpha, beta], a pole "
          "or a jump (offset 1); smoothness hypotheses fail"]),
        ("1/x", []),
    ])
    def test_divisor_that_changes_sign_is_warned(self, tmp_path, capsys, g,
                                                  warnings):
        # The oracle still returns a certified number for the pole, which
        # sits at a panel midpoint; only the warning marks it.
        cfg = write(tmp_path, "pole.cfg", f"f = T*(x + x^2/10)\ng = {g}\n"
                    "alpha = 1\nbeta = 2\nn = 2\nT = 16\n")
        assert main(["quad", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("panels: ") and lines[2].startswith("nodes: ")
        assert lines[3:] == warnings

    @pytest.mark.parametrize("g, scan", [
        ("sqrt(x - 1)", []),                       # g's jet is undefined at alpha
        ("abs(x - 1.5)", ["--scan-points", "3"]),  # a kink on a grid point
    ])
    def test_scan_that_cannot_walk_g_keeps_the_value(self, tmp_path, capsys,
                                                     g, scan):
        cfg = write(tmp_path, "edge.cfg", f"f = T*x\ng = {g}\n"
                    "alpha = 1\nbeta = 2\nn = 2\nT = 16\n")
        assert main(["quad", "--config", cfg] + scan) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert re.fullmatch(r"-?\d+\.\d{12} [+-] \d+\.\d{12}i", lines[0])
        assert lines[1].startswith("panels: ") and lines[2].startswith("nodes: ")
        assert len(lines) == 4 and lines[3].startswith(
            "warning: the smoothness scan stopped: ")
        assert lines[3].endswith("; smoothness hypotheses unchecked")
        assert captured.err == ""


@pytest.mark.parametrize("command", ["quad", "study"])
def test_zero_tol_exits_1(tmp_path, capsys, command):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main([command, "--config", cfg, "--tol", "0"]) == 1
    captured = capsys.readouterr()
    assert "tol must be positive" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["quad", "study"])
@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tol_exits_1(tmp_path, capsys, command, tol):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main([command, "--config", cfg, "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert "tol must be positive and finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("grid", ["1:inf:2", "1:nan:2", "nan:4:2", "inf:inf:2",
                                  "1:4:inf", "1:4:nan"])
def test_non_finite_grid_exits_1(tmp_path, capsys, grid):
    # 1:inf:2 used to grow its grid until memory ran out; the nan specs
    # gave an empty grid, a bare CSV header and exit 0.
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main(["study", "--config", cfg, "--grid", grid]) == 1
    captured = capsys.readouterr()
    assert "finite Tmin, Tmax and factor" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, option", [
    ("study", ["--scan-points", "64"]), ("expand", ["--tol", "1e-8"]),
    ("audit", ["--tol", "1e-8"]), ("expand", ["--grid", "256:1024:4"]),
    ("quad", ["--grid", "256:1024:4"]), ("audit", ["--grid", "256:1024:4"]),
])
def test_option_the_command_does_not_read_is_a_usage_error(tmp_path, capsys,
                                                           command, option):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", cfg, *option])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err
    assert captured.out == ""


class TestCmdExpand:
    def test_quadratic_main_term(self, tmp_path, capsys):
        cfg = write(tmp_path, "quad.cfg", QUADRATIC_CFG)
        assert main(["expand", "--config", cfg]) == 0
        out = capsys.readouterr().out
        main_line = next(l for l in out.splitlines() if l.startswith("main term"))
        assert "0.5" in main_line and "+0.5" in main_line
        assert "gamma = " in out
        assert "error_scale" in out

    def test_printed_value_round_trips_exactly(self, tmp_path, capsys):
        from oscphase.cli import parse_config as pc
        cfg_text = CUBIC_CFG
        cfg = write(tmp_path, "cubic.cfg", cfg_text)
        assert main(["expand", "--config", cfg]) == 0
        out = capsys.readouterr().out
        line = next(l for l in out.splitlines() if l.startswith("value = "))
        re_s, im_s = line[len("value = "):].rstrip("i").split(" ")
        from oscphase.expansion import stationary_phase_expand
        res = stationary_phase_expand(pc(cfg_text).to_problem())
        assert float(re_s) == res.value.real
        assert float(im_s) == res.value.imag

    def test_degenerate_gamma_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "quartic.cfg", "f = T*x^4\ng = 1\nalpha = -1\n"
                                             "beta = 1\nn = 2\nT = 16\n")
        assert main(["expand", "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            "f''(gamma) = 3.997e-33 within tolerance of zero\n")

    def test_monotone_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "mono.cfg", MONOTONE_CFG)
        assert main(["expand", "--config", cfg]) == 2
        assert "no stationary point; use quad or fdt" in capsys.readouterr().err

    def test_phase_overflowing_at_an_end_exits_2(self, tmp_path, capsys):
        cfg = write(tmp_path, "overflow.cfg",
                    "f = (x-0.1)^2*1e200*1e200\ng = 1\nalpha = -1\n"
                    "beta = 1.3\nn = 2\nT = 1\n")
        assert main(["expand", "--config", cfg]) == 2
        assert "phase f(1.3) is not finite" in capsys.readouterr().err

    def test_missing_key_exits_1(self, tmp_path, capsys):
        cfg = write(tmp_path, "bad.cfg", "g = 1\nalpha = 0\nbeta = 1\nn = 2\n")
        assert main(["expand", "--config", cfg]) == 1
        assert "missing key: f" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "expand"])
    def test_zero_to_negative_power_in_weight_exits_1(self, tmp_path, capsys,
                                                       command):
        cfg = write(tmp_path, "pole.cfg",
                    "f = T*(x - 0.75)^2\ng = (x - 0.5)^-1\nalpha = 0.5\n"
                    "beta = 1\nn = 2\nT = 100\n")
        assert main([command, "--config", cfg]) == 1
        assert "zero to a negative power (offset 9)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "expand"])
    def test_literal_overflowing_to_inf_exits_1(self, tmp_path, capsys,
                                                command):
        cfg = write(tmp_path, "huge.cfg",
                    "f = T*(x - 0.75)^2\ng = x^1e400\nalpha = 0.5\n"
                    "beta = 1\nn = 2\nT = 100\n")
        assert main([command, "--config", cfg]) == 1
        assert "'1e400' overflows to inf (offset 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["audit", "expand"])
    def test_fpp_squared_beyond_float_range_exits_0(self, tmp_path, capsys,
                                                    command):
        cfg = write(tmp_path, "steep.cfg",
                    "f = (x-0.1)^2*1e300\ng = 1\nalpha = -1\n"
                    "beta = 1.3\nn = 2\nT = 1\n")
        assert main([command, "--config", cfg]) == 0
        assert "Delta = 0" in capsys.readouterr().out

    def test_n_override(self, tmp_path, capsys):
        cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
        assert main(["expand", "--config", cfg, "--n", "3"]) == 0
        assert "order n = 3" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["expand", "quad", "audit", "study"])
@pytest.mark.parametrize("value", ["0", "-1", ",", "", "1,,2", "two"])
def test_bad_n_exits_1(tmp_path, capsys, command, value):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main([command, "--config", cfg, "--n", value]) == 1
    assert "bad --n value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["expand", "quad", "audit"])
def test_n_list_outside_study_exits_1(tmp_path, capsys, command):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main([command, "--config", cfg, "--n", "1,3"]) == 1
    assert "bad --n value" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["expand", "quad", "audit"])
@pytest.mark.parametrize("points", ["0", "1"])
def test_scan_grid_below_two_points_exits_1(tmp_path, capsys, command, points):
    cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
    assert main([command, "--config", cfg, "--scan-points", points]) == 1
    assert "scan_points must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "1"])
def test_scan_grid_below_two_points_exits_1_when_T_is_inferred(
        tmp_path, capsys, points):
    cfg = write(tmp_path, "quadratic.cfg", QUADRATIC_CFG)
    assert main(["expand", "--config", cfg, "--scan-points", points]) == 1
    assert "scan_points must be at least 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["expand", "audit"])
@pytest.mark.parametrize("key, value", [
    ("alpha", "nan"), ("beta", "inf"), ("M", "nan"), ("M", "inf"),
    ("N", "nan"), ("U", "inf"), ("T", "nan"), ("T", "inf"), ("c", "nan"),
])
def test_non_finite_problem_input_exits_1(tmp_path, capsys, command, key,
                                          value):
    top = {"f": "T*(x^2 + x^3/3)", "g": "1/(1+c*x^2)", "alpha": "-0.5",
           "beta": "0.5", "n": "2", "T": "1024"}
    params = {"c": "0.5"}
    (params if key == "c" else top)[key] = value
    text = "".join(f"{k} = {v}\n" for k, v in top.items())
    text += "[params]\n" + "".join(f"{k} = {v}\n" for k, v in params.items())
    assert main([command, "--config", write(tmp_path, "c.cfg", text)]) == 1
    captured = capsys.readouterr()
    field = "parameter c" if key == "c" else key
    assert captured.err.startswith(f"{field} must be") and captured.out == ""


class TestCmdStudy:
    def test_csv_contract_and_bit_stability(self, tmp_path, capsys):
        cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
        args = ["study", "--config", cfg, "--grid", "256:4096:4", "--n", "1,2"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert main(args) == 0
        second = capsys.readouterr()
        assert first.out == second.out
        lines = first.out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 3 * 2
        assert "fitted slope" in first.err

    def test_stderr_reports_each_oracle_pass_and_the_uncertified_rows(
            self, tmp_path, capsys):
        # At a fixed tol of 1e-12 the oracle leaves rows it cannot vouch for.
        cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
        assert main(["study", "--config", cfg, "--grid", "256:4096:4",
                     "--n", "1,2,3", "--tol", "1e-12"]) == 0
        captured = capsys.readouterr()
        diffs = {}
        for line in captured.err.splitlines():
            if "oracle panels=" in line:
                T, fields = line.split(": oracle ")
                stats = dict(kv.split("=") for kv in fields.split())
                assert int(stats["panels"]) > 0 and int(stats["refinements"]) >= 0
                assert int(stats["nodes"]) >= 24 * int(stats["panels"])
                diffs[T.removeprefix("T=")] = float(stats["diff"])
        assert list(diffs) == ["256", "1024", "4096"]
        named = {line.split(": uncertified")[0]
                 for line in captured.err.splitlines() if "uncertified" in line}
        want = set()
        for line in captured.out.splitlines()[1:]:
            T, n, *_, abs_error, _ = line.split(",")
            # diff is printed to 4 digits: leave out the rows on the edge
            ratio = float(abs_error) / (10.0 * diffs[T])
            assert not 0.999 < ratio < 1.001
            if ratio < 1.0:
                want.add(f"T={T} n={n}")
        assert named == want and want

    def test_default_tol_follows_the_rows_and_certifies_them(self, tmp_path, capsys):
        cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
        assert main(["study", "--config", cfg, "--grid", "256:4096:4",
                     "--n", "1,2,3"]) == 0
        err = capsys.readouterr().err.splitlines()
        diffs = [float(line.rsplit("diff=", 1)[1]) for line in err
                 if "oracle panels=" in line]
        assert len(diffs) == 3 and max(diffs) < 1e-15
        assert not [line for line in err if "uncertified" in line]

    def test_single_T_reports_nan_slope(self, tmp_path, capsys):
        cfg = write(tmp_path, "cubic.cfg", CUBIC_CFG)
        assert main(["study", "--config", cfg, "--n", "2"]) == 0
        err = capsys.readouterr().err
        assert "nan" in err.lower()

    def test_failed_oracle_exits_4(self, tmp_path, capsys):
        # 1e7 turns need more than max_panels at either start width.
        cfg = write(tmp_path, "linear.cfg", "f = T*x\ng = 1\nalpha = 1\n"
                                            "beta = 2\nn = 2\nT = 1e7\n")
        assert main(["study", "--config", cfg, "--n", "1,2"]) == 4
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1:] == [
            f"10000000,{n},nan,nan,nan,nan,nan,nan" for n in (1, 2)]
        assert captured.err.startswith("T=10000000: oracle failed: phase change")

    def test_failed_rows_exit_4(self, tmp_path, capsys):
        cfg = write(tmp_path, "multi.cfg", MULTI_STATIONARY_CFG)
        code = main(["study", "--config", cfg, "--grid", "64:256:4", "--n", "1"])
        assert code == 4
        out = capsys.readouterr().out
        assert "nan" in out.lower()


class TestCmdAudit:
    def test_quadratic_delta(self, tmp_path, capsys):
        cfg = write(tmp_path, "audit.cfg",
                    "f = T*x^2\ng = 1\nalpha = -1\nbeta = 1\nn = 2\n"
                    "T = 50\nM = 2\n")
        assert main(["audit", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert f"Delta = {1/512:.17g}" in out
        assert "validity_ok = False" in out
        assert "M >= beta - alpha: True" in out

    def test_fpp_violation_informational_exit_0(self, tmp_path, capsys):
        cfg = write(tmp_path, "neg.cfg",
                    "f = x^2 + x^3\ng = 1\nalpha = -0.35\nbeta = 0.5\nn = 1\n"
                    "T = 1\nM = 1\n")
        assert main(["audit", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "violated" in out
