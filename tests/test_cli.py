"""Command line surface: outputs, determinism, exit codes."""

import math

import pytest

from orbitflow.cli import main

SAMPLE = """\
[model]
name = tiny
b = 0
n_removed = 1
vertices = 2
[edge] from=1 to=1 roof=1.0 class=0
[edge] from=1 to=2 roof=1.0 class=1
[edge] from=2 to=1 roof=1.0 class=0
[edge] from=2 to=2 roof=1.0 class=1
[removed] cycle = 2
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# inputs the contract answers with exit 2 and one error line
BAD_INPUT = (
    "pressure bench3 --u abc",
    "count full2 --T 5 --delta 9 --rho 0.5 --alpha 0",
    "equidist full2 --T 10 --delta 2 --rho 0.5 --alpha 0 --obs junk",
    "chebotarev full2 --mod 0 --n 5",
    "hull full2 --n 0",
    "count bench3 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "predict bench3 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "count full2 --T 5 --delta 1 --rho 0.5 --alpha x",
    "equidist full2 --T 10 --delta 2 --rho 0.5 --alpha 0 --obs 3>1=1",
)


@pytest.mark.parametrize("command", BAD_INPUT)
def test_bad_input_exits_2_with_one_error_line(capsys, command):
    code, out, err = run(capsys, *command.split(" "))
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


class TestValidate:
    def test_builtin_ok(self, capsys):
        code, out, _ = run(capsys, "validate", "full2")
        assert code == 0 and out.startswith("ok:")

    def test_bad_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.model"
        p.write_text(SAMPLE.replace("roof=1.0 class=0\n[edge] from=1 to=2", "roof=0.0 class=0\n[edge] from=1 to=2"))
        code, _, err = run(capsys, "validate", str(p))
        assert code == 2 and "roof" in err

    def test_unknown_model_exits_2(self, capsys):
        code, _, err = run(capsys, "validate", "nope")
        assert code == 2 and "nope" in err


class TestPressure:
    def test_full2_value(self, capsys):
        code, out, _ = run(capsys, "pressure", "full2", "--u", "0")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "u,pressure,gradient"
        fields = row.split(",")
        assert float(fields[1]) == pytest.approx(math.log(2), abs=1e-10)
        assert float(fields[2]) == pytest.approx(0.5, abs=1e-10)

    def test_deterministic_bytes(self, capsys):
        _, out1, _ = run(capsys, "pressure", "bench3", "--u", "0.25,-0.5")
        _, out2, _ = run(capsys, "pressure", "bench3", "--u", "0.25,-0.5")
        assert out1 == out2

    def test_underflow_exits_3(self, capsys):
        code, out, err = run(capsys, "pressure", "full2", "--u", "800")
        assert code == 3 and out == ""
        assert err.count("error:") == 1 and "Traceback" not in err


class TestEntropy:
    def test_full2_row(self, capsys):
        code, out, _ = run(capsys, "entropy", "full2", "--rho", "0.5")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == "rho,u,entropy,det_hessian"
        fields = row.split(",")
        assert float(fields[2]) == pytest.approx(math.log(2), abs=1e-9)
        assert float(fields[3]) == pytest.approx(-4.0, abs=1e-4)

    def test_outside_exits_3(self, capsys):
        code, _, err = run(capsys, "entropy", "full2", "--rho", "1.7")
        assert code == 3 and "error" in err


class TestHull:
    def test_full2(self, capsys):
        code, out, _ = run(capsys, "hull", "full2", "--n", "2")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "role,coords"
        assert "dim,1" in lines[1]
        assert any(line == "vertex,1.0" for line in lines)


class TestCountPredict:
    def test_count_row(self, capsys):
        code, out, _ = run(
            capsys, "count", "full2", "--T", "3", "--delta", "3",
            "--rho", "0", "--alpha", "1",
        )
        assert code == 0
        _, row = out.strip().splitlines()
        # class-1 cycles of length <= 3 are (2), (1,2), (1,1,2); the
        # removed orbit (2) is excluded by default
        assert row.split(",")[-1] == "2"

    def test_predict_row(self, capsys):
        code, out, _ = run(
            capsys, "predict", "full2", "--T", "10", "--delta", "1",
            "--rho", "0.5", "--alpha", "0",
        )
        assert code == 0
        _, row = out.strip().splitlines()
        assert float(row.split(",")[-1]) == pytest.approx(18.637, rel=1e-3)

    def test_budget_exit_3(self, capsys):
        code, _, err = run(
            capsys, "count", "full2", "--T", "50", "--delta", "1",
            "--rho", "0.5", "--alpha", "0",
        )
        assert code == 3 and "cap" in err


class TestSweep:
    def test_csv_shape_and_determinism(self, capsys):
        args = (
            "sweep", "full2", "--Tmin", "8", "--Tmax", "12", "--step", "2",
            "--rho", "0.5", "--alpha", "0",
        )
        code, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert code == 0 and out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "T,delta,target_class,exact,predicted,ratio"
        assert len(lines) == 4


class TestMargulis:
    def test_reference_value(self, capsys):
        code, out, _ = run(capsys, "margulis", "full2", "--T", "4")
        assert code == 0
        _, row = out.strip().splitlines()
        fields = row.split(",")
        assert fields[1] == "7"  # 8 prime cycles minus the removed one
        assert float(fields[2]) == pytest.approx(16 / (4 * math.log(2)), rel=1e-9)


class TestChebotarev:
    def test_mod_flag(self, capsys):
        code, out, _ = run(capsys, "chebotarev", "full2", "--mod", "2", "--n", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "class,count,frequency,reference"
        assert len(lines) == 3

    def test_named_quotient(self, capsys):
        code, out, _ = run(
            capsys, "chebotarev", "bench3", "--quotient", "mod2x3", "--n", "6"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_both_flags_rejected(self, capsys):
        code, _, err = run(
            capsys, "chebotarev", "full2", "--mod", "2", "--quotient", "x", "--n", "4"
        )
        assert code == 2


class TestEquidist:
    def test_roof_observable(self, capsys):
        code, out, _ = run(
            capsys, "equidist", "full2", "--T", "8", "--delta", "2",
            "--rho", "0.5", "--alpha", "0",
            "--obs", "1>1=1,1>2=1,2>1=1,2>2=1",
        )
        assert code == 0
        _, row = out.strip().splitlines()
        empirical, expected, n = row.split(",")
        assert float(empirical) == pytest.approx(1.0, abs=1e-12)
        assert float(expected) == pytest.approx(1.0, abs=1e-12)
        assert int(n) > 0


class TestShow:
    def test_roundtrip_via_cli(self, capsys, tmp_path):
        code, out, _ = run(capsys, "show", "goldenmean")
        assert code == 0
        p = tmp_path / "gm.model"
        p.write_text(out)
        code2, out2, _ = run(capsys, "show", str(p))
        assert code2 == 0 and out2 == out


class TestCheck:
    def test_runs_clean(self, capsys):
        code, out, _ = run(capsys, "check")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all("PASS" in line for line in lines)
