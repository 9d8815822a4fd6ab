"""Command line surface: outputs, determinism, exit codes."""

import contextlib
import io
import math
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitflow import builtin_model, serialize_model
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
    "chebotarev full2 --mod 2 --n 0",
    "chebotarev full2 --mod 2 --n -3",
    "hull full2 --n 0",
    "count bench3 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "predict bench3 --T 10 --delta 1 --rho 0.5 --alpha 0",
    "count full2 --T 5 --delta 1 --rho 0.5 --alpha x",
    "equidist full2 --T 10 --delta 2 --rho 0.5 --alpha 0 --obs 3>1=1",
    "margulis full2 --T 0",
    "margulis full2 --T nan",
    "margulis full2 --T inf",
    "margulis full2 --T -1",
    "count full2 --T inf --delta 1 --rho 0.5 --alpha 0",
    "predict full2 --T inf --delta 1 --rho 0.5 --alpha 0",
    "sweep full2 --Tmin 1 --Tmax 5 --step 0 --rho 0.5 --alpha 0",
    "sweep full2 --Tmin 1 --Tmax 5 --step -1 --rho 0.5 --alpha 0",
    "sweep full2 --Tmin 1 --Tmax inf --step 1 --rho 0.5 --alpha 0",
    "sweep full2 --Tmin 1 --Tmax 2 --step 1e-17 --rho 0.5 --alpha 0",
    "sweep full2 --Tmin 1 --Tmax 20001 --step 2 --rho 0.5 --alpha 0",
    # the first step moves T, the second rounds back onto it (a tie to even)
    "sweep full2 --Tmin 1.0000000000000002 --Tmax 1.000000000000001 "
    "--step 1.1102230246251565e-16 --rho 0.5 --alpha 0",
    "chebotarev full2 --mod 2 --quotient x --n 4",
    # a target class floor(T rho) + alpha outside int64, or T rho past the float range
    "count full2 --T 10 --delta 1 --rho -1e300 --alpha 0",
    "count bench3 --T 10 --delta 1 --rho 0.5,0.5 --alpha 99999999999999999999,0",
    "count bench3 --T 1e300 --delta 0.5 --rho 2.5,1e300 --alpha 2,1",
)


@pytest.mark.parametrize("command", BAD_INPUT)
def test_bad_input_exits_2_with_one_error_line(capsys, command):
    code, out, err = run(capsys, *command.split(" "))
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err



# refusals pinned to their one line: (command, exit code, message)
PINNED_REFUSALS = (
    ("chebotarev bench3 --quotient nope --n 5", 2, "model has no quotient named 'nope'"),
    ("chebotarev bench3 --mod 400 --n 5", 2, "quotient order 160000 too large to tabulate"),
    # an order past 12 digits is named by its digit count
    ("chebotarev bench3 --mod 99999999999999999999 --n 5", 2,
     "quotient order of 40 digits too large to tabulate, limit 100000"),
    ("count full2 --T 10 --delta 1 --rho 0.5,0.5 --alpha 0", 2,
     "rho and alpha must have the same length"),
    # the growth law e^(hT) past the float range
    ("predict full2 --T 1100 --delta 1 --rho 0.5 --alpha 0", 3,
     "the predicted count overflows a float at T = 1100"),
    ("margulis full2 --T 1030 --budget 1100", 3,
     "the reference e^(hT)/(hT) overflows a float at T = 1030"),
    # ... and at a T so small that hT or T^(1 + d/2) underflows
    ("margulis goldenmean --T 5e-324", 3,
     "the reference e^(hT)/(hT) divides by hT, which underflows a float at T = 4.94066e-324"),
    ("margulis bench3 --T 5e-324", 3,
     "the reference e^(hT)/(hT) divides by hT, which underflows a float at T = 4.94066e-324"),
    ("predict full2 --T 5e-324 --delta 5e-324 --rho 0.5 --alpha 0", 3,
     "the predicted count divides by T^(1 + d/2), which underflows a float at T = 4.94066e-324"),
    # ... and at a T whose power T^(1 + d/2) itself overflows
    ("predict full2 --T 1e300 --delta 1 --rho 0.5 --alpha 0", 3,
     "the predicted count overflows a float at T = 1e+300"),
    # a direction so far out that the Newton products overflow
    ("entropy full2 --rho 1e300", 3, "line search stalled with gradient norm 1e+300"),
)


@pytest.mark.parametrize("command,code,message", PINNED_REFUSALS)
def test_refusal_prints_one_pinned_line(capsys, command, code, message):
    assert run(capsys, *command.split(" ")) == (code, "", f"error: {message}\n")


def test_huge_alpha_still_predicts(capsys):
    # only the exact counters need the target class in int64
    code, out, err = run(capsys, *"predict full2 --T 10 --delta 1 --rho 0.5 "
                                  "--alpha 99999999999999999999".split(" "))
    assert code == 0 and err == "" and ",100000000000000000004," in out


# the contract fuzz: every command on every builtin, each numeric option
# an ordinary value or, one time in three, an extreme one; depths and
# periods stay small, so no case scans long
REAL = ("nan", "inf", "-inf", "5e-324", "-5e-324", "1e300", "-1e300", "0", "-1",
        "99999999999999999999", "-99999999999999999999")
INT = ("0", "-1", "9223372036854775808", "99999999999999999999", "-99999999999999999999")
SMALL = ("0", "-1", "1", "-99999999999999999999")   # extremes of an option kept small
VECTORS = ("--u", "--rho", "--alpha")
# option, its ordinary values, its extreme values
WINDOW = [("--T", ("3", "5"), REAL), ("--delta", ("1", "2"), REAL),
          ("--rho", ("0.3", "0.1"), REAL), ("--alpha", ("0", "1", "-1"), INT),
          ("--budget", ("9",), SMALL)]
GRAMMAR = {
    "validate": [],
    "show": [],
    "pressure": [("--u", ("0.3", "-1"), REAL)],
    "entropy": [("--rho", ("0.3", "0.1"), REAL)],
    "hull": [("--n", ("3", "6"), SMALL)],
    "count": WINDOW,
    "predict": WINDOW[:-1],   # predict has no depth cap, so no --budget
    "sweep": [("--Tmin", ("2", "3"), REAL), ("--Tmax", ("5",), REAL),
              ("--step", ("0.5", "1"), REAL)] + WINDOW[1:],
    "margulis": [("--T", ("3", "5"), REAL), ("--budget", ("9",), SMALL)],
    "chebotarev": [("--mod", ("2", "3"), INT), ("--n", ("5", "9"), SMALL)],
    "equidist": WINDOW + [("--obs", ("1>2=1",), tuple("1>2=" + x for x in REAL))],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    model = draw(st.sampled_from(["full2", "goldenmean", "bench3", "roof2"]))
    d = 2 if model == "bench3" else 1   # the class dimension

    def value(ordinary, extreme):
        return draw(st.sampled_from(extreme if draw(st.sampled_from([0, 0, 1])) else ordinary))

    argv = [command, model]
    for option, *values in GRAMMAR[command]:
        size = draw(st.sampled_from([d, d, 3 - d])) if option in VECTORS else 1
        argv += [option, ",".join(value(*values) for _ in range(size))]
    return argv


@pytest.fixture(scope="session")
def roof2(tmp_path_factory):
    """full2's graph with every roof 2.0: windows walked with a roof other than 1."""
    path = tmp_path_factory.mktemp("models") / "roof2.model"
    path.write_text(serialize_model(builtin_model("full2")).replace("roof=1.0", "roof=2.0"))
    return str(path)


@pytest.mark.filterwarnings("ignore:.*quotient classes receive no orbit:UserWarning")
@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(argv=fuzz_argv())
def test_contract_holds_on_extreme_values(roof2, argv):
    argv = [roof2 if a == "roof2" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        return
    for line in out.splitlines():
        fields = line.split(",")
        for i, field in enumerate(fields):
            for token in re.split(r"[;=\s]+", field):
                if token.lstrip("-").lower() in ("inf", "nan"):
                    # only sweep's ratio column reads nan, at a prediction of 0
                    assert argv[0] == "sweep" and i == len(fields) - 1 and token == "nan"


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

    def test_closed_forms_off_the_symmetric_point(self, capsys):
        # full2 at rho: u = log(rho / (1 - rho)), the binary entropy, and
        # det = -1 / (rho (1 - rho)), each to float accuracy
        code, out, _ = run(capsys, "entropy", "full2", "--rho", "0.3")
        assert code == 0
        fields = out.strip().splitlines()[1].split(",")
        assert float(fields[1]) == pytest.approx(math.log(3 / 7), abs=1e-12)
        assert float(fields[2]) == pytest.approx(-0.3 * math.log(0.3) - 0.7 * math.log(0.7),
                                                 abs=1e-12)
        assert float(fields[3]) == pytest.approx(-1 / (0.3 * 0.7), abs=1e-12)

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

    def test_no_cycle_within_n_exits_2(self, capsys, tmp_path):
        p = tmp_path / "cycle3.model"
        p.write_text(
            "[model]\nname = cycle3\nb = 1\nn_removed = 0\nvertices = 3\n"
            + "".join(f"[edge] from={a} to={b} roof=1.0 class=1\n" for a, b in ((1, 2), (2, 3), (3, 1)))
        )
        code, out, err = run(capsys, "hull", str(p), "--n", "2")
        assert code == 2 and out == "" and err.count("error:") == 1


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

    def test_raised_budget_counts_past_the_default(self, capsys):
        # the binary necklace total for n <= 40, minus the removed orbit
        code, out, _ = run(capsys, "margulis", "full2", "--T", "40", "--budget", "40")
        assert code == 0
        _, row = out.strip().splitlines()
        assert row.split(",")[:2] == ["40.0", "56466147790"]

    def test_total_past_int64(self, capsys):
        code, out, _ = run(capsys, "margulis", "full2", "--T", "70", "--budget", "70")
        assert code == 0
        _, row = out.strip().splitlines()
        assert row.split(",")[:2] == ["70.0", "34235111282896557688"]

    def test_default_budget_exits_3(self, capsys):
        code, out, err = run(capsys, "margulis", "full2", "--T", "40")
        assert code == 3 and out == ""
        assert len(err.strip().splitlines()) == 1 and "cap 32" in err


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


# non-finite reals are refused when the arguments are read
NON_FINITE = (
    "pressure full2 --u nan",
    "pressure full2 --u inf",
    "pressure bench3 --u 0,-inf",
    "entropy full2 --rho nan",
    "entropy full2 --rho inf",
    "count full2 --T 5 --delta 1 --rho nan --alpha 0",
    "predict full2 --T 8 --delta 1 --rho=-inf --alpha 0",
    "equidist full2 --T 8 --delta 1 --rho 0.5 --alpha 0 --obs 1>1=nan",
    "equidist full2 --T 8 --delta 1 --rho 0.5 --alpha 0 --obs 1>1=1,2>2=inf",
    "equidist full2 --T 8 --delta 1 --rho 0.5 --alpha 0 --obs 1>2=-inf",
)


@pytest.mark.parametrize("command", NON_FINITE)
def test_non_finite_reals_exit_2(capsys, command):
    code, out, err = run(capsys, *command.split(" "))
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    assert "finite" in err


@pytest.mark.parametrize("roof", ["inf", "-inf", "nan", "1e400", "log(1e400)"])
def test_non_finite_roof_fails_at_load(tmp_path, capsys, roof):
    p = tmp_path / "roof.model"
    p.write_text(SAMPLE.replace("from=1 to=2 roof=1.0", f"from=1 to=2 roof={roof}"))
    for command in ("validate", "pressure"):
        code, out, err = run(capsys, command, str(p), *(["--u", "0"] if command == "pressure" else []))
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1


# full2's graph with one class entry on 1>2 and 2>2; cycle (1,2,2) sums
# three times that entry
@pytest.mark.parametrize("command,entry", [
    ("hull {} --n 3", 2**62),
    ("hull {} --n 3", 10**20),
    ("count {} --T 3 --delta 3 --rho 0 --alpha 0", 10**20),
    ("count {} --T 3 --delta 3 --rho 0 --alpha 0", 2**62),
])
def test_class_sums_past_int64_exit_2(tmp_path, capsys, command, entry):
    p = tmp_path / "big.model"
    p.write_text(SAMPLE.replace("2 roof=1.0 class=1", f"2 roof=1.0 class={entry}"))
    code, out, err = run(capsys, *command.format(p).split(" "))
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
    assert "int64" in err


def test_class_box_past_the_quotient_limit_counts_by_the_scan(tmp_path, capsys):
    # unit roofs, but a class box of 3 * 10^6 + 1 classes: the scan counts
    # the one cycle (1,2,2) of class 2 * 10^6
    p = tmp_path / "wide.model"
    p.write_text(SAMPLE.replace("2 roof=1.0 class=1", "2 roof=1.0 class=1000000"))
    code, out, err = run(capsys, *f"count {p} --T 3 --delta 3 --rho 0 --alpha 2000000".split(" "))
    assert (code, err) == (0, "") and out.splitlines()[1] == "3.0,3.0,2000000,1"


def test_unit_roof_k5_counts_by_closed_walks(tmp_path, capsys):
    # the complete graph on 5 vertices: the prime cycles of period 16 are
    # the aperiodic 5-ary necklaces, (5^16 - 5^8) / 16, far past what a
    # scan could list
    p = tmp_path / "k5.model"
    p.write_text("[model]\nname = k5\nb = 1\nn_removed = 0\nvertices = 5\n" + "".join(
        f"[edge] from={a} to={b} roof=1.0 class=0\n" for a in range(1, 6) for b in range(1, 6)))
    t0 = time.perf_counter()
    code, out, err = run(capsys, *f"count {p} --T 16 --delta 1 --rho 0 --alpha 0".split(" "))
    assert time.perf_counter() - t0 < 1.0
    assert (code, err) == (0, "") and out.splitlines()[1] == f"16.0,1.0,0,{(5**16 - 5**8) // 16}"


# a value whose first component is negative, given as its own argument,
# reads as the value and not as a flag: each command behaves as its
# --opt=value form does
@pytest.mark.parametrize("spaced,joined", [
    ("pressure bench3 --u -0.25,0.5", "pressure bench3 --u=-0.25,0.5"),
    ("count bench3 --T 12 --delta 1 --rho 0.3,0.05 --alpha -1,0",
     "count bench3 --T 12 --delta 1 --rho 0.3,0.05 --alpha=-1,0"),
    ("entropy bench3 --rho -inf", "entropy bench3 --rho=-inf"),
])
def test_negative_values_as_separate_arguments(capsys, spaced, joined):
    got = run(capsys, *spaced.split(" "))
    assert got == run(capsys, *joined.split(" "))
    code, out, err = got
    if "inf" in spaced:
        assert code == 2 and out == "" and "finite" in err
        assert len(err.strip().splitlines()) == 1
    else:
        assert code == 0 and err == "" and out.count("\n") == 2


def test_non_finite_newton_step_exits_3_with_one_line(capsys):
    code, out, err = run(capsys, "entropy", "bench3",
                         "--rho=-0.3775701322221332,0.7787958640083494")
    assert code == 3 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1


# random strong graphs whose outside dual solve hit a failed eigensolve
# (seed 141) or a zero eigen-chain normalisation (seed 3)
PERRON_FAILURES = (
    ("""\
[model]
name = seed141
b = 2
n_removed = 0
vertices = 3
[edge] from=1 to=1 roof=1.2771221645412798 class=-2,0
[edge] from=1 to=3 roof=1.2355670553410292 class=-1,-2
[edge] from=2 to=1 roof=0.9035158973899023 class=-1,1
[edge] from=2 to=3 roof=0.5817240747712317 class=-2,1
[edge] from=3 to=1 roof=1.3151127654177825 class=2,1
[edge] from=3 to=2 roof=1.112845648529185 class=-1,-2
""", "2.212444310475856,-1.435942383990585"),
    ("""\
[model]
name = seed3
b = 1
n_removed = 0
vertices = 4
[edge] from=1 to=2 roof=1.4562672548360984 class=2
[edge] from=1 to=4 roof=0.7842011637487915 class=-2
[edge] from=2 to=2 roof=1.148547207079825 class=-1
[edge] from=2 to=3 roof=1.1962159966701553 class=-2
[edge] from=3 to=1 roof=0.7927207490124871 class=2
[edge] from=3 to=2 roof=0.5014900835088362 class=1
[edge] from=3 to=3 roof=1.4734602747664127 class=0
[edge] from=4 to=2 roof=0.7984012230168757 class=-1
""", "1.3663850482440818"),
)


@pytest.mark.parametrize("text,rho", PERRON_FAILURES, ids=["seed141", "seed3"])
def test_perron_failure_exits_3_with_one_line(capsys, tmp_path, text, rho):
    path = tmp_path / "model.txt"
    path.write_text(text)
    code, out, err = run(capsys, "entropy", str(path), "--rho", rho)
    assert code == 3 and out == ""
    assert err.count("error:") == 1 and len(err.strip().splitlines()) == 1
