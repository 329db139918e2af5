"""Command-line interface: dispatch, formats, exit codes, reproducibility."""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from catassoc.association import make_weights
from catassoc.cli import EXIT_DATA, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from catassoc.dataset import read_csv
from catassoc.fixtures import loan_dataset
from catassoc.resample import count_bootstrap, retention_ratio, stratified_bootstrap
from catassoc.selection import tau_joint, y_marginal

from conftest import count_replicates


@pytest.fixture(scope="module")
def loan_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "loan.csv"
    ds = loan_dataset()
    rows = [",".join(ds.names)]
    cols = [ds.labels(nm) for nm in ds.names]
    for i in range(ds.n_records):
        rows.append(",".join(col[i] for col in cols))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


class TestMatrix:
    def test_loan_first_row(self, loan_csv, capsys):
        assert main(["matrix", "-i", loan_csv, "--x", "On-Time", "--y", "Risk"]) == EXIT_OK
        out = capsys.readouterr().out
        first = out.splitlines()[1]
        for cell in ("0.5108", "0.0407", "0.4485"):
            assert cell in first

    def test_fixture_name_as_input(self, capsys):
        assert main(["matrix", "-i", "loan", "--x", "On-Time", "--y", "Risk"]) == EXIT_OK
        assert "0.5108" in capsys.readouterr().out

    def test_unknown_variable_exit_code(self, loan_csv, capsys):
        rc = main(["matrix", "-i", loan_csv, "--x", "Nope", "--y", "Risk"])
        assert rc == EXIT_DATA
        assert "Nope" in capsys.readouterr().err

    def test_composite_x(self, loan_csv, capsys):
        rc = main(["matrix", "-i", loan_csv, "--x", "Age,Income", "--y", "Risk"])
        assert rc == EXIT_OK

    @pytest.mark.parametrize("fmt, code", [("text", EXIT_OK), ("csv", EXIT_OK),
                                           ("json", EXIT_DOMAIN)])
    def test_constant_response(self, tmp_path, capsys, fmt, code):
        # the 1x1 matrix is defined; the JSON report also holds the
        # association vector and degrees, which are not
        p = tmp_path / "const.csv"
        p.write_text("A,Y\na,0\nb,0\n", encoding="utf-8")
        assert main(["matrix", "-i", str(p), "--x", "A", "--y", "Y",
                     "--format", fmt]) == code
        out, err = capsys.readouterr()
        if code == EXIT_OK:
            assert "1.0" in out and not err
        else:
            assert "response is constant" in err


class TestTau:
    def test_loan_age_risk(self, loan_csv, capsys):
        assert main(["tau", "-i", loan_csv, "--x", "Age", "--y", "Risk",
                     "--weights", "gk"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.5137"

    def test_custom_weights_file(self, loan_csv, tmp_path, capsys):
        wf = tmp_path / "w.csv"
        wf.write_text("1,1,1\n", encoding="utf-8")
        assert main(["tau", "-i", loan_csv, "--x", "Age", "--y", "Risk",
                     "--weights-file", str(wf)]) == EXIT_OK

    def test_constant_response_exit_code(self, tmp_path, capsys):
        p = tmp_path / "const.csv"
        p.write_text("A,Y\na,0\nb,0\n", encoding="utf-8")
        assert main(["tau", "-i", str(p), "--x", "A", "--y", "Y"]) == EXIT_DOMAIN


class TestEquiv:
    def test_text_table(self, capsys):
        assert main(["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2",
                     "--y", "Y", "--tol", "1e-9"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "level 5: yes" in out and "level 4: no" in out

    def test_json(self, capsys):
        assert main(["equiv", "-i", "sixths", "--x1", "X1", "--x2", "X2",
                     "--y", "Y", "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["result"]["e4"] is True
        assert data["result"]["e3"] is False
        assert data["result"]["strongest"] == 4


class TestSelect:
    def test_trace_json(self, capsys):
        assert main(["select", "-i", "loan", "--response", "Risk",
                     "--weights", "gk", "--eps", "0.001",
                     "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["result"]["steps"]
        assert data["result"]["basis"]
        assert data["config"]["command"] == "select"


class TestBasisCommand:
    def test_runs(self, capsys):
        assert main(["basis", "-i", "sevenths", "--eps", "1e-9"]) == EXIT_OK
        assert "basis:" in capsys.readouterr().out


class TestValidate:
    def test_runs_and_embeds_seed(self, capsys):
        assert main(["validate", "-i", "survey", "--x", "X", "--y", "Y",
                     "--train", "0.8", "--seed", "7",
                     "--format", "json"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["result"]["seed"] == 7
        assert data["config"]["seed"] == 7

    def test_seed_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "-i", "survey", "--x", "X", "--y", "Y"])
        assert exc.value.code == 2


class TestBootstrapCommand:
    def test_retention(self, tmp_path, capsys):
        flu = tmp_path / "flu.csv"
        assert main(["simulate", "flu", "--n", "2000", "--seed", "1",
                     "--out", str(flu)]) == EXIT_OK
        rc = main(["bootstrap", "-i", str(flu), "--stat", "retention",
                   "--response", "Y", "--subset", "X1,X2", "--B", "50",
                   "--seed", "3", "--format", "json"])
        assert rc == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert 0.5 <= data["result"]["mean"] <= 1.0 + 1e-9
        assert data["result"]["seed"] == 3

    @pytest.mark.parametrize("stat,subset,weights", [
        ("retention", "X1,X2", "gk"), ("retention", "X2", "ipw"),
        ("retention", None, "ew"), ("tau", "X2,X1", "gk"), ("tau", None, "ipw")])
    def test_matches_bootstrap_by_variable_names(self, stat, subset, weights,
                                                 tmp_path, capsys):
        # The command draws replicates as pair counts of the full-set
        # composite.  Its point is the statistic by names, each replicate
        # scores bitwise as the statistic of the records its counts stand
        # for, and its replicate distribution is the record-level one.
        flu = tmp_path / "flu.csv"
        assert main(["simulate", "flu", "--n", "300", "--seed", "4",
                     "--out", str(flu)]) == EXIT_OK
        ds = read_csv(str(flu))
        explanatory = [nm for nm in ds.names if nm != "Y"]
        sub = subset.split(",") if subset else explanatory
        alpha = make_weights(weights, p_y=y_marginal(ds, "Y"))
        if stat == "retention":
            full = explanatory

            def by_names(d):
                return retention_ratio(d, "Y", sub, explanatory, alpha=alpha)
        else:
            full, sub = sub, None

            def by_names(d):
                return tau_joint(d, "Y", full, alpha=alpha)

        def cli(B):
            assert main(["bootstrap", "-i", str(flu), "--stat", stat, "--response", "Y",
                         "--B", str(B), "--seed", "8", "--weights", weights,
                         "--format", "json"]
                        + (["--subset", subset] if subset else [])) == EXIT_OK
            return json.loads(capsys.readouterr().out)["result"]

        got = cli(120)
        lib = count_bootstrap(ds, "Y", full, sub, alpha=alpha, B=120, seed=8)
        assert got["point"] == by_names(ds) == lib.point
        assert (got["mean"], got["ci_low"], got["ci_high"]) == (lib.mean, lib.ci_low,
                                                                lib.ci_high)
        expected = [by_names(d) for d in count_replicates(ds, "Y", full, 120, 8)]
        assert lib.replicates.tolist() == expected

        got = cli(2000)
        ref = stratified_bootstrap(ds, "Y", by_names, B=2000, seed=8).replicates
        assert _within_six_standard_errors(got, ref, 2000)

    def test_same_seed_same_bytes(self, tmp_path):
        out, runs = tmp_path / "run.json", []
        for _ in range(2):
            assert main(["bootstrap", "-i", "loan", "--stat", "retention",
                         "--response", "Risk", "--subset", "Age", "--B", "3000",
                         "--seed", "5", "--format", "json", "--out", str(out)]) == EXIT_OK
            runs.append(out.read_bytes())
        assert runs[0] == runs[1]

    def test_replicate_without_association_exit_code(self, tmp_path, capsys):
        # A replicate that misses the one "d" record has a constant X.
        p = tmp_path / "rare.csv"
        p.write_text("X,Y\n" + "c,a\n" * 5 + "c,b\n" * 5 + "d,a\n", encoding="utf-8")
        assert main(["bootstrap", "-i", str(p), "--stat", "retention",
                     "--response", "Y", "--B", "20", "--seed", "1"]) == EXIT_DOMAIN
        assert capsys.readouterr().err == "error: full-set association degree is zero\n"


def _within_six_standard_errors(result, ref, B, level=0.95):
    """Whether a report's replicate mean and interval ends are those of the
    reference replicates ``ref`` within six standard errors of two
    independent samples, by the benchmark oracle's rule.  An end that ties
    reference replicates may sit anywhere in their quantile range."""
    inv_n = 1.0 / B + 1.0 / ref.size
    if abs(result["mean"] - ref.mean()) > 6 * ref.std() * np.sqrt(inv_n):
        return False
    tail = (1.0 - level) / 2.0
    for q, v in ((tail, result["ci_low"]), (1.0 - tail, result["ci_high"])):
        below, upto = np.mean(ref < v), np.mean(ref <= v)
        if not below - 6 * np.sqrt(q * (1.0 - q) * inv_n) <= q <= \
                upto + 6 * np.sqrt(q * (1.0 - q) * inv_n):
            return False
    return True


def _result(out):
    return json.loads(out)["result"]


class TestReportPaths:
    """One run of each report path the other command tests leave out."""

    @pytest.mark.parametrize("argv, env, code, check", [
        (["vector", "-i", "loan", "--x", "Age", "--y", "Risk"], {}, EXIT_OK,
         lambda out, err: out.splitlines()[0].split() == ["low", "med", "hi"]),
        (["vector", "-i", "loan", "--x", "Age", "--y", "Risk", "--format", "csv"], {},
         EXIT_OK, lambda out, err: out.splitlines()[0] == "low,med,hi"),
        (["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--format", "json"], {},
         EXIT_OK, lambda out, err: round(_result(out)["tau"], 4) == 0.5137),
        (["basis", "-i", "loan", "--format", "json"], {}, EXIT_OK,
         lambda out, err: _result(out)["verified"] is True),
        (["validate", "-i", "survey", "--x", "X", "--y", "Y", "--seed", "7"], {},
         EXIT_OK, lambda out, err: out.splitlines()[-1].startswith("max_abs_diff: ")),
        (["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
          "--subset", "Age", "--B", "20", "--n", "100", "--seed", "1"], {}, EXIT_OK,
         lambda out, err: out.startswith("stat: tau   point: ") and "   n: 100   " in out),
        (["tau", "-i", "loan", "--x", "Age", "--y", "Risk"], {"CATASSOC_TOL": "abc"},
         EXIT_USAGE, lambda out, err: out == "" and "CATASSOC_TOL is not a number" in err),
    ], ids=["vector-text", "vector-csv", "tau-json", "basis-json", "validate-text",
            "bootstrap-n-text", "env-not-a-number"])
    def test_exit_code_and_output(self, argv, env, code, check, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == code
        assert check(*capsys.readouterr())


class TestOneValuePerTable:
    """tau, vector and equiv score a table through one kernel and weight it
    from one marginal, so they print one value for it."""

    @pytest.mark.parametrize("x, x2", [("On-Time", "Age"), ("Age", "Income"),
                                       ("Income", "Credit"), ("Credit", "Age")])
    def test_loan_degrees_agree(self, x, x2, capsys):
        def run(*argv):
            assert main([*argv, "-i", "loan", "--y", "Risk", "--format", "json"]) == EXIT_OK
            return _result(capsys.readouterr().out)

        by_scheme = run("vector", "--x", x)["tau_by_scheme"]
        for scheme in ("gk", "ew", "ipw"):
            assert run("tau", "--x", x, "--weights", scheme)["tau"] == by_scheme[scheme]
        details = run("equiv", "--x1", x, "--x2", x2)["details"]
        assert details["tau_y_x1"] == details["tau_alpha_x1"] == by_scheme["gk"]

    def test_constant_x_scores_exactly_zero(self, tmp_path, capsys):
        p = tmp_path / "const_x.csv"
        p.write_text("X,Y\nk,a\nk,b\nk,c\nk,c\nk,c\n", encoding="utf-8")
        argv = ["vector", "-i", str(p), "--x", "X", "--y", "Y"]
        assert main(argv + ["--format", "csv"]) == EXIT_OK
        assert capsys.readouterr().out == "a,b,c\n0.0,0.0,0.0\n"
        assert main(argv + ["--format", "json"]) == EXIT_OK
        result = _result(capsys.readouterr().out)
        assert result["theta"] == [0.0] * 3
        assert result["tau_by_scheme"] == {"gk": 0.0, "ew": 0.0, "ipw": 0.0}


class TestSimulateAndFixtures:
    def test_simulate_csv_header(self, capsys):
        assert main(["simulate", "flu", "--n", "5", "--seed", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "Y,X1,X2,R3,R4,S5"
        assert len(out.strip().splitlines()) == 6

    def test_fixture_export_reingests(self, tmp_path):
        out = tmp_path / "sevenths.csv"
        assert main(["fixtures", "--name", "sevenths", "--out", str(out)]) == EXIT_OK
        from catassoc import read_csv
        ds = read_csv(str(out))
        assert ds.n_records == 7


class TestInputContract:
    @pytest.mark.parametrize("content, offset", [
        (b"A,Y\na,0\n\xff,1\n", 8),
        (b"A,\xffY\na,0\nb,1\n", 2),
        (b"A,Y\na,0\nabcdefghij\xffklm,1\nb,0\n", 18),
        (b"A,Y\na,0\nb,\xff", 10),
    ], ids=["line-start", "header", "mid-line-past-byte-8", "last-byte-no-newline"])
    def test_non_utf8_input_exit_code(self, tmp_path, capsys, content, offset):
        p = tmp_path / "latin1.csv"
        p.write_bytes(content)
        assert main(["tau", "-i", str(p), "--x", "A", "--y", "Y"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: input is not valid UTF-8: byte 0xff at offset {offset}\n"

    @pytest.mark.parametrize("content, code, named", [
        (b"1,x\n", EXIT_DATA, "weights file {}: could not convert string to float: 'x'"),
        (b"1,\xff\n", EXIT_DATA, "weights file {}: input is not valid UTF-8: byte 0xff"),
        (b"0.5,nan,0.5\n", EXIT_DOMAIN, "custom weights must be finite"),
    ])
    def test_bad_weights_file_exit_code(self, tmp_path, capsys, content, code, named):
        wf = tmp_path / "w.csv"
        wf.write_bytes(content)
        assert main(["tau", "-i", "loan", "--x", "Age", "--y", "Risk",
                     "--weights-file", str(wf)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: " + named.format(wf))

    def test_oversized_field_exit_code(self, tmp_path, capsys):
        p = tmp_path / "wide.csv"
        p.write_text("A,Y\n" + "a" * 200_000 + ",0\nb,1\n", encoding="utf-8")
        assert main(["tau", "-i", str(p), "--x", "A", "--y", "Y"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: malformed CSV")

    @pytest.mark.parametrize("argv", [
        ["validate", "-i", "survey", "--x", "X", "--y", "Y", "--seed", "-1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--seed", "-3"],
        ["simulate", "flu", "--n", "5", "--seed", "-1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--n", "-2", "--seed", "1"],
    ])
    def test_negative_seed_or_count_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tau", "-i", "loan", "--x", ",", "--y", "Risk"],
        ["tau", "-i", "loan", "--x", "", "--y", "Risk"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--subset", " , ", "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--subset", "", "--seed", "1"],
    ])
    def test_empty_variable_list_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "empty variable list" in capsys.readouterr().err

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.txt"
        assert main(["tau", "-i", "loan", "--x", "Age", "--y", "Risk",
                     "--out", str(out)]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize("argv", [
        ["select", "-i", "loan", "--response", "Risk", "--eps", "nan"],
        ["select", "-i", "loan", "--response", "Risk", "--eps", "inf"],
        ["basis", "-i", "loan", "--eps", "nan"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "Y", "--tol", "inf"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "Y", "--tol=-inf"],
    ])
    def test_non_finite_tolerance_exit_code(self, argv, capsys):
        assert main(argv + ["--format", "json"]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: tolerances must be finite and nonnegative\n"

    def test_non_finite_tolerance_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("CATASSOC_EPS", "nan")
        assert main(["select", "-i", "loan", "--response", "Risk"]) == EXIT_DATA
        assert "finite" in capsys.readouterr().err

    def test_out_of_memory_exit_code(self, monkeypatch, capsys):
        def verify_basis(*args, **kwargs):
            raise MemoryError
        monkeypatch.setattr("catassoc.cli.verify_basis", verify_basis)
        assert main(["basis", "-i", "loan"]) == EXIT_DATA
        assert capsys.readouterr().err.startswith("error: basis: not enough memory")


def _fuzz_files(root):
    """The inputs and output paths the fuzzed calls name, by placeholder."""
    def write(name, data):
        path = root / name
        path.write_bytes(data)
        return str(path)
    rows = "".join(f"{a},{b},{y},{r}\n" for a, b, y, r in
                   zip("abcabcabca" * 3, "xxyyxxyyzz" * 3, "0110" * 7 + "01", "lmh" * 10))
    return {
        "{valid}": write("valid.csv", ("X1,X2,Y,Risk\n" + rows + ",x,1,l\n").encode()),
        "{latin1}": write("latin1.csv", b"X1,Y\na,0\n\xff,1\n"),
        "{ragged}": write("ragged.csv", b"X1,X2,Y\na,b,0\nc,1\n"),
        "{quoted}": write("quoted.csv", b'X1,"X2",Y\n"a,b",x,0\nc,"y ""z""",1\nc,x,1\n'),
        "{missing}": str(root / "missing" / "out.txt"),
        "{out}": str(root / "out.txt"),
    }


#: Each input and the variables it holds (none for inputs that fail to load).
_INPUTS = {"loan": ["Age", "Risk", "Credit"], "tenths": ["X1", "X2", "Y"],
           "survey": ["X", "Y"], "{valid}": ["X1", "X2", "Y", "Risk"],
           "{quoted}": ["X1", "X2", "Y"], "{latin1}": [], "{ragged}": [], "nope": []}
_BAD = ["", ",", "-1", "nan", "inf", "x"]
#: Valid values of each flag that takes no variable names; --B, --n and
#: --seed stay small, so a call tests the contract and not the memory.
_VALUES = {"real": ["0", "1e-9", "0.01", "0.5"], "frac": ["0.5", "0.8", "0.95"],
           "int": ["0", "1", "7", "50"],
           "--weights": ["gk", "ew", "ipw"], "--stat": ["retention", "tau"],
           "--format": ["text", "json", "csv"], "--missing": ["drop_row", "as_category"],
           "--name": ["loan", "sevenths"]}
_KIND = {"--tol": "real", "--eps": "real", "--train": "frac", "--level": "frac",
         "--B": "int", "--n": "int", "--seed": "int"}
_FLAGS = {
    "matrix": ["--x", "--y"],
    "vector": ["--x", "--y"],
    "tau": ["--x", "--y", "--weights"],
    "equiv": ["--x1", "--x2", "--y", "--weights", "--tol"],
    "select": ["--response", "--weights", "--eps"],
    "basis": ["--eps", "--minimal"],
    "validate": ["--x", "--y", "--train", "--seed"],
    "bootstrap": ["--stat", "--response", "--subset", "--B", "--n", "--level",
                  "--weights", "--seed"],
    "simulate": ["--n", "--seed"],
    "fixtures": ["--name"],
}


@st.composite
def _cli_calls(draw):
    """An argv of one subcommand.  Each flag is present or not, and takes a
    value from a small pool of valid values or, one time in ten, from a
    pool of invalid ones: empty, a lone comma, negative, non-finite, not a
    number, and unknown or duplicate variables.  ``--out`` names a file in
    a temporary directory, or one in a directory that does not exist."""
    mostly = st.sampled_from([True] * 9 + [False])
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    flags = _FLAGS[command] + ["--format", "--out"]
    columns = []
    if command == "simulate":
        argv.append("flu" if draw(mostly) else "x")
    elif command != "fixtures":
        source = draw(st.sampled_from(sorted(_INPUTS)))
        columns = _INPUTS[source]
        argv += ["-i", source]
        flags.append("--missing")
    pairs = [f"{a},{b}" for a in columns for b in columns if a != b]
    for flag in flags:
        if not draw(st.booleans() if flag == "--out" else mostly):
            continue
        if flag == "--minimal":
            argv.append(flag)
            continue
        if flag == "--out":  # never a relative path: the run would write it
            argv += [flag, draw(st.sampled_from(["{out}", "{missing}"]))]
            continue
        if flag in ("--x", "--subset"):
            valid = columns + pairs
        else:
            valid = _VALUES.get(_KIND.get(flag, flag), columns)
        invalid = _BAD + ["Nope"] + [f"{c},{c}" for c in columns[:1]]
        pool = valid if valid and draw(mostly) else invalid
        argv += [flag, draw(st.sampled_from(pool))]
    return argv


def _no_constant(name):
    raise ValueError(f"JSON holds {name}")


class TestExitCodeFuzz:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        return _fuzz_files(tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_cli_calls())
    @example(argv=["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--out", "{missing}"])
    @example(argv=["select", "-i", "loan", "--response", "Risk", "--eps", "nan",
                   "--format", "json"])
    @example(argv=["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "Y",
                   "--tol", "inf", "--format", "json"])
    def test_every_call_ends_in_a_documented_exit_code(self, argv, files, capsys):
        argv = [files.get(a, a) for a in argv]
        capsys.readouterr()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, 2, EXIT_DATA, EXIT_DOMAIN), (argv, err)
        assert "Traceback" not in err, argv
        flags = dict(zip(argv, argv[1:]))
        if code == EXIT_OK and flags.get("--format") == "json" and "--out" not in flags:
            json.loads(out, parse_constant=_no_constant)


class TestReproducibility:
    def test_byte_identical_json_reruns(self, tmp_path):
        out = tmp_path / "run.json"
        args = ["bootstrap", "-i", "loan", "--stat", "tau", "--response",
                "Risk", "--subset", "Age", "--B", "25", "--seed", "11",
                "--format", "json", "--out", str(out)]
        assert main(args) == EXIT_OK
        first = out.read_bytes()
        assert main(args) == EXIT_OK
        assert out.read_bytes() == first

    def test_env_tolerance_override(self, capsys, monkeypatch):
        # at the default tight tolerance the matrices differ (level 3 no);
        # a huge override makes the small gap pass
        assert main(["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2",
                     "--y", "Y"]) == EXIT_OK
        assert "level 3: no" in capsys.readouterr().out
        monkeypatch.setenv("CATASSOC_TOL", "0.5")
        assert main(["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2",
                     "--y", "Y"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "tol: 0.5" in out and "level 3: yes" in out
