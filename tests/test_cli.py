import json
import subprocess
import sys

import pytest

from unilcalc import cli
from unilcalc.classify import MAX_TABLE_ROWS
from unilcalc.cli import main
from unilcalc.linking import (
    MAX_SEARCH_ROWS,
    LinkingForm,
    Submodule,
    witt_four_term_instance,
)
from unilcalc.polynomials import MAX_COEFFICIENT_DIGITS, MAX_EXPONENT, Polynomial


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def hyperbolic_json(q1=(0, 0), q2=(0, 0)):
    return LinkingForm(2, ((0, 1), (1, 0)), (q1, q2)).to_json_dict()


class TestReduce:
    def test_versch_example(self, capsys):
        code, out, _ = run(capsys, "reduce", "versch", "2*t^2")
        assert code == 0 and out == "2*t\n"

    def test_idem_examples(self, capsys):
        assert run(capsys, "reduce", "idem", "t^2")[1] == "t\n"
        assert run(capsys, "reduce", "idem", "t^4+t^1")[1] == "0\n"

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "reduce", "idem", "t^2", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {"status": "value", "kind": "idem", "input": "t^2", "canonical": "t"}

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "reduce", "idem", "t^^2")
        assert code == 1 and "position" in err

    def test_exponent_limit(self, capsys):
        code, out, _ = run(capsys, "reduce", "idem", f"t^{MAX_EXPONENT}")
        assert code == 0 and out == "t\n"
        for exponent in (MAX_EXPONENT + 1, "9" * 5000):
            code, out, err = run(capsys, "reduce", "idem", f"t+t^{exponent}")
            assert code == 1 and out == ""
            assert err.splitlines()[0] == (
                f"error: exponent above the limit {MAX_EXPONENT} at position 1"
            )

    def test_coefficient_limit(self, capsys):
        limit = MAX_COEFFICIENT_DIGITS
        for coeff in ("9" * (limit + 1), "1/" + "9" * 5000, "9" * 5000):
            code, out, err = run(capsys, "reduce", "versch", f"t+{coeff}*t^2")
            assert code == 1 and out == ""
            assert err.splitlines() == [
                f"error: coefficient above {limit} digits at position 1"
            ]
        code, out, _ = run(capsys, "reduce", "versch", f"t+{'0' * 5000}{'9' * limit}*t^3")
        assert code == 0 and out == "3*t^3+t\n"
        code, out, err = run(capsys, "reduce", "idem", "t+1/0")
        assert code == 1 and err.splitlines() == ["error: zero denominator at position 1"]

    def test_elapsed_on_stderr_only(self, capsys):
        _, out, err = run(capsys, "reduce", "idem", "t")
        assert "elapsed" not in out and "elapsed" in err


class TestSw:
    @pytest.mark.parametrize(
        "literal,expected",
        [
            ("j1[t]", "j1[t] + j2[t]"),
            ("j2[t]", "j2[t]"),
            ("j1[2*t]", "j1[2*t]"),
            ("0", "0"),
        ],
    )
    def test_examples(self, capsys, literal, expected):
        code, out, _ = run(capsys, "sw", literal)
        assert code == 0 and out == expected + "\n"

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "sw", "q9[t]")
        assert code == 1 and "position" in err


class TestArf:
    def test_nonzero_class(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json((0, 0b10), (0, 1))))
        code, out, _ = run(capsys, "arf", str(path))
        assert code == 0 and out == "1*t^1\n"

    def test_zero_class_json(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        code, out, _ = run(capsys, "arf", str(path), "--format", "json")
        doc = json.loads(out)
        assert doc["zero"] is True and doc["arf"] == "0"

    def test_odd_form_rejected(self, capsys, tmp_path):
        t, one = Polynomial.t("Z"), Polynomial.one("Z")
        from unilcalc.linking import make_N

        path = tmp_path / "f.json"
        path.write_text(json.dumps(make_N(t, one).to_json_dict()))
        code, _, err = run(capsys, "arf", str(path))
        assert code == 1 and "even" in err


class TestWittCheck:
    def test_hyperbolic_has_witness(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        code, out, _ = run(capsys, "witt-check", str(path), "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["witt_trivial_witness"] is True
        assert doc["lagrangian"] == [["1*t^0", "0"]]

    def test_nontrivial_class_has_none(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json((0, 0b10), (0, 1))))
        code, out, _ = run(capsys, "witt-check", str(path), "--bound", "3", "--format", "json")
        doc = json.loads(out)
        assert code == 0
        assert doc["witt_trivial_witness"] is False and doc["lagrangian"] is None

    def test_sublagrangian_pipeline(self, capsys, tmp_path):
        G, S = witt_four_term_instance(Polynomial.t("Z"))
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"form": G.to_json_dict(), "sublagrangian": S.to_json_dict()})
        )
        for jobs in ("1", "2"):
            code, out, _ = run(
                capsys, "witt-check", str(path), "--bound", "2", "--jobs", jobs, "--format", "json"
            )
            doc = json.loads(out)
            assert code == 0
            assert doc["rank"] == 8 and doc["reduced_rank"] == 4
            assert doc["even"] is True and doc["arf"] == "0"
            assert doc["witt_trivial_witness"] is True

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--bound", "-1"), "the degree bound must be non-negative"),
            (("--bound", "-3"), "the degree bound must be non-negative"),
            (
                ("--bound", "40"),
                "a lagrangian search of rank 2 at degree bound 40 tests more than "
                f"{MAX_SEARCH_ROWS} candidate rows",
            ),
            (("--jobs", "0"), "--jobs must be at least 1"),
            (("--jobs", "-2"), "--jobs must be at least 1"),
        ],
    )
    def test_bad_search_arguments_rejected(self, capsys, tmp_path, argv, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        code, out, err = run(capsys, "witt-check", str(path), *argv)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_bad_sublagrangian_fails(self, capsys, tmp_path):
        form = hyperbolic_json()
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"form": form, "sublagrangian": {"generators": [["1*t^0", "1*t^0"]]}})
        )
        code, out, _ = run(capsys, "witt-check", str(path))
        assert code == 1 and "failed" in out


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("arf", {"rank": 2}, "a form must be a JSON object with rank, b_num and q_num"),
        ("arf", [1, 2], "a form must be a JSON object with rank, b_num and q_num"),
        ("arf", {"rank": "2", "b_num": [], "q_num": []}, "rank must be a non-negative integer"),
        ("arf", {"rank": 1, "b_num": [], "q_num": ["0"]}, "b_num must be a list of 1 rows"),
        (
            "arf",
            {"rank": 1, "b_num": [[1]], "q_num": ["1"]},
            "b_num row must be a list of 1 polynomial strings",
        ),
        (
            "arf",
            {"rank": 1, "b_num": [["1"]], "q_num": "1"},
            "q_num must be a list of 1 polynomial strings",
        ),
        ("witt-check", [1, 2], "witt-check input must be a JSON object"),
        ("witt-check", "form", "witt-check input must be a JSON object"),
        ("witt-check", {"form": [1]}, "a form must be a JSON object with rank, b_num and q_num"),
        (
            "witt-check",
            {"form": hyperbolic_json(), "sublagrangian": [["1", "0"]]},
            "a submodule must be a JSON object with a generators list",
        ),
        (
            "witt-check",
            {"form": hyperbolic_json(), "sublagrangian": {"generators": [["1"]]}},
            "generator must be a list of 2 polynomial strings",
        ),
    ],
)
def test_malformed_json_rejected(capsys, tmp_path, command, doc, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.splitlines()[0] == f"error: {message}"
    assert "Traceback" not in err


class TestVerifyPaper:
    def test_quick_pass_with_report(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify-paper", "--degree", "1", "--report", str(report))
        assert code == 0
        assert "all fixtures passed" in out
        doc = json.loads(report.read_text())
        assert doc["status"] == "pass"
        assert len(doc["fixtures"]) == 7
        assert all(f["status"] == "pass" for f in doc["fixtures"])

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--degree", "1", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["status"] == "pass"
        assert doc["degree"] == 1 and doc["negative_control"] is False

    def test_negative_control_fails_with_location(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--degree", "1", "--negative-control")
        assert code == 1
        assert out.splitlines()[0] == (
            "generator_switch_chain: FAIL at p=0: step 2 assert_equal: "
            "lambda entry (0,1): -1*t^1*a vs 1*t^1*a"
        )
        assert out.splitlines()[-1] == "verification FAILED"

    @pytest.mark.parametrize("degree", [-1, cli.MAX_VERIFY_DEGREE + 1])
    def test_degree_out_of_range_rejected(self, capsys, degree):
        code, out, err = run(capsys, "verify-paper", "--degree", str(degree))
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: --degree must be between 0 and {cli.MAX_VERIFY_DEGREE}"
        ]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected(self, capsys, jobs):
        code, out, err = run(capsys, "verify-paper", "--degree", "0", "--jobs", jobs)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: --jobs must be at least 1"]

    def test_degree_zero_accepted(self, capsys):
        code, out, _ = run(capsys, "verify-paper", "--degree", "0")
        assert code == 0 and out.splitlines()[-1] == "all fixtures passed"

    def test_seed_changes_nothing(self, capsys):
        a = run(capsys, "verify-paper", "--degree", "1", "--seed", "0", "--format", "json")[1]
        b = run(capsys, "verify-paper", "--degree", "1", "--seed", "5", "--format", "json")[1]
        da, db = json.loads(a), json.loads(b)
        assert da["status"] == db["status"] == "pass"


class TestClassify:
    def test_n4_row_count(self, capsys):
        code, out, _ = run(capsys, "classify", "4", "--degree-cutoff", "1")
        assert code == 0
        assert len(out.strip().split("\n")) == 19

    def test_n6_row_count(self, capsys):
        code, out, _ = run(capsys, "classify", "6")
        assert code == 0
        assert len(out.strip().split("\n")) == 11

    def test_small_n_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "3")
        assert code == 1 and "n > 3 required" in err

    def test_byte_identical(self, capsys):
        a = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        b = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        assert a == b

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "classify", "4", "--degree-cutoff", "1", "--format", "json")
        doc = json.loads(out)
        assert len(doc["rows"]) == 18 and doc["epsilon"] == -1

    def test_bar_folds(self, capsys):
        plain = run(capsys, "classify", "7", "--z-bound", "1")[1]
        folded = run(capsys, "classify", "7", "--z-bound", "1", "--bar")[1]
        assert len(folded.split("\n")) < len(plain.split("\n"))

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, "classify", "6", "--output", str(target))
        assert code == 0 and out == ""
        assert len(target.read_text().strip().split("\n")) == 11

    def test_cache_round_trip(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))
        first = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        files = list(tmp_path.glob("classify-*.csv"))
        assert len(files) == 1
        assert files[0].read_text() == first
        # a valid hit must short-circuit recomputation
        enumerate_J = cli.enumerate_J

        def recomputed(*args):
            raise AssertionError("table recomputed on a cache hit")

        monkeypatch.setattr(cli, "enumerate_J", recomputed)
        second = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        assert second == first
        # an entry whose bytes do not match its hash is a miss and is replaced
        monkeypatch.setattr(cli, "enumerate_J", enumerate_J)
        files[0].write_text("sentinel\n")
        third = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        assert third == first
        assert list(tmp_path.glob("classify-*.csv")) == files
        assert files[0].read_text() == first

    def test_cache_key_varies_with_parameters(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))
        run(capsys, "classify", "4", "--degree-cutoff", "1")
        run(capsys, "classify", "4", "--degree-cutoff", "1", "--format", "json")
        run(capsys, "classify", "6")
        assert len(list(tmp_path.glob("classify-*"))) == 3

    def test_cache_key_varies_with_sources(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))
        first = run(capsys, "classify", "4", "--degree-cutoff", "1", "--format", "json")[1]
        [cached] = tmp_path.glob("classify-*.json")
        cached.write_text("stale\n")
        # the same parameters under changed sources must miss the stale entry
        monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        second = run(capsys, "classify", "4", "--degree-cutoff", "1", "--format", "json")[1]
        assert second == first
        assert json.loads(second)["rows"]
        assert len(list(tmp_path.glob("classify-*.json"))) == 2

    def test_cache_write_leaves_only_the_table(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path / "cache"))
        out = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        [entry] = (tmp_path / "cache").iterdir()
        assert entry.name.startswith("classify-") and entry.suffix == ".csv"
        assert entry.read_text() == out

    def test_failed_cache_write_leaves_no_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(cli.os, "replace", fail)
        code, out, err = run(capsys, "classify", "4", "--degree-cutoff", "1")
        assert code == 1 and out == ""
        assert "error: disk full" in err
        assert list(tmp_path.iterdir()) == []

    def test_stderr_names_cache_state_key_and_rows(self, capsys, tmp_path, monkeypatch):
        argv = ("classify", "7", "--z-bound", "1", "--bar")
        lines = [run(capsys, *argv)[2].splitlines()]
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))
        lines += [run(capsys, *argv)[2].splitlines() for _ in range(2)]
        [entry] = tmp_path.glob("classify-*.csv")
        key = entry.name.split("-")[1][:16]
        assert [line[0] for line in lines] == [
            f"classify: cache {state}, key {key}, 46 rows" for state in ("off", "miss", "hit")
        ]
        assert all(len(line) == 2 and line[1].startswith("elapsed: ") for line in lines)

    def test_output_with_cache_writes_the_entry(self, capsys, tmp_path, monkeypatch):
        import hashlib

        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path / "cache"))
        for i in range(2):  # a miss, then a hit
            target = tmp_path / f"table{i}.json"
            argv = ("classify", "5", "--degree-cutoff", "2", "--format", "json", "--output", str(target))
            code, out, _ = run(capsys, *argv)
            assert code == 0 and json.loads(out)["cache_hit"] == bool(i)
            [entry] = (tmp_path / "cache").iterdir()
            data = target.read_bytes()
            assert data == entry.read_bytes()
            assert entry.stem.rpartition("-")[2] == hashlib.sha256(data).hexdigest()

    def test_streamed_table_memory_is_flat(self, capsys, tmp_path):
        # the JSON text is 28 MB; a table held whole peaks far above the bound
        import tracemalloc

        target = tmp_path / "table.json"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "classify", "8", "--degree-cutoff", "5", "--format", "json",
                             "--output", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > 25_000_000
        assert peak < 8_000_000

    def test_negative_z_bound_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "7", "--z-bound", "-1")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: z bound must be >= 0"]


    def test_oversized_table_rejected(self, capsys, monkeypatch):
        import unilcalc.classify

        def refuse(*_args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(unilcalc.classify, "orbit_reps", refuse)
        code, out, err = run(capsys, "classify", "4", "--degree-cutoff", "12")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: the table would have 1611005952 rows, above the limit {MAX_TABLE_ROWS}"
        ]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unilcalc", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "unilcalc 0.1.0"

    def test_missing_subcommand_exits_nonzero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "unilcalc"], capture_output=True, text=True
        )
        assert proc.returncode == 2
