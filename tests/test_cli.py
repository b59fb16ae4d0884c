import json
import os
import random
import subprocess
import sys
import time

import pytest

import unilcalc.classify
import unilcalc.lagrangian
from tests.helpers_oracles import direct_sum
from unilcalc import cli
from unilcalc.classify import MAX_TABLE_ROWS
from unilcalc.cli import main
from unilcalc.fixtures import witt_four_term_instance
from unilcalc.lagrangian import MAX_SEARCH_ROWS, Submodule, reduction_work
from unilcalc.linking import MAX_FORM_WORK, LinkingForm, form_work
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

    @pytest.mark.parametrize(
        "kind,text,message",
        [
            ("idem", "  t^99999999", f"exponent above the limit {MAX_EXPONENT} at position 2"),
            ("idem", "  t+x", "bad term '+x' at position 3"),
        ],
    )
    def test_position_counts_leading_blanks(self, capsys, kind, text, message):
        code, out, err = run(capsys, "reduce", kind, text)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_blanks_inside_a_number_are_refused(self, capsys):
        code, out, err = run(capsys, "reduce", "idem", "1 0*t")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: bad term '1 0*t' at position 0"]

    def test_short_bad_term_is_quoted_whole(self, capsys):
        term = "t" * 39 + "x"
        code, out, err = run(capsys, "reduce", "idem", term)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: bad term {term!r} at position 0"]

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

    @pytest.mark.parametrize("literal", ["", "   "])
    def test_empty_literal_rejected(self, capsys, literal):
        code, out, err = run(capsys, "sw", literal)
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: empty element at position 0"]

    @pytest.mark.parametrize(
        "literal,message",
        [
            ("j2[1]", "y-coordinate has nonzero constant term at position 3"),
            ("j1[1]", "nonzero constant term at position 3"),
            ("j1[t] + j2[t^99999999]", f"exponent above the limit {MAX_EXPONENT} at position 11"),
            ("j1[]", "empty polynomial at position 3"),
            ("j1[  ]", "empty polynomial at position 3"),
            ("j2[t] + j1[ t + q]", "bad term '+ q' at position 14"),
            ("j1[t^1 0]", "bad term 't^1 0' at position 3"),
        ],
    )
    def test_bad_coordinate_rejected(self, capsys, literal, message):
        code, out, err = run(capsys, "sw", literal)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]


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
        t, one = Polynomial.t(), Polynomial.one()
        from unilcalc.fixtures import make_N

        path = tmp_path / "f.json"
        path.write_text(json.dumps(make_N(t, one).to_json_dict()))
        code, _, err = run(capsys, "arf", str(path))
        assert code == 1 and "even" in err

    def test_long_bad_term_is_quoted_in_part(self, capsys, tmp_path):
        # a 100,000-character term is quoted by a bounded prefix; the
        # position locates it
        form = {"rank": 2, "b_num": [["0", "1"], ["1", "0"]], "q_num": ["+ " * 50_000, "0"]}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form))
        code, out, err = run(capsys, "arf", str(path))
        assert code == 1 and out == ""
        (line,) = err.splitlines()
        assert line == f"error: q_num[0]: bad term {'+ ' * 20!r}... at position 0"
        assert len(line.encode()) < 200


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

    def test_nonzero_arf_class_skips_the_search(self, capsys, tmp_path, monkeypatch):
        # three hyperbolic planes, the first with q = (2t, 2): its search at
        # bound 2 keeps 40.5M row combinations, but its Arf class is t, so it
        # has no lagrangian at any bound
        qs = (((0, 0b10), (0, 1)), ((0, 0), (0, 0)), ((0, 0), (0, 0)))
        form = direct_sum([LinkingForm(2, ((0, 1), (1, 0)), q) for q in qs])
        path = tmp_path / "f.json"
        path.write_text(json.dumps(form.to_json_dict()))

        def search(*_args, **_kwargs):
            raise AssertionError("searched a form with a nonzero Arf class")

        monkeypatch.setattr(unilcalc.lagrangian, "find_lagrangian", search)
        code, out, _ = run(capsys, "witt-check", str(path), "--bound", "2", "--format", "json")
        doc = json.loads(out)
        assert code == 0 and doc["rank"] == 6
        assert doc["arf"] == "1*t^1" and doc["arf_zero"] is False
        assert doc["lagrangian"] is None and doc["witt_trivial_witness"] is False

    def test_sublagrangian_pipeline(self, capsys, tmp_path):
        G, S = witt_four_term_instance(Polynomial.t())
        path = tmp_path / "f.json"
        path.write_text(
            json.dumps({"form": G.to_json_dict(), "sublagrangian": S.to_json_dict()})
        )
        code, out, _ = run(capsys, "witt-check", str(path), "--bound", "2", "--format", "json")
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
        ],
    )
    def test_bad_search_arguments_rejected(self, capsys, tmp_path, argv, message):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        code, out, err = run(capsys, "witt-check", str(path), *argv)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_combination_limit_is_an_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        monkeypatch.setattr(unilcalc.lagrangian, "MAX_SEARCH_COMBINATIONS", 0)
        code, out, err = run(capsys, "witt-check", str(path), "--bound", "2")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: a lagrangian search of rank 2 at degree bound 2 checks more than "
            "0 candidate combinations"
        ]

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


class TestFormWorkLimit:
    @staticmethod
    def form_with_degree(k, degree):
        # hyperbolic planes, with t^degree added to q of the first vector
        doc = direct_sum([LinkingForm(2, ((0, 1), (1, 0)), ((0, 0), (0, 0)))] * (k // 2)).to_json_dict()
        doc["q_num"][0] = f"2*t^{degree}"
        return doc

    def test_form_just_past_the_limit_is_refused_at_once(self, capsys, tmp_path):
        k = 8
        degree = next(d for d in range(MAX_EXPONENT) if form_work(k, d) > MAX_FORM_WORK)
        for command in ("arf", "witt-check"):
            path = tmp_path / "f.json"
            path.write_text(json.dumps(self.form_with_degree(k, degree)))
            start = time.perf_counter()
            code, out, err = run(capsys, command, str(path))
            assert time.perf_counter() - start < 1
            assert code == 1 and out == ""
            assert err.splitlines() == [
                f"error: a form of rank {k} with entries of degree up to {degree} is too large: "
                f"its work estimate {form_work(k, degree)} is above the limit {MAX_FORM_WORK}"
            ]

    def test_form_just_below_the_limit_is_read(self, tmp_path):
        k = 8
        degree = next(d for d in range(MAX_EXPONENT) if form_work(k, d) > MAX_FORM_WORK) - 1
        form = LinkingForm.from_json_dict(self.form_with_degree(k, degree))
        assert form.q_num[0] == (0, 1 << degree)

    def test_benchmark_forms_sit_far_below(self):
        # the algebra benchmark's largest forms: rank 20, entries of degree
        # below 64
        assert 100 * form_work(20, 64) < MAX_FORM_WORK


def short_sublagrangian(k, r, degree):
    """witt-check input: the hyperbolic form of rank k with q = 0, and r
    generators holding 0 in their odd slots and t^degree + t^x + t^y + t^z
    + 1 in their even ones, x, y and z drawn by random.Random(5) below
    degree in row order.  q vanishes on the span of the even slots, so the
    generators pass the isotropy checks and the reduction runs."""
    rng = random.Random(5)
    doc = direct_sum([LinkingForm(2, ((0, 1), (1, 0)), ((0, 0), (0, 0)))] * (k // 2)).to_json_dict()
    gens = [
        [
            "0" if c % 2 else f"t^{degree}+" + "+".join(f"t^{rng.randrange(degree)}" for _ in range(3)) + "+1"
            for c in range(k)
        ]
        for _ in range(r)
    ]
    return {"form": doc, "sublagrangian": {"generators": gens}}


class TestReductionWorkLimit:
    @pytest.mark.parametrize("k, r, degree", [(8, 3, 16000), (12, 4, 8000)])
    def test_short_sublagrangian_of_high_degree_is_refused_at_once(self, capsys, tmp_path, k, r, degree):
        # without the limit the first takes about 3 s and the second about
        # 5 s in sublagrangian_reduce
        path = tmp_path / "f.json"
        path.write_text(json.dumps(short_sublagrangian(k, r, degree)))
        assert path.stat().st_size < 2000
        start = time.perf_counter()
        code, out, err = run(capsys, "witt-check", str(path))
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: a submodule of a rank-{k} form with entries of degree up to {degree} is too "
            f"large to reduce: its work estimate {reduction_work(k, degree)} is above the limit "
            f"{MAX_FORM_WORK}"
        ]

    def test_submodule_just_below_the_limit_is_read(self):
        k = 8
        degree = next(d for d in range(MAX_EXPONENT) if reduction_work(k, d) > MAX_FORM_WORK) - 1
        form = LinkingForm.from_json_dict(short_sublagrangian(k, 1, 1)["form"])
        doc = {"generators": [[f"t^{degree}"] + ["0"] * (k - 1)]}
        assert Submodule.from_json_dict(doc, form).basis == ((1 << degree,) + (0,) * (k - 1),)

    def test_form_degree_counts(self):
        # the form's entries bound the reduction's degrees as the
        # generators' do
        k = 8
        degree = next(d for d in range(MAX_EXPONENT) if reduction_work(k, d) > MAX_FORM_WORK)
        doc = TestFormWorkLimit.form_with_degree(k, degree)
        form = LinkingForm.from_json_dict(doc)
        with pytest.raises(ValueError, match=f"entries of degree up to {degree} is too large to reduce"):
            Submodule.from_json_dict({"generators": [["1"] + ["0"] * (k - 1)]}, form)

    def test_benchmark_sublagrangians_sit_far_below(self):
        # the witt workload's rank-8 four-term instances have entries of
        # degree below 16, the algebra workload's rank-16 to 20 forms and
        # their generators below 64
        assert 100 * reduction_work(8, 16) < MAX_FORM_WORK
        assert 100 * reduction_work(20, 64) < MAX_FORM_WORK


def test_json_position_counts_leading_blanks(capsys, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"rank": 1, "b_num": [["  t^99999999"]], "q_num": ["0"]}))
    code, out, err = run(capsys, "arf", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: b_num[0][0]: exponent above the limit {MAX_EXPONENT} at position 2"
    ]


@pytest.mark.parametrize(
    "command,doc,message",
    [
        (
            "arf",
            {"rank": 2, "b_num": [["0", "1"], ["1", "0"]], "q_num": ["0", "2*t + x"]},
            "q_num[1]: bad term '+ x' at position 4",
        ),
        (
            "witt-check",
            {
                "form": hyperbolic_json(),
                "sublagrangian": {"generators": [["1", "0"], ["0", "t^"]]},
            },
            "generators[1][1]: bad term 't^' at position 0",
        ),
        (
            "arf",
            {"rank": 2, "b_num": [["0", "1 1"], ["1", "0"]], "q_num": ["0", "0"]},
            "b_num[0][1]: bad term '1 1' at position 0",
        ),
    ],
)
def test_json_polynomial_error_names_its_field(capsys, tmp_path, command, doc, message):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("command", ["arf", "witt-check"])
def test_deeply_nested_json_rejected(capsys, tmp_path, command):
    path = tmp_path / "f.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, command, str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: JSON input is nested too deeply"]


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

    def test_report_records_seconds_per_fixture(self, capsys, tmp_path):
        # the report alone carries the timings: without them it is the JSON
        # payload, and neither stdout nor the payload changes with --report
        report = tmp_path / "report.json"
        args = ("verify-paper", "--degree", "1", "--format", "json")
        _, plain, _ = run(capsys, *args)
        code, out, _ = run(capsys, *args, "--report", str(report))
        assert code == 0 and out == plain
        doc = json.loads(report.read_text())
        seconds = [f.pop("seconds") for f in doc["fixtures"]]
        assert len(seconds) == 7
        assert all(isinstance(s, float) and 0 <= s < 60 for s in seconds)
        assert doc == json.loads(plain)
        assert "seconds" not in plain
        _, text, _ = run(capsys, "verify-paper", "--degree", "1")
        _, text_with_report, _ = run(capsys, "verify-paper", "--degree", "1", "--report", str(report))
        assert text_with_report == text

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
        with pytest.raises(SystemExit) as exc:
            run(capsys, "verify-paper", "--degree", "0", "--jobs", jobs)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--jobs: invalid choice" in err

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
        enumerate_J = unilcalc.classify.enumerate_J

        def recomputed(*args):
            raise AssertionError("table recomputed on a cache hit")

        monkeypatch.setattr(unilcalc.classify, "enumerate_J", recomputed)
        second = run(capsys, "classify", "4", "--degree-cutoff", "1")[1]
        assert second == first
        # an entry whose bytes do not match its hash is a miss and is replaced
        monkeypatch.setattr(unilcalc.classify, "enumerate_J", enumerate_J)
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

    def test_payload_rows_on_miss_and_hit(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path / "cache"))
        argv = ("classify", "7", "--z-bound", "1", "--bar", "--format", "json",
                "--output", str(tmp_path / "table.json"))
        docs = [json.loads(run(capsys, *argv)[1]) for _ in range(2)]
        assert [(d["cache_hit"], d["rows"]) for d in docs] == [(False, 46), (True, 46)]

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

    def test_pair_block_larger_than_a_chunk_is_not_held(self, capsys, tmp_path, monkeypatch):
        # each pair has 4,224 theta orbits, about 850 kB of JSON; with 64-row
        # chunks a writer that joins a whole pair block peaks above the bound
        import tracemalloc

        monkeypatch.setattr(unilcalc.classify, "CHUNK_ROWS", 64)
        target = tmp_path / "table.json"
        tracemalloc.start()
        try:
            code, _, _ = run(capsys, "classify", "8", "--degree-cutoff", "5", "--format", "json",
                             "--output", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0 and target.stat().st_size > 25_000_000
        assert peak < 1_500_000

    def test_negative_z_bound_rejected(self, capsys):
        code, out, err = run(capsys, "classify", "7", "--z-bound", "-1")
        assert code == 1 and out == ""
        assert err.splitlines() == ["error: z bound must be >= 0"]


    def test_oversized_table_rejected(self, capsys, monkeypatch):
        def refuse(*_args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(unilcalc.classify, "orbit_reps", refuse)
        code, out, err = run(capsys, "classify", "4", "--degree-cutoff", "12")
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: the table would have 1611005952 rows, above the limit {MAX_TABLE_ROWS}"
        ]


    @pytest.mark.parametrize(
        "argv",
        [
            ("1000001", "--z-bound", "1"),
            ("8", "--degree-cutoff", "2000000"),
            (str(10**11),),
            ("8", "--degree-cutoff", str(10**11)),
            ("7", "--z-bound", str(10**11)),
        ],
    )
    def test_huge_exponent_rejected_before_counting(self, capsys, argv):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "classify", *argv)
        assert time.perf_counter() - t0 < 1.0
        assert code == 1 and out == ""
        assert err.splitlines() == [
            f"error: the table would have too many rows, above the limit {MAX_TABLE_ROWS}"
        ]


class TestJobsFlag:
    """--jobs takes the single value 1: the search runs in one process."""

    @pytest.fixture
    def argv(self, request, tmp_path):
        if request.param == "verify-paper":
            return ("verify-paper", "--degree", "1")
        G, S = witt_four_term_instance(Polynomial.t())
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"form": G.to_json_dict(), "sublagrangian": S.to_json_dict()}))
        return ("witt-check", str(path), "--bound", "2")

    @pytest.mark.parametrize("argv", ["witt-check", "verify-paper"], indirect=True)
    def test_jobs_one_changes_nothing(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert run(capsys, *argv, "--jobs", "1")[:2] == (0, out)

    @pytest.mark.parametrize("argv", ["witt-check", "verify-paper"], indirect=True)
    def test_jobs_two_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, *argv, "--jobs", "2")
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "--jobs: invalid choice: 2" in err


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


# runs cli.main on its arguments, then prints the package modules and hashlib
# found in sys.modules as a JSON list, as the last line of stderr
_LIST_MODULES = """
import json, sys
from unilcalc import cli
try:
    cli.main(sys.argv[1:])
except SystemExit:
    pass
loaded = sorted(m for m in sys.modules if m.startswith("unilcalc.")
                or m in ("hashlib", "fractions", "decimal", "dataclasses", "inspect"))
print(json.dumps(loaded), file=sys.stderr)
"""

LAYERS = {
    f"unilcalc.{name}"
    for name in ("polynomials", "funcfield", "f2linalg", "dihedral", "forms", "linking",
                 "lagrangian", "unil", "classify", "fixtures")
}


class TestImports:
    """Each command loads only the layers it runs."""

    @staticmethod
    def loaded(*argv):
        src = os.path.dirname(os.path.dirname(unilcalc.classify.__file__))
        env = {k: v for k, v in os.environ.items() if k != "UNILCALC_CACHE_DIR"}
        env["PYTHONPATH"] = src
        proc = subprocess.run(
            [sys.executable, "-c", _LIST_MODULES, *argv], capture_output=True, text=True, env=env
        )
        return set(json.loads(proc.stderr.splitlines()[-1]))

    def test_version_loads_no_layer(self):
        assert not self.loaded("--version") & LAYERS

    @pytest.mark.parametrize("command", ["arf", "witt-check"])
    def test_linking_commands(self, tmp_path, command):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        loaded = self.loaded(command, str(path))
        assert "unilcalc.linking" in loaded
        forbidden = {"unilcalc.forms", "unilcalc.dihedral", "unilcalc.unil", "unilcalc.classify",
                     "hashlib", "fractions", "decimal"}
        assert not loaded & forbidden

    def test_even_arf_loads_neither_f2linalg_nor_the_search(self, tmp_path):
        # the symplectic pass proves an even form unimodular and gives its
        # Arf class, so no determinant is taken
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        loaded = self.loaded("arf", str(path))
        assert {"unilcalc.linking", "unilcalc.funcfield"} <= loaded
        assert not loaded & {"unilcalc.f2linalg", "unilcalc.lagrangian"}

    def test_odd_arf_loads_f2linalg(self, tmp_path):
        # an odd form is checked by det, and then refused
        path = tmp_path / "f.json"
        path.write_text(json.dumps(LinkingForm(1, ((1,),), ((1, 0),)).to_json_dict()))
        loaded = self.loaded("arf", str(path))
        assert "unilcalc.f2linalg" in loaded and "unilcalc.lagrangian" not in loaded

    def test_witt_check_loads_the_search(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        assert {"unilcalc.f2linalg", "unilcalc.lagrangian"} <= self.loaded("witt-check", str(path))

    def test_parsing_loads_no_fractions(self):
        # a coefficient a/b is read with integer division
        loaded = self.loaded("reduce", "versch", "9/3*t^3+2*t")
        assert "unilcalc.polynomials" in loaded
        assert not loaded & {"fractions", "decimal"}

    def test_verify_paper(self):
        loaded = self.loaded("verify-paper", "--degree", "0")
        assert {"unilcalc.forms", "unilcalc.dihedral", "unilcalc.linking", "unilcalc.unil"} <= loaded
        assert not loaded & {"unilcalc.classify", "hashlib"}

    def test_classify(self):
        loaded = self.loaded("classify", "4", "--degree-cutoff", "1")
        assert "unilcalc.classify" in loaded
        forbidden = {"unilcalc.linking", "unilcalc.lagrangian", "unilcalc.forms",
                     "unilcalc.dihedral", "unilcalc.funcfield", "unilcalc.f2linalg"}
        assert not loaded & forbidden

    @pytest.mark.parametrize(
        "argv",
        [
            ("--version",),
            ("reduce", "idem", "t^4+t"),
            ("sw", "j1[t] + j2[t^2]"),
            ("arf", "FORM"),
            ("witt-check", "FORM"),
            ("verify-paper", "--degree", "0"),
            ("classify", "4", "--degree-cutoff", "1"),
        ],
    )
    def test_no_command_loads_dataclasses(self, tmp_path, argv):
        # dataclasses pulls in inspect, ast, dis and tokenize at start-up
        path = tmp_path / "f.json"
        path.write_text(json.dumps(hyperbolic_json()))
        loaded = self.loaded(*(str(path) if a == "FORM" else a for a in argv))
        assert not loaded & {"dataclasses", "inspect"}
