import json

import pytest

from tests.helpers_oracles import reference_csv, reference_json, reference_rows
from unilcalc import cli
from unilcalc.classify import (
    CHUNK_ROWS,
    MAX_TABLE_ROWS,
    bar_I,
    bar_J,
    coord_str,
    enumerate_J,
    relevant_unil,
    structure_set_P,
    structure_set_elements,
    table_row_count,
    table_to_csv,
    table_to_json,
)


def parse_coord(text):
    """A coordinate tuple from its coord_str text, e.g. "10:-2" -> (1, 0, -2)."""
    bits, _, z = text.partition(":")
    return tuple(int(c) for c in bits) + ((int(z),) if z else ())


def pair_of(row):
    return parse_coord(row.pair_coord_1), parse_coord(row.pair_coord_2)


class TestStructureSet:
    @pytest.mark.parametrize(
        "n,m,ell,z2,has_z",
        [
            (4, 0, 4, 1, False),
            (5, 1, 1, 2, False),
            (6, 1, 2, 2, False),
            (7, 1, 3, 2, True),
            (8, 1, 4, 3, False),
            (11, 2, 3, 4, True),
        ],
    )
    def test_decomposition(self, n, m, ell, z2, has_z):
        d = structure_set_P(n)
        assert (d.m, d.ell, d.z2_count, d.has_Z) == (m, ell, z2, has_z)
        assert n == 4 * d.m + d.ell and 0 < d.ell <= 4

    def test_counts(self):
        assert structure_set_P(4).count() == 2
        assert structure_set_P(5).count() == 4
        assert structure_set_P(6).count() == 4
        assert structure_set_P(8).count() == 8
        assert structure_set_P(7).count(z_bound=2) == 20

    def test_low_dimensions_rejected(self):
        for n in (0, 1, 2, 3):
            with pytest.raises(ValueError):
                structure_set_P(n)

    def test_negative_z_bound_rejected(self):
        for n in (7, 8):
            with pytest.raises(ValueError, match="z bound"):
                structure_set_elements(structure_set_P(n), z_bound=-1)
            with pytest.raises(ValueError, match="z bound"):
                structure_set_P(n).count(z_bound=-1)

    def test_elements_match_count(self):
        for n, zb in ((4, 0), (5, 0), (7, 2), (8, 1)):
            d = structure_set_P(n)
            els = structure_set_elements(d, zb)
            assert len(els) == d.count(zb)
            assert len(set(els)) == len(els)
            assert els == tuple(sorted(els))


class TestBarI:
    def test_no_z_factor_is_identity(self):
        for n in (4, 5, 6, 8):
            count, reps = bar_I(n, z_bound=3)
            assert count == structure_set_P(n).count()
            assert reps == structure_set_elements(structure_set_P(n))

    def test_z_factor_folds(self):
        count, reps = bar_I(7, z_bound=2)
        assert count == 4 * 3
        assert all(c[-1] >= 0 for c in reps)

    def test_zero_is_fixed(self):
        _, reps = bar_I(7, z_bound=1)
        zero = (0, 0, 0)
        assert zero in reps


class TestRelevantUnil:
    def test_examples(self):
        assert relevant_unil(4) == "UNil3"
        assert relevant_unil(5) == "UNil2"
        assert relevant_unil(6) == "Zero"
        assert relevant_unil(7) == "Zero"

    def test_periodicity(self):
        for n in range(4, 40):
            assert relevant_unil(n) == relevant_unil(n + 4)

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            relevant_unil(3)


class TestEnumerateJ:
    def test_n4_d1(self):
        t = enumerate_J(4, degree_cutoff=1)
        assert len(t.rows) == 18
        assert sum(r.not_connected_sum for r in t.rows) == 15

    def test_n6(self):
        for d in (0, 1, 2):
            t = enumerate_J(6, degree_cutoff=d)
            assert len(t.rows) == 10
            assert sum(r.not_connected_sum for r in t.rows) == 0

    def test_n4_d0(self):
        t = enumerate_J(4, degree_cutoff=0)
        assert len(t.rows) == 3
        assert not any(r.not_connected_sum for r in t.rows)

    def test_n5_product_formula(self):
        t = enumerate_J(5, degree_cutoff=1)
        # |I_5| = 4 so C(5,2) = 10 pairs; UNil_2 at degree 1 has 2 orbits
        assert len(t.rows) == 20
        assert sum(r.not_connected_sum for r in t.rows) == 10

    def test_epsilon(self):
        assert enumerate_J(4).epsilon == -1
        assert enumerate_J(5).epsilon == 1

    def test_product_invariant(self):
        from math import comb

        for n, d in ((4, 2), (5, 2), (8, 1)):
            t = enumerate_J(n, degree_cutoff=d)
            k = structure_set_P(n).count()
            pairs = comb(k + 1, 2)
            orbits = len(t.rows) // pairs
            assert len(t.rows) == pairs * orbits
            assert sum(r.not_connected_sum for r in t.rows) == pairs * (orbits - 1)

    def test_deterministic(self):
        t = enumerate_J(4, 1)
        assert t == enumerate_J(4, 1)
        assert list(t.rows) == list(t.rows) == list(enumerate_J(4, 1).rows)

    def test_negative_bounds_rejected(self):
        for n in (4, 6):
            with pytest.raises(ValueError, match="degree cutoff"):
                enumerate_J(n, degree_cutoff=-1)
        with pytest.raises(ValueError, match="z bound"):
            enumerate_J(7, z_bound=-1)

    def test_row_count_closed_form(self):
        for n in range(4, 12):
            for d in range(4):
                for z in range(3):
                    rows = enumerate_J(n, d, z).rows
                    assert table_row_count(n, d, z) == len(rows) == sum(1 for _ in rows)
        assert table_row_count(8, 5) == 152_064
        assert table_row_count(8, 6) < MAX_TABLE_ROWS < table_row_count(8, 7)

    @pytest.mark.parametrize("n", [7, 11])
    def test_folded_row_count_closed_form(self, n):
        for z in range(5):
            folded = bar_J(n, enumerate_J(n, 0, z))
            expect = len(reference_rows(n, 0, z, bar=True))
            assert table_row_count(n, 0, z, folded=True) == len(folded.rows) == expect
            assert sum(1 for _ in folded.rows) == expect

    def test_oversized_table_rejected_before_enumerating(self, monkeypatch):
        import unilcalc.classify

        def refuse(*_args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(unilcalc.classify, "orbit_reps", refuse)
        monkeypatch.setattr(unilcalc.classify, "structure_set_elements", refuse)
        for n, d, z in ((4, 12, 0), (7, 0, 10**9)):
            with pytest.raises(ValueError, match=f"above the limit {MAX_TABLE_ROWS}"):
                enumerate_J(n, d, z)


class TestBarJ:
    def test_identity_away_from_three_mod_four(self):
        t = enumerate_J(4, 1)
        assert bar_J(4, t) is t

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            bar_J(5, enumerate_J(4, 1))

    def test_fold_count_against_brute_force(self):
        t = enumerate_J(7, z_bound=1)
        folded = bar_J(7, t)
        assert folded.folded

        def negate(pair):
            return tuple(sorted(c[:-1] + (-c[-1],) for c in pair))

        orbits = {frozenset((pair_of(row), negate(pair_of(row)))) for row in t.rows}
        assert len(folded.rows) == len(orbits)

    def test_at_most_two_to_one(self):
        t = enumerate_J(7, z_bound=2)
        folded = bar_J(7, t)
        absorbed = sum(1 for r in folded.rows if r.identified_with)
        assert len(t.rows) == len(folded.rows) + absorbed

    def test_negation_fixed_rows_unmarked(self):
        folded = bar_J(7, enumerate_J(7, z_bound=1))
        for row in folded.rows:
            if all(c[-1] == 0 for c in pair_of(row)):
                assert row.identified_with == ""

    def test_survivor_is_lex_least(self):
        folded = bar_J(7, enumerate_J(7, z_bound=2))
        for row in folded.rows:
            if row.identified_with:
                neg = tuple(sorted(c[:-1] + (-c[-1],) for c in pair_of(row)))
                assert pair_of(row) <= neg


class TestEmission:
    def test_csv_shape(self):
        out = "".join(table_to_csv(enumerate_J(6)))
        lines = out.strip().split("\n")
        assert lines[0] == "n,pair_coord_1,pair_coord_2,theta,not_connected_sum,identified_with"
        assert len(lines) == 11
        assert all(line.startswith("6,") for line in lines[1:])

    def test_csv_deterministic(self):
        a = "".join(table_to_csv(enumerate_J(4, 1)))
        b = "".join(table_to_csv(enumerate_J(4, 1)))
        assert a == b

    def test_csv_flags_as_ints(self):
        out = "".join(table_to_csv(enumerate_J(4, 1)))
        assert ",1," in out and ",0," in out

    def test_theta_strings_round_trip(self):
        from unilcalc.unil import parse_unil3

        t = enumerate_J(4, 1)
        for d in json.loads("".join(table_to_json(t)))["rows"]:
            parse_unil3(d["theta"])

    def test_json_payload(self):
        t = enumerate_J(7, z_bound=1)
        payload = json.loads("".join(table_to_json(bar_J(7, t))))
        assert payload["folded"] is True
        assert payload["epsilon"] == 1
        assert len(payload["rows"]) < len(t.rows)

    def test_chunks_hold_at_most_chunk_rows(self):
        t = enumerate_J(8, 3)
        assert CHUNK_ROWS < len(t.rows) < 2 * CHUNK_ROWS
        chunks = list(table_to_csv(t))
        assert [c.count("\n") for c in chunks] == [CHUNK_ROWS + 1, len(t.rows) - CHUNK_ROWS]
        rows = [c.count('"pair_coord_1"') for c in table_to_json(t)]
        assert max(rows) == CHUNK_ROWS and sum(rows) == len(t.rows)

    def test_coord_strings(self):
        d7 = structure_set_P(7)
        assert coord_str(d7, (1, 0, -2)) == "10:-2"
        d4 = structure_set_P(4)
        assert coord_str(d4, (1,)) == "1"


def _table_cases():
    """n = 4..11 with cutoffs 0..3 and z-bounds 0..3, each only where it
    changes the table: the cutoff where the UNil group is nonzero, the
    z-bound where n = 3 mod 4."""
    for n in range(4, 12):
        cutoffs = range(4) if relevant_unil(n) != "Zero" else (0,)
        z_bounds = range(4) if n % 4 == 3 else (0,)
        for cutoff in cutoffs:
            for z_bound in z_bounds:
                yield n, cutoff, z_bound


class TestByteIdentity:
    """The streamed writers, and the CLI on a cache miss and on a hit,
    against the reference table in helpers_oracles: whole lists of row
    objects, the dict-and-set fold, csv.writer and json.dumps with
    indent=2."""

    @pytest.mark.parametrize("bar", [False, True])
    @pytest.mark.parametrize("n,cutoff,z_bound", list(_table_cases()))
    def test_csv_and_json(self, n, cutoff, z_bound, bar, tmp_path, monkeypatch, capsys):
        table = enumerate_J(n, cutoff, z_bound)
        if bar:
            table = bar_J(n, table)
        expect = {
            "csv": reference_csv(n, cutoff, z_bound, bar),
            "json": reference_json(n, cutoff, z_bound, bar),
        }
        assert "".join(table_to_csv(table)) == expect["csv"]
        assert "".join(table_to_json(table)) == expect["json"]
        monkeypatch.setenv("UNILCALC_CACHE_DIR", str(tmp_path))
        argv = ["classify", str(n), "--degree-cutoff", str(cutoff), "--z-bound", str(z_bound)]
        for fmt, text in expect.items():
            for state in ("miss", "hit"):
                assert cli.main(argv + ["--format", fmt] + ["--bar"] * bar) == 0
                out, err = capsys.readouterr()
                assert out == text
                assert f"classify: cache {state}," in err
