import csv
import io
import json

import pytest

from unilcalc.classify import (
    MAX_TABLE_ROWS,
    ClassificationTable,
    bar_I,
    bar_J,
    coord_str,
    enumerate_J,
    relevant_unil,
    structure_set_P,
    structure_set_elements,
    table_json_text,
    table_row_count,
    table_to_csv,
    table_to_json_dict,
)


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
        assert enumerate_J(4).rows[0].epsilon == -1
        assert enumerate_J(5).rows[0].epsilon == 1

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
        assert enumerate_J(4, 1) == enumerate_J(4, 1)

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
                    assert table_row_count(n, d, z) == len(enumerate_J(n, d, z).rows)
        assert table_row_count(8, 5) == 152_064
        assert table_row_count(8, 6) < MAX_TABLE_ROWS < table_row_count(8, 7)

    def test_oversized_table_rejected_before_enumerating(self, monkeypatch):
        import unilcalc.classify

        def refuse(*_args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(unilcalc.classify, "enumerate_truncated", refuse)
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

        orbits = {frozenset((row.pair, negate(row.pair))) for row in t.rows}
        assert len(folded.rows) == len(orbits)

    def test_at_most_two_to_one(self):
        t = enumerate_J(7, z_bound=2)
        folded = bar_J(7, t)
        absorbed = sum(1 for r in folded.rows if r.identified_with)
        assert len(t.rows) == len(folded.rows) + absorbed

    def test_negation_fixed_rows_unmarked(self):
        folded = bar_J(7, enumerate_J(7, z_bound=1))
        for row in folded.rows:
            if all(c[-1] == 0 for c in row.pair):
                assert row.identified_with == ""

    def test_survivor_is_lex_least(self):
        folded = bar_J(7, enumerate_J(7, z_bound=2))
        for row in folded.rows:
            if row.identified_with:
                neg = tuple(sorted(c[:-1] + (-c[-1],) for c in row.pair))
                assert row.pair <= neg


class TestEmission:
    def test_csv_shape(self):
        out = table_to_csv(enumerate_J(6))
        lines = out.strip().split("\n")
        assert lines[0] == "n,pair_coord_1,pair_coord_2,theta,not_connected_sum,identified_with"
        assert len(lines) == 11
        assert all(line.startswith("6,") for line in lines[1:])

    def test_csv_deterministic(self):
        a = table_to_csv(enumerate_J(4, 1))
        b = table_to_csv(enumerate_J(4, 1))
        assert a == b

    def test_csv_flags_as_ints(self):
        out = table_to_csv(enumerate_J(4, 1))
        assert ",1," in out and ",0," in out

    def test_theta_strings_round_trip(self):
        from unilcalc.unil import parse_unil3

        t = enumerate_J(4, 1)
        for d in table_to_json_dict(t)["rows"]:
            parse_unil3(d["theta"])

    def test_json_payload(self):
        t = enumerate_J(7, z_bound=1)
        payload = table_to_json_dict(bar_J(7, t))
        assert payload["folded"] is True
        assert payload["epsilon"] == 1
        assert len(payload["rows"]) < len(t.rows)
        json.dumps(payload)

    def test_coord_strings(self):
        d7 = structure_set_P(7)
        assert coord_str(d7, (1, 0, -2)) == "10:-2"
        d4 = structure_set_P(4)
        assert coord_str(d4, (1,)) == "1"


def _reference_rows(table):
    desc = structure_set_P(table.n)
    for row in table.rows:
        yield {
            "n": table.n,
            "pair_coord_1": coord_str(desc, row.pair[0]),
            "pair_coord_2": coord_str(desc, row.pair[1]),
            "theta": row.theta_str(),
            "not_connected_sum": row.not_connected_sum,
            "identified_with": row.identified_with,
        }


def _reference_csv(table):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    columns = ("n", "pair_coord_1", "pair_coord_2", "theta", "not_connected_sum", "identified_with")
    writer.writerow(columns)
    for d in _reference_rows(table):
        writer.writerow([int(d[c]) if c == "not_connected_sum" else d[c] for c in columns])
    return buf.getvalue()


def _reference_json(table):
    doc = {
        "n": table.n,
        "degree_cutoff": table.degree_cutoff,
        "z_bound": table.z_bound,
        "epsilon": (-1) ** (table.n + 1),
        "folded": table.folded,
        "rows": list(_reference_rows(table)),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


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
    """The table writers against a plain renderer: csv.writer over the
    ManifoldClass rows, and json.dumps with indent=2."""

    @pytest.mark.parametrize("bar", [False, True])
    @pytest.mark.parametrize("n,cutoff,z_bound", list(_table_cases()))
    def test_csv_and_json(self, n, cutoff, z_bound, bar):
        table = enumerate_J(n, cutoff, z_bound)
        if bar:
            table = bar_J(n, table)
        assert table_to_csv(table) == _reference_csv(table)
        assert table_json_text(table_to_json_dict(table)) == _reference_json(table)

    def test_empty_rows_json(self):
        table = ClassificationTable(4, 0, 0, ())
        assert table_json_text(table_to_json_dict(table)) == _reference_json(table)
