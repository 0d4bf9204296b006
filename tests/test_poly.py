import json
import pickle
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from sectorpack import (LinearMap2, PolySyntaxError, QuadPoly, QuasiPoly,
                        SectorPackError, cantor, deserialize, divides,
                        format_rational, lambda_map, m_map, parse_rational,
                        phi_map, psi_map, quasi_h, serialize, steep)

from family_zoo import all_families, divides_pairs

GOLDEN = Path(__file__).parent / "golden"

F_INF = cantor("F").form
G_INF = cantor("G").form
F_1 = steep("F", 1).form
H_32 = quasi_h(3, 2).form


class TestEvaluate:
    def test_cantor_values(self):
        assert F_INF.evaluate((0, 0)) == 0
        assert F_INF.evaluate((2, 1)) == 7
        assert G_INF.evaluate((0, 1)) == 1

    def test_fractional_values_are_exact(self):
        f = QuadPoly(c20=Fraction(1, 3))
        assert f.evaluate((2, 0)) == Fraction(4, 3)

    def test_quasi_dispatches_on_x_parity(self):
        assert H_32.evaluate((0, 0)) == 0
        assert H_32.evaluate((1, 0)) == 1
        assert H_32.evaluate((2, 1)) == 4

    def test_quasi_branch_ignores_y(self):
        # same branch for every y in a fixed column
        for y in range(5):
            assert H_32.evaluate((3, y)) == H_32.branches[1].evaluate((3, y))


class TestAlgebra:
    def test_ring_identities(self):
        x, y = QuadPoly.x(), QuadPoly.y()
        assert (x + y) - y == x
        assert 2 * x == x + x
        assert (x * y).degree == 2
        assert (x - x).degree == 0
        assert -(x - 2 * y / 3) == QuadPoly(c10=-1, c01=Fraction(2, 3))

    def test_degree_cap(self):
        x = QuadPoly.x()
        with pytest.raises(SectorPackError):
            (x * x) * x

    def test_scale_and_divide(self):
        x = QuadPoly.x()
        assert x / 2 == QuadPoly(c10=Fraction(1, 2))
        assert Fraction(3, 2) * x == QuadPoly(c10=Fraction(3, 2))


class TestCompose:
    def test_shear_pullback_of_cantor_f(self):
        assert F_INF.compose(lambda_map(1).inverse()) == F_1

    def test_shear_pullback_gives_reciprocal_family(self):
        for s in range(2, 11):
            assert F_INF.compose(lambda_map(s).inverse()) == divides("F", 1, s).form
            assert G_INF.compose(lambda_map(s).inverse()) == divides("G", 1, s).form

    def test_identity_is_neutral(self):
        for family in all_families(4):
            forms = family.form.branches if isinstance(family.form, QuasiPoly) else [family.form]
            for f in forms:
                assert f.compose(LinearMap2.identity()) == f

    def test_round_trip_through_inverse(self):
        maps = [lambda_map(3), m_map(2), phi_map(4), psi_map(5)]
        for family in all_families(6):
            forms = family.form.branches if isinstance(family.form, QuasiPoly) else [family.form]
            for f in forms:
                for m in maps:
                    assert f.compose(m).compose(m.inverse()) == f

    def test_involution_action(self):
        for s in range(11):
            m = phi_map(s)
            for f in (F_INF, G_INF, F_1, steep("G", 3).form):
                assert f.compose(m).compose(m) == f

    def test_steep_reflection_swaps_variants(self):
        for r in range(1, 11):
            assert steep("F", r).form.compose(psi_map(r)) == steep("G", r).form

    def test_composition_agrees_pointwise(self):
        m = LinearMap2(2, -3, 1, -2)
        f = QuadPoly(Fraction(1, 2), 1, Fraction(-3, 2), 0, 2, Fraction(5, 4))
        g = f.compose(m)
        for p in [(0, 0), (3, 1), (7, 5), (-2, 4)]:
            assert g.evaluate(p) == f.evaluate(m.apply(p))


class TestEquality:
    def test_printed_cantor_forms_differ(self):
        assert F_INF != G_INF

    def test_equality_is_coefficientwise(self):
        assert QuadPoly(c10=1) == QuadPoly(c10=Fraction(2, 2))


class TestIntegrality:
    def test_packing_quadratics_are_integer_valued_on_sector(self):
        # Polya: f = A*C(x,2) + B*xy + C*C(y,2) + D*x + E*y + G, whose six
        # coefficients are the second and first differences and f(0,0) on the
        # triangle at the origin; when they are integers, f is integer-valued
        # on all of Z^2.  f >= 0 on every sector point follows from
        # TestBlockModel: there f(p) is _block_rank(...), a sum of
        # nonnegative terms.
        for family in all_families(10):
            if isinstance(family.form, QuasiPoly):
                continue
            f = family.form.evaluate
            f00, f10, f01 = f((0, 0)), f((1, 0)), f((0, 1))
            binomial = [f((2, 0)) - 2 * f10 + f00, f((1, 1)) - f10 - f01 + f00,
                        f((0, 2)) - 2 * f01 + f00, f10 - f00, f01 - f00, f00]
            assert all(k.denominator == 1 for k in binomial), family.name

    def test_packing_quadratic_denominators_divide_two(self):
        for family in all_families(10):
            if isinstance(family.form, QuasiPoly):
                continue
            assert all(c.denominator in (1, 2) for c in family.form.coefficients()), family.name

    def test_quasi_branch_denominators_divide_two_s(self):
        for r, s in [(3, 2), (2, 3), (5, 7), (7, 10), (1, 9)]:
            for branch in quasi_h(r, s).form.branches:
                assert all((2 * s) % c.denominator == 0 for c in branch.coefficients())

    @given(st.lists(st.fractions(max_denominator=1000), min_size=6, max_size=6))
    @example(list(F_INF.coefficients()))
    @example(list(F_1.coefficients()))
    @example(list(H_32.branches[1].coefficients()))
    def test_scaled_integer_form(self, coeffs):
        f = QuadPoly(*coeffs)
        den, ints = f.scaled_integer_form()
        assert den >= 1 and gcd(den, *ints) == 1
        assert [Fraction(k, den) for k in ints] == coeffs == list(f.coefficients())
        for x, y in [(0, 0), (4, 1), (9, 3), (-7, 5)]:
            monomials = (x * x, x * y, y * y, x, y, 1)
            combo = sum(k * m for k, m in zip(ints, monomials))
            assert Fraction(combo, den) == sum(c * m for c, m in zip(coeffs, monomials)) \
                == f.evaluate((x, y))

    def test_scaled_integer_form_is_made_once_and_stays_out_of_sight(self):
        # the integer form is the whole state, made at construction: there is
        # no instance dict to keep a copy in, and the record compares, hashes,
        # pickles and prints the same however it was made
        f = H_32.branches[1]
        fresh = QuadPoly(*f.coefficients())
        before = (repr(fresh), hash(fresh), pickle.dumps(fresh))
        assert fresh.scaled_integer_form() == (fresh.den, fresh.nums)
        assert not hasattr(fresh, "__dict__")
        assert (repr(fresh), hash(fresh), pickle.dumps(fresh)) == before
        assert before[0] == f"QuadPoly(den={fresh.den}, nums={fresh.nums})"
        assert fresh == f and f == fresh and hash(fresh) == hash(f)
        for copy in (pickle.loads(before[2]), pickle.loads(pickle.dumps(f))):
            assert copy == fresh and hash(copy) == hash(fresh) and repr(copy) == repr(fresh)
            assert copy.scaled_integer_form() == fresh.scaled_integer_form()

    @given(st.integers(1, 60), st.lists(st.integers(-50, 50), min_size=6, max_size=6),
           st.integers(1, 12))
    @example(1, [0] * 6, 1)
    @example(60, [0] * 6, 1)
    @example(60, [30, -12, 0, 6, 42, 18], 1)
    @example(7, [10 ** 399 + 3, 0, -1, 0, 2, 5], 1)
    def test_from_form_is_the_constructor_on_its_fractions(self, den, nums, common):
        # a common factor of den and all six numerators is divided out with no
        # Fraction, to the record that the six Fractions make
        den, nums = den * common, tuple(n * common for n in nums)
        f = QuadPoly._from_form(den, nums)
        g = QuadPoly(*(Fraction(n, den) for n in nums))
        assert (f.den, f.nums, repr(f), hash(f)) == (g.den, g.nums, repr(g), hash(g))
        copy = pickle.loads(pickle.dumps(f))
        assert (copy.den, copy.nums, repr(copy), hash(copy)) == (g.den, g.nums, repr(g), hash(g))


class TestSerialization:
    def test_f1_printed_form(self):
        assert serialize(F_1) == '{"x2":"1/2","x":"1/2","y":"1"}'

    def test_zero_poly(self):
        assert serialize(QuadPoly()) == "{}"
        assert deserialize("{}") == QuadPoly()

    @pytest.mark.parametrize("name,form", [
        ("f_inf.json", F_INF),
        ("g_inf.json", G_INF),
        ("f_1.json", F_1),
        ("g_1.json", steep("G", 1).form),
        ("h_3_2.json", H_32),
    ])
    def test_golden_files(self, name, form):
        assert (GOLDEN / name).read_text() == serialize(form) + "\n"

    def test_round_trip_all_families(self):
        for family in all_families(8):
            assert deserialize(serialize(family.form)) == family.form

    def test_single_line_json(self):
        text = serialize(H_32)
        assert "\n" not in text
        json.loads(text)

    @pytest.mark.parametrize("text", [
        '{"x2":"1/0"}',
        '{"x2":"0.5"}',
        '{"x2":0.5}',
        '{"x2":"1/2","bogus":"1"}',
        '{"period":2,"branches":[{}]}',
        '{"period":0,"branches":[]}',
        '{"period":2,"branches":[{}, {}],"extra":1}',
        '[1,2]',
        'not json',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(PolySyntaxError):
            deserialize(text)

    def test_serialize_refuses_a_non_polynomial(self):
        with pytest.raises(TypeError, match=r"\Acannot serialize Fraction\Z"):
            serialize(Fraction(1, 2))

    def test_rational_formatting(self):
        assert format_rational(Fraction(3, 1)) == "3"
        assert format_rational(Fraction(-5, 4)) == "-5/4"
        assert parse_rational("-5/4") == Fraction(-5, 4)
        assert parse_rational("7") == 7
        with pytest.raises(PolySyntaxError):
            parse_rational("7/0")

    @given(st.fractions(max_denominator=10**6))
    def test_rational_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    @given(st.lists(st.fractions(max_denominator=1000), min_size=6, max_size=6))
    def test_quad_round_trip(self, coeffs):
        f = QuadPoly(*coeffs)
        assert deserialize(serialize(f)) == f


class TestQuasiConstruction:
    def test_branch_count_must_match_period(self):
        with pytest.raises(SectorPackError):
            QuasiPoly(3, (QuadPoly(),))

    def test_expansion_matches_divides_pairs(self):
        # spot-check: evaluating any branch is an ordinary polynomial evaluation
        h = quasi_h(2, 5).form
        assert h.period == 5
        for p in [(0, 0), (5, 2), (7, 1), (13, 5)]:
            assert h.evaluate(p) == h.branches[p[0] % 5].evaluate(p)
