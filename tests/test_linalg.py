"""Exact linear algebra: frozen examples plus structural properties."""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from lienil import linalg
from lienil.catalog import builtin
from lienil.linalg import (
    Matrix,
    Subspace,
    char_poly,
    generalized_eigenspace,
    invert,
    is_nilpotent,
    kernel_image,
    nilpotency_exponent,
    rational_eigenvalues,
    rational_roots,
    trace_product,
)

from support import (
    FractionMatrix,
    fraction_invert,
    fraction_rref,
    fraction_trace_product,
    matrix_power,
)

F = Fraction


def _sl2():
    return builtin("sl2").algebra


# --- reduced row-echelon form, and systems solved on it ---------------------------

def _reduced(rows, cols):
    """``linalg._rref_rows`` in ``fraction_rref``'s shape: each row over its pivot entry."""
    reduced, pivots = linalg._rref_rows(rows, cols)
    return tuple(tuple(F(x, row[p]) for x in row) for row, p in zip(reduced, pivots)), pivots


def _augmented(m, b):
    """The integer rows of the system m x = b: [m | b], each row times a positive scale."""
    rhs, scale = linalg._cleared([F(x) for x in b])
    return [[*(scale * x for x in row), m.scale * y] for row, y in zip(m.ints, rhs)]


def test_rref_identity_is_fixed():
    assert _reduced(Matrix.identity(2).ints, 2) == (((1, 0), (0, 1)), [0, 1])


def test_rref_zero():
    assert _reduced(Matrix.zero(3, 3).ints, 3) == ((), [])


def test_rref_dependent_rows():
    assert _reduced([[2, 4], [1, 2]], 2) == (((1, 2),), [0])


def test_solve_identity():
    assert _reduced(_augmented(Matrix.identity(2), (1, 2)), 3) == (((1, 0, 1), (0, 1, 2)), [0, 1])


def test_solve_inconsistent_is_none():
    assert _reduced(_augmented(Matrix.zero(1, 1), (1,)), 2)[1] == [1]  # 0 = 1: b is a pivot


def test_solve_free_variables_zeroed():
    # x0 + x1 = 3: x0 is the pivot, and the free x1 = 0 leaves x0 = 3 in b's column.
    assert _reduced(_augmented(Matrix.from_rows([[1, 1], [0, 0]]), (3, 0)), 3) == (
        ((1, 1, 3),), [0])


def test_solve_empty_system():
    assert _reduced(_augmented(Matrix.zero(0, 0), ()), 1) == ((), [])


# --- kernel / image ----------------------------------------------------------

def test_kernel_image_identity():
    kernel, image = kernel_image(Matrix.identity(3))
    assert kernel.is_zero()
    assert image.is_full()


def test_kernel_image_zero_map():
    kernel, image = kernel_image(Matrix.zero(2, 2))
    assert kernel.is_full()
    assert image.is_zero()


def test_kernel_image_of_raising_adjoint():
    # ad of the raising element on sl2 in basis (e, h, f).
    sl2 = _sl2()
    ad_e = sl2.ad((1, 0, 0))
    assert ad_e == Matrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]])
    kernel, image = kernel_image(ad_e)
    assert kernel == Subspace.from_vectors(3, [[1, 0, 0]])
    assert image == Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])


# --- subspace lattice --------------------------------------------------------

def test_contains_zero_vector():
    assert Subspace.zero(2).contains((0, 0))


def test_contains_rejects_off_line():
    line = Subspace.from_vectors(2, [[1, 0]])
    assert not line.contains((0, 1))


def test_contains_scalar_multiple():
    assert Subspace.from_vectors(2, [[1, 2]]).contains((2, 4))


def test_intersect_with_full():
    s = Subspace.from_vectors(2, [[1, 0]])
    assert s.intersect(Subspace.full(2)) == s


def test_intersect_transverse_lines_is_zero():
    s = Subspace.from_vectors(2, [[1, 0]])
    t = Subspace.from_vectors(2, [[0, 1]])
    assert s.intersect(t).is_zero()


def test_intersect_planes():
    xy = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    xz = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])
    assert xy.intersect(xz) == Subspace.from_vectors(3, [[1, 0, 0]])


def test_coordinates_roundtrip():
    s = Subspace.from_vectors(3, [[1, 0, 2], [0, 1, -1]])
    v = (F(3), F(-2), F(8))
    coords = s.coordinates(v)
    assert coords is not None
    rebuilt = [F(0)] * 3
    for c, b in zip(coords, s.basis):
        rebuilt = [r + c * x for r, x in zip(rebuilt, b)]
    assert tuple(rebuilt) == v


# --- generalized eigenspaces -------------------------------------------------

def test_generalized_eigenspace_identity():
    assert generalized_eigenspace(Matrix.identity(2), 1).is_full()
    assert generalized_eigenspace(Matrix.identity(2), 0).is_zero()


def test_generalized_eigenspace_of_diagonal_adjoint():
    sl2 = _sl2()
    ad_h = sl2.ad((0, 1, 0))
    assert ad_h == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert generalized_eigenspace(ad_h, 2) == Subspace.from_vectors(3, [[1, 0, 0]])


def test_generalized_eigenspace_catches_jordan_block():
    jordan = Matrix.from_rows([[1, 1], [0, 1]])
    assert generalized_eigenspace(jordan, 1).is_full()
    kernel, _ = kernel_image(jordan - Matrix.identity(2))
    assert kernel.dim == 1


# --- nilpotency --------------------------------------------------------------

def test_nilpotency_of_strictly_triangular():
    m = Matrix.from_rows([[0, 1, 5], [0, 0, F(1, 2)], [0, 0, 0]])
    nilpotent, exponent = nilpotency_exponent(m)
    assert nilpotent
    assert matrix_power(m, 3).is_zero()
    assert exponent <= 4


def test_nonnilpotent_detected_by_trace():
    m = Matrix.from_rows([[0, 1], [1, 0]])  # trace 0 but trace of square is 2
    assert not is_nilpotent(m)


def test_zero_by_zero_matrix_is_nilpotent():
    assert is_nilpotent(Matrix.zero(0, 0))


def test_scaling_does_not_change_nilpotency():
    m = Matrix.from_rows([[0, F(1, 7)], [0, 0]])
    assert is_nilpotent(m)
    assert is_nilpotent(m.scaled(F(3, 5)))


# --- characteristic polynomial -----------------------------------------------

def test_char_poly_of_companion_like():
    m = Matrix.from_rows([[2, 0], [0, 3]])
    assert char_poly(m) == (F(1), F(-5), F(6))


def test_char_poly_of_zero():
    assert char_poly(Matrix.zero(3, 3)) == (F(1), F(0), F(0), F(0))


def test_rational_roots_simple():
    # (t - 1)(t + 2)(2t - 1) = 2t^3 + t^2 - 5t + 2
    assert rational_roots([2, 1, -5, 2]) == [F(-2), F(1, 2), F(1)]


def test_rational_roots_with_zero_root():
    assert rational_roots([1, -1, 0]) == [F(0), F(1)]


def test_rational_roots_of_a_large_constant_term_return_quickly():
    start = time.perf_counter()
    assert rational_roots([1, 0, -(10**24 + 1)]) == []
    assert rational_roots([1, 0, -(10**24)]) == [F(-10**12), F(10**12)]
    assert time.perf_counter() - start < 1


def _polynomial_times(coeffs, factor):
    out = [0] * (len(coeffs) + len(factor) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


def test_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(59)
    for _ in range(40):
        coeffs = [rng.choice((1, -1, 2, 3))]
        for _ in range(rng.randint(0, 4)):  # known rational roots, some repeated
            p = rng.choice((rng.randint(-9, 9), rng.randint(-10**12, 10**12)))
            q = rng.choice((1, 1, 2, 7, rng.randint(1, 10**6)))
            for _ in range(rng.choice((1, 1, 2))):
                coeffs = _polynomial_times(coeffs, [q, -p])
        if rng.random() < 0.7:  # a factor that may have no rational root
            coeffs = _polynomial_times(coeffs, [rng.randint(1, 5), 0, rng.randint(-50, 50)])
        if len(coeffs) == 1:
            coeffs.append(rng.randint(1, 9))
        theirs = sympy.Poly(coeffs, sympy.Symbol("t")).ground_roots()
        assert rational_roots(coeffs) == sorted(F(int(r.p), int(r.q)) for r in theirs), coeffs


def test_rational_eigenvalues_of_diagonal():
    m = Matrix.from_rows([[F(1, 2), 0], [0, -3]])
    assert rational_eigenvalues(m) == [F(-3), F(1, 2)]


def test_trace_product_agrees_with_full_product():
    a = Matrix.from_rows([[1, 2], [0, F(1, 3)]])
    b = Matrix.from_rows([[-1, 4], [2, 2]])
    assert trace_product(a, b) == (a @ b).trace()


def test_invert_round_trip():
    m = Matrix.from_rows([[1, 2], [3, 5]])
    inv = invert(m)
    assert inv is not None
    assert m @ inv == Matrix.identity(2)
    assert invert(Matrix.from_rows([[1, 2], [2, 4]])) is None


# --- integer kernel against the Fraction Gauss-Jordan reference --------------

def _fraction_rref_rows(rows, cols):
    """The Fraction Gauss-Jordan the integer kernel replaced, kept as the reference."""
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _primitive_fraction_rref_rows(rows, cols):
    """The reference under the kernel's contract: zero rows dropped, each RREF row
    cleared to primitive integers (times its denominator lcm; the pivot stays positive)."""
    reduced, pivots = _fraction_rref_rows([[F(x) for x in row] for row in rows], cols)
    return [[int(x * scale) for x in row] for row in reduced[:len(pivots)]
            for scale in [math.lcm(*(y.denominator for y in row))]], pivots


def _big_rational(rng):
    if rng.random() < 0.3:
        return F(0)
    return F(rng.randint(-10**15, 10**15), rng.randint(1, 10**12))


def _kernel_inputs(seed=41):
    """Seeded matrices: dense with large entries, zero rows and columns,
    empty shapes, and rank-deficient products."""
    rng = random.Random(seed)
    out = [Matrix(0, 3, ()), Matrix(3, 0, ((),) * 3), Matrix(0, 0, ()), Matrix.zero(3, 4)]
    for _ in range(12):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[_big_rational(rng) for _ in range(cols)] for _ in range(rows)]
        zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
        if rng.random() < 0.5:
            entries[zero_row] = [F(0)] * cols
        if rng.random() < 0.5:
            for row in entries:
                row[zero_col] = F(0)
        out.append(Matrix.from_rows(entries))
    for _ in range(8):
        n, k = rng.randint(2, 6), rng.randint(1, 3)
        left = Matrix.from_rows([[_big_rational(rng) for _ in range(k)] for _ in range(n)])
        right = Matrix.from_rows([[_big_rational(rng) for _ in range(n)] for _ in range(k)])
        out.append(left @ right)  # n x n of rank at most k < n
    return out


def _kernel_results(m, rng):
    x = tuple(_big_rational(rng) for _ in range(m.cols))
    b = tuple(_big_rational(rng) for _ in range(m.rows))
    half = m.rows // 2
    results = [_reduced(m.ints, m.cols), _reduced(_augmented(m, m.apply(x)), m.cols + 1),
               _reduced(_augmented(m, b), m.cols + 1), kernel_image(m),
               Subspace.from_vectors(m.cols, m.entries),
               Subspace.from_vectors(m.cols, m.entries[:half]).intersect(
                   Subspace.from_vectors(m.cols, m.entries[half:]))]
    if m.is_square():
        results.append(invert(m))
    return results


def test_integer_kernel_matches_fraction_reference(monkeypatch):
    inputs = _kernel_inputs()
    integer = [_kernel_results(m, random.Random(i)) for i, m in enumerate(inputs)]
    monkeypatch.setattr(linalg, "_rref_rows", _primitive_fraction_rref_rows)
    reference = [_kernel_results(m, random.Random(i)) for i, m in enumerate(inputs)]
    assert integer == reference
    solved = [m.cols not in r[2][1] for m, r in zip(inputs, reference)]  # b not a pivot
    assert True in solved and False in solved  # both kinds seen
    assert any(r[-1] is None for r in reference if len(r) == 7)  # a singular one


def test_rank_and_nullspace_match_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _kernel_inputs(seed=43):
        if not m.rows or not m.cols:
            continue
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                               for row in m.entries])
        kernel, image = kernel_image(m)
        assert len(linalg._rref_rows(m.ints, m.cols)[1]) == image.dim == theirs.rank()
        assert kernel == Subspace.from_vectors(m.cols, [
            [F(int(x.p), int(x.q)) for x in v] for v in theirs.nullspace()])


# --- row-by-row elimination: forms of input, pivots, the full-rank stop --------

_ENTRY = 10**8


def _row(draw, cols: int, bound: int) -> list[int]:
    """Integers up to bound in absolute value; some rows share a factor, so their
    content is above 1."""
    factor = draw(st.sampled_from((1, 1, 6, 1000)))
    values = st.integers(-(bound // factor), bound // factor)
    return [factor * x for x in draw(st.lists(values, min_size=cols, max_size=cols))]


@st.composite
def _integer_rows(draw):
    """(rows, cols): a tall, wide, rank-deficient or zero-row integer matrix, entries up
    to 10**8 in absolute value."""
    cols = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(("tall", "wide", "deficient", "zero rows")))
    if kind == "deficient":  # integer combinations of fewer rows than columns
        rank = draw(st.integers(0, cols - 1))
        basis = [_row(draw, cols, _ENTRY // (2 * rank)) for _ in range(rank)]
        weights = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
        return [[sum(w * row[j] for w, row in zip(ws, basis)) for j in range(cols)]
                for ws in draw(st.lists(weights, min_size=rank + 1, max_size=rank + 4))], cols
    count = {"tall": st.integers(cols + 1, cols + 4), "wide": st.integers(0, cols - 1),
             "zero rows": st.integers(0, cols + 2)}[kind]
    rows = [_row(draw, cols, _ENTRY) for _ in range(draw(count))]
    if kind == "zero rows":
        for _ in range(draw(st.integers(1, 3))):
            rows.insert(draw(st.integers(0, len(rows))), [0] * cols)
    return rows, cols


def _as(form, rows):
    """The rows as a tuple of tuples, a list of lists or a one-shot generator."""
    return {"tuple": lambda: tuple(map(tuple, rows)), "list": lambda: [list(r) for r in rows],
            "generator": lambda: (tuple(r) for r in rows)}[form]()


_FORMS = st.sampled_from(("tuple", "list", "generator"))


@seed(19)
@settings(max_examples=150, deadline=None)
@given(_integer_rows(), _FORMS)
def test_elimination_matches_fraction_reference(matrix, form):
    rows, cols = matrix
    reduced, pivots = linalg._rref_rows(_as(form, rows), cols)
    assert ([list(row) for row in reduced], pivots) == _primitive_fraction_rref_rows(rows, cols)
    forward, found = linalg._echelon(_as(form, rows), cols)
    assert sorted(found) == pivots and len(forward) == len(found)
    assert all(math.gcd(*row) == 1 and row[c] and not any(row[:c])
               for row, c in zip(forward, found))


def _read_until_full_rank(rows, cols):
    """A one-shot generator of the rows that raises if it is read past the row that
    brings the rank to cols; the rank of each prefix comes from the reference."""
    ranks = [len(_primitive_fraction_rref_rows(rows[:i], cols)[1]) for i in range(len(rows) + 1)]
    stop = ranks.index(cols) if cols in ranks else len(rows)
    yield from map(tuple, rows[:stop])
    if stop < len(rows):
        raise AssertionError(f"row {stop} read after full rank")


@seed(19)
@settings(max_examples=150, deadline=None)
@given(_integer_rows())
@example(([[0, 5], [0, -10], [3, 0], [1, 1], [2, 2]], 2))
@example(([[1, 0, 0], [0, 1, 0], [0, 0, 7], [0, 0, 0]], 3))
def test_elimination_reads_no_row_after_full_rank(matrix):
    rows, cols = matrix
    expected = _primitive_fraction_rref_rows(rows, cols)
    forward, found = linalg._echelon(_read_until_full_rank(rows, cols), cols)
    assert sorted(found) == expected[1]
    reduced, pivots = linalg._rref_rows(_read_until_full_rank(rows, cols), cols)
    assert ([list(row) for row in reduced], pivots) == expected


# --- integer Matrix against the Fraction reference ---------------------------

def _huge(rng):
    """Zero, an integer or a fraction, with numerators up to 10**12."""
    roll = rng.random()
    if roll < 0.25:
        return 0
    if roll < 0.4:
        return rng.randint(-10**12, 10**12)
    return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))


def _twin(rng, rows, cols):
    """One seeded input as a Matrix and as the Fraction reference."""
    entries = [[_huge(rng) for _ in range(cols)] for _ in range(rows)]
    m = Matrix.from_rows(entries) if rows else Matrix.zero(0, cols)
    return m, FractionMatrix.from_rows(entries, cols)


def _special_twins():
    """Zero and identity matrices, and rows sharing a factor (they must be reduced)."""
    out = []
    for rows in ([[0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                 [[2, 4], [6, -8]], [[F(3, 10), F(6, 5)], [F(-9, 20), 0]], [[10**12]]):
        out.append((Matrix.from_rows(rows), FractionMatrix.from_rows(rows)))
    return out


def _assert_twin(m, ref):
    """m has ref's shape and entries, in lowest terms over a positive scale."""
    assert isinstance(m, Matrix)
    assert (m.rows, m.cols, m.entries) == (ref.rows, ref.cols, ref.entries)
    assert all(type(x) is int for row in m.ints for x in row)
    assert m.scale > 0 and math.gcd(m.scale, *(x for row in m.ints for x in row)) == 1


_SCALARS = (0, 1, -1, F(3, 7), 10**12, F(-10**12, 10**9), "2/6")


@pytest.mark.parametrize("seed", range(6))
def test_matrix_operations_match_fraction_reference(seed):
    rng = random.Random(1000 + seed)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5)]
    cases = [_twin(rng, r, c) for r, c in shapes] + _special_twins()
    for m, ref in cases:
        _assert_twin(-m, -ref)
        _assert_twin(m.transpose(), ref.transpose())
        for c in _SCALARS:
            _assert_twin(m.scaled(c), ref.scaled(c))
        x = [_huge(rng) for _ in range(m.cols)]
        assert m.apply(x) == ref.apply(x)
        columns = [ref.entries[i] for i in range(m.rows)]  # rows, read as columns
        _assert_twin(Matrix.from_columns(columns), FractionMatrix.from_columns(columns))
        other, other_ref = _twin(rng, m.rows, m.cols)
        _assert_twin(m + other, ref + other_ref)
        _assert_twin(m - other, ref - other_ref)
        _assert_twin(m - m, ref - ref)
        for k in (0, 2):
            right, right_ref = _twin(rng, m.cols, k)
            _assert_twin(m @ right, ref @ right_ref)
        across, across_ref = _twin(rng, m.cols, m.rows)
        assert trace_product(m, across) == fraction_trace_product(ref, across_ref)
        assert _reduced(m.ints, m.cols) == fraction_rref(ref.entries, ref.cols)
        b = [_huge(rng) for _ in range(m.rows)]
        for rhs in (b, ref.apply(x)):
            assert _reduced(_augmented(m, rhs), m.cols + 1) == fraction_rref(
                [(*row, y) for row, y in zip(ref.entries, rhs)], ref.cols + 1)
        if m.is_square():
            assert m.trace() == ref.trace()
            inverse, inverse_ref = invert(m), fraction_invert(ref)
            assert (inverse is None) == (inverse_ref is None)
            if inverse is not None:
                _assert_twin(inverse, inverse_ref)
                _assert_twin(m @ inverse, FractionMatrix.identity(m.rows))


def test_matrix_form_is_canonical():
    half = Matrix.from_rows([[F(1, 2)]])
    assert Matrix.from_rows([[F(2, 4)]]) == half
    assert (half.ints, half.scale) == (((1,),), 2)
    unreduced = Matrix(1, 1, ((2,),), 4)
    assert unreduced == half and hash(unreduced) == hash(half)
    assert Matrix(2, 2, ((0, 0), (0, 0)), 7) == Matrix.zero(2, 2)
    assert Matrix(2, 2, ((0, 0), (0, 0)), 7).scale == 1
    assert (half - half).scale == 1 and (half - half).ints == ((0,),)
    assert Matrix.from_rows([[2, 4]]).scaled(F(1, 2)) == Matrix.from_rows([[1, 2]])
    assert len({Matrix.from_rows([[F(1, 3), 1]]), Matrix(1, 2, ((2, 6),), 6)}) == 1
    for scale in (0, -2):
        with pytest.raises(ValueError):
            Matrix(1, 1, ((1,),), scale)


# --- differential check against sympy ----------------------------------------

def _differential_inputs(seed=59):
    """Seeded square matrices up to 6x6 (numerators to 10**12, denominators to 10**9),
    conjugates P T P**-1 of triangular T with repeated rational diagonals, and
    nilpotent conjugates P N P**-1."""
    rng = random.Random(seed)

    def big():
        return F(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)) if rng.random() < 0.8 else 0

    def conjugate(n, diagonal):
        while True:
            p = Matrix.from_rows([[big() for _ in range(n)] for _ in range(n)])
            p_inv = invert(p)
            if p_inv is not None:
                break
        t = Matrix.from_rows([[diagonal[i] if i == j else big() if j > i else 0
                               for j in range(n)] for i in range(n)])
        return p @ t @ p_inv

    dense, triangular, nilpotent = [], [], []
    for n in range(1, 7):
        dense.append(Matrix.from_rows([[big() for _ in range(n)] for _ in range(n)]))
        values = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]
        triangular.append(conjugate(n, [rng.choice(values) for _ in range(n)]))
        nilpotent.append(conjugate(n, [0] * n))
    return dense, triangular, nilpotent


def test_spectral_functions_match_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    dense, triangular, nilpotent = _differential_inputs()
    for m in dense + triangular + nilpotent:
        theirs = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                               for row in m.entries])
        poly = theirs.charpoly(t)
        assert char_poly(m) == tuple(F(int(c.p), int(c.q)) for c in poly.all_coeffs())
        assert is_nilpotent(m) == (theirs ** m.rows).is_zero_matrix
        roots = sorted(F(-int((c / a).p), int((c / a).q))
                       for factor, _ in sympy.factor_list(poly.as_expr(), t)[1]
                       if sympy.degree(factor, t) == 1
                       for a, c in [sympy.Poly(factor, t).all_coeffs()])
        assert rational_eigenvalues(m) == roots
    assert all(is_nilpotent(m) for m in nilpotent)
    assert all(len(rational_eigenvalues(m)) in (1, 2) for m in triangular)


# --- properties --------------------------------------------------------------

small_fractions = st.fractions(
    min_value=-5, max_value=5, max_denominator=4)


def matrices(rows, cols):
    return st.lists(
        st.lists(small_fractions, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(Matrix.from_rows)


@given(matrices(3, 4))
def test_rref_idempotent(m):
    reduced = linalg._rref_rows(m.ints, m.cols)[0]
    assert _reduced(reduced, m.cols) == _reduced(m.ints, m.cols)


@given(matrices(3, 5))
def test_rank_nullity(m):
    kernel, image = kernel_image(m)
    assert kernel.dim + image.dim == m.cols


@given(matrices(2, 4), matrices(3, 4))
def test_grassmann_identity(rows_s, rows_t):
    s = Subspace.from_vectors(4, rows_s.entries)
    t = Subspace.from_vectors(4, rows_t.entries)
    union = Subspace.from_vectors(4, rows_s.entries + rows_t.entries)
    meet = s.intersect(t)
    assert union.dim + meet.dim == s.dim + t.dim
    assert union.contains_subspace(s) and union.contains_subspace(t)
    assert s.contains_subspace(meet) and t.contains_subspace(meet)


@given(matrices(3, 3), st.lists(small_fractions, min_size=3, max_size=3))
def test_solve_soundness(m, b):
    reduced, pivots = _reduced(_augmented(m, b), m.cols + 1)
    if m.cols not in pivots:  # consistent: the solution with every free variable 0
        x = [F(0)] * m.cols
        for row, p in zip(reduced, pivots):
            x[p] = row[-1]
        assert m.apply(x) == tuple(F(v) for v in b)


@settings(max_examples=50)
@given(matrices(3, 3), st.sampled_from([F(0), F(1), F(-1), F(2), F(1, 2)]))
def test_generalized_eigenspace_is_invariant(m, lam):
    space = generalized_eigenspace(m, lam)
    for v in space.basis:
        assert space.contains(m.apply(v))


@given(matrices(3, 3))
def test_nilpotency_agrees_with_direct_power(m):
    assert is_nilpotent(m) == matrix_power(m, 3).is_zero()


@given(matrices(3, 3))
def test_char_poly_constant_term_vanishes_iff_singular(m):
    coeffs = char_poly(m)
    singular = kernel_image(m)[0].dim > 0
    assert (coeffs[-1] == 0) == singular
