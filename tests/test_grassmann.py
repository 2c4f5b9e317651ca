"""Plucker minors, reconstruction, and the column actions.

The column actions are built here on a matrix's entries: column rescaling
acts on minors as the torus action, and column permutation relabels them
with the antisymmetric sign P_ji = -P_ij, so quadric membership is kept.
"""

import math
import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_config
from threeterm.errors import DomainError, OffQuadricError
from threeterm.grassmann import Matrix2x4, minors, reconstruct
from threeterm.measurements import measure_all
from threeterm.relations import (
    DEFAULT_TOL,
    PAIRS,
    SixTuple,
    TorusElement,
    _minors,
    cross_ratio_invariant,
    cross_ratio_points,
    is_on_quadric,
    relative_residual,
    rescaling_solve,
    residual,
    torus_apply,
)

SQRT2 = math.sqrt(2.0)

matrices = st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=8, max_size=8).map(
    lambda v: Matrix2x4([v[:4], v[4:]])
)

# Entries with exact zeros, ties and signed zeros as well as general floats.
entries = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]),
)


@st.composite
def real_or_complex_matrices(draw) -> Matrix2x4:
    re = draw(st.lists(entries, min_size=8, max_size=8))
    rows = np.array([re[:4], re[4:]])
    if draw(st.booleans()):
        im = draw(st.lists(entries, min_size=8, max_size=8))
        rows = rows + 1j * np.array([im[:4], im[4:]])
    return Matrix2x4(rows)


finite = st.floats(allow_nan=False, allow_infinity=False)
int64s = st.integers(-2 ** 63, 2 ** 63 - 1)
complexes = st.complex_numbers(allow_nan=False, allow_infinity=False)

# Finite scalars of every type a caller may pass: Python's bool, int, float and
# complex, and numpy's bool, int64, float32, float64, complex64 and complex128.
scalars = st.one_of(
    st.booleans(), int64s, finite, complexes,
    st.booleans().map(np.bool_), int64s.map(np.int64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    finite.map(np.float64),
    st.complex_numbers(width=64, allow_nan=False, allow_infinity=False).map(np.complex64),
    complexes.map(np.complex128),
)
containers = st.sampled_from([list, tuple, np.array])


@st.composite
def mixed_rows(draw):
    """2x4 rows of mixed scalar types, each row and the pair in a list, a
    tuple or an ndarray."""
    rows = [draw(containers)(draw(st.lists(scalars, min_size=4, max_size=4))) for _ in range(2)]
    return draw(containers)(rows)


@st.composite
def malformed_rows(draw):
    """Lists or tuples of 2x4 rows with one fault: a row or the matrix of the
    wrong length, an entry or the whole nested one level deeper, or a string
    or None in place of an entry."""
    rows = [draw(st.lists(scalars, min_size=4, max_size=4)) for _ in range(2)]
    fault = draw(st.sampled_from(["row length", "row count", "nested entry", "nested rows",
                                  "string", "None"]))
    i, k = draw(st.integers(0, 1)), draw(st.integers(0, 3))
    if fault == "row length":
        rows[i] = draw(st.lists(scalars, max_size=6).filter(lambda row: len(row) != 4))
    elif fault == "row count":
        rows = draw(st.sampled_from([[], rows[:1], rows + rows[:1]]))
    elif fault == "nested entry":
        rows[i][k] = [rows[i][k]]
    elif fault == "nested rows":
        rows = [rows]
    elif fault == "string":
        rows[i][k] = draw(st.one_of(st.text(), scalars.map(str)))
    else:
        rows[i][k] = None
    outer, inner = draw(st.sampled_from([list, tuple])), draw(st.sampled_from([list, tuple]))
    return outer(inner(row) if isinstance(row, list) else row for row in rows)


def rescale_columns(m: Matrix2x4, s) -> Matrix2x4:
    """Column i scaled by s_i."""
    return Matrix2x4([[c * v for c, v in zip(s, row)] for row in m])


def permute_columns(m: Matrix2x4, sigma) -> Matrix2x4:
    """Column k of the result is column sigma[k] of m (1-based)."""
    return Matrix2x4([[row[k - 1] for k in sigma] for row in m])


def numpy_minors(m: Matrix2x4) -> SixTuple:
    """minors() as numpy scalar arithmetic, the way it was first written."""
    x, y = m.rows[0], m.rows[1]
    vals = [x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1] for i, j in PAIRS]
    return SixTuple(*(complex(v) if np.iscomplexobj(m.rows) else float(v) for v in vals))


def numpy_reconstruct_rows(p: SixTuple) -> np.ndarray:
    """reconstruct()'s rows for a nonzero on-quadric tuple, computed on a 4x4
    antisymmetric numpy table, the way it was first written."""
    vals = p.values()
    dtype = complex if any(isinstance(v, complex) for v in vals) else float
    table = np.zeros((4, 4), dtype=dtype)
    for (i, j), v in zip(PAIRS, vals):
        table[i - 1, j - 1] = v
        table[j - 1, i - 1] = -v
    pivot = max(PAIRS, key=lambda ij: abs(table[ij[0] - 1, ij[1] - 1]))
    order = [pivot[0] - 1, pivot[1] - 1]
    order += [k for k in range(4) if k not in order]
    q = table[np.ix_(order, order)]
    q12 = q[0, 1]
    cols = np.empty((2, 4), dtype=dtype)
    cols[:, 0] = (1.0, 0.0)
    cols[:, 1] = (0.0, q12)
    cols[:, 2] = (-q[1, 2] / q12, q[0, 2])
    cols[:, 3] = (-q[1, 3] / q12, q[0, 3])
    result = np.empty((2, 4), dtype=dtype)
    result[:, order] = cols
    return result


def dict_reconstruct(p: SixTuple, tol: float = DEFAULT_TOL) -> Matrix2x4:
    """reconstruct() as it was written with a per-call dict of P_kl and P_lk = -P_kl."""
    if all(v == 0 for v in p):
        return Matrix2x4(np.zeros((2, 4)))
    if not is_on_quadric(p, tol):
        raise OffQuadricError(
            f"tuple is off the quadric: relative residual {relative_residual(p)}",
            residual=residual(p),
        )
    vals = [complex(v) for v in p] if any(isinstance(v, complex) for v in p) else p
    entry = {}
    for (k, l), v in zip(PAIRS, vals):
        entry[k, l] = v
        entry[l, k] = -v
    mags = [abs(v) for v in vals]
    i, j = PAIRS[mags.index(max(mags))]
    q12 = entry[i, j]
    cols = {i: (1.0, 0.0), j: (0.0, q12)}
    for k in (1, 2, 3, 4):
        if k != i and k != j:
            cols[k] = (-entry[j, k] / q12, entry[i, k])
    return Matrix2x4(list(zip(*(cols[k] for k in (1, 2, 3, 4)))))


def mixed(p, as_complex) -> SixTuple:
    """p with entry k made complex where as_complex[k], else real where its imaginary part is 0."""
    return SixTuple(*[
        complex(v) if c else (v.real if complex(v).imag == 0 else v)
        for v, c in zip(p, as_complex)
    ])


def bits(v) -> tuple[str, str]:
    """The real and imaginary parts' bit patterns (tells -0.0 from 0.0)."""
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def typed_bits(v) -> tuple:
    """v's type with the bit patterns of its parts."""
    return type(v), bits(v)


def within_one_ulp(x: float, y: float) -> bool:
    """Equal or neighbouring floats; 0.0 and -0.0 count as equal."""
    return x == y or math.nextafter(x, y) == y


def max_minor_dev(a: SixTuple, b: SixTuple) -> float:
    scale = max(max(abs(v) for v in a.values()), 1.0)
    return max(abs(x - y) for x, y in zip(a.values(), b.values())) / scale


class TestMatrixType:
    def test_shape_checked(self):
        with pytest.raises(DomainError):
            Matrix2x4([[1, 2, 3], [4, 5, 6]])

    def test_finiteness_checked(self):
        with pytest.raises(DomainError):
            Matrix2x4([[1, 2, 3, math.inf], [4, 5, 6, 7]])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError):
            Matrix2x4([[1, 2, 3, bad], [4, 5, 6, 7]])

    @pytest.mark.parametrize("container", [list, tuple, np.array])
    @pytest.mark.parametrize("bad", [
        math.inf, -math.inf, math.nan, complex(1.0, math.nan), complex(1.0, math.inf),
        complex(-0.0, -math.inf),
    ])
    def test_non_finite_rejected_at_every_position(self, bad, container):
        for k in range(8):
            flat = [1.0, -2.0, 3.0, 0.0, 5.0, -0.0, 7.0, 8.0]
            flat[k] = bad
            with pytest.raises(DomainError, match="finite"):
                Matrix2x4(container([container(flat[:4]), container(flat[4:])]))

    @pytest.mark.parametrize("shape", [(2, 3), (4, 2), (8,), (2, 4, 1)])
    def test_wrong_shape_rejected(self, shape):
        with pytest.raises(DomainError):
            Matrix2x4(np.ones(shape))

    def test_rows_read_only_copy(self):
        rows = np.arange(8.0).reshape(2, 4)
        m = Matrix2x4(rows)
        assert not m.rows.flags.writeable
        with pytest.raises(ValueError):
            m.rows[0, 0] = 9.0
        rows[0, 0] = 9.0
        assert m.rows[0, 0] == 0.0 and m == ((0.0, 1.0, 2.0, 3.0), (4.0, 5.0, 6.0, 7.0))
        assert not np.shares_memory(m.rows, rows)

    @settings(max_examples=300, deadline=None)
    @given(rows=mixed_rows())
    def test_entries_promote_as_numpy_does(self, rows):
        """Complex numbers if any entry is complex, else floats, bit for bit
        what numpy's complex128 or float64 array of the rows holds."""
        arr = np.array(rows)
        expected = arr.astype(np.complex128 if arr.dtype.kind == "c" else np.float64).tolist()
        flat = [v for row in rows for v in row]
        to = complex if any(isinstance(v, (complex, np.complexfloating)) for v in flat) else float
        got = [typed_bits(v) for row in Matrix2x4(rows) for v in row]
        assert got == [typed_bits(v) for row in expected for v in row]
        assert got == [typed_bits(to(v)) for v in flat]

    def test_ints_beyond_int64_held_as_objects(self):
        # numpy holds such an int as an object: it still promotes with a
        # complex entry, and a string beside it is still no number.
        real = Matrix2x4([[2 ** 70, 2, 3, 4], [5, 6, 7, 8]])[0][:2]
        assert [typed_bits(v) for v in real] == [typed_bits(2.0 ** 70), typed_bits(2.0)]
        promoted = Matrix2x4([[2 ** 70, 2j, 3, 4], [5, 6, 7, 8]])[0][:2]
        assert [typed_bits(v) for v in promoted] == [typed_bits(2.0 ** 70 + 0j), typed_bits(2j)]
        with pytest.raises(DomainError, match="expected a matrix of numbers"):
            Matrix2x4([[2 ** 70, "1", 3, 4], [5, 6, 7, 8]])

    @settings(max_examples=300, deadline=None)
    @given(rows=malformed_rows())
    def test_malformed_rows_raise_domain_error(self, rows):
        with pytest.raises(DomainError):
            Matrix2x4(rows)

    def test_real_input_promoted_to_float(self):
        assert Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8]]).rows.dtype == np.float64
        assert Matrix2x4(np.ones((2, 4), dtype=np.float32)).rows.dtype == np.float64
        assert Matrix2x4(np.ones((2, 4)) * 1j).rows.dtype == np.complex128


class TestMinors:
    def test_identity_left_block(self):
        a, b, c, d = 2.0, 3.0, 5.0, 7.0
        p = minors(Matrix2x4([[1, 0, a, b], [0, 1, c, d]]))
        assert p.values() == (1.0, c, d, -a, -b, a * d - b * c)
        assert relative_residual(p) < 1e-15

    def test_rank_one_vanishes(self):
        rng = np.random.default_rng(127)
        row = rng.normal(size=4)
        p = minors(Matrix2x4([row, 2.5 * row]))
        assert all(abs(v) < 1e-14 for v in p.values())

    def test_unit_column_matrix_matches_measurement(self):
        cfg = random_config(np.random.default_rng(131))
        m = Matrix2x4([
            [math.cos(a) for a in cfg.alpha],
            [math.sin(a) for a in cfg.alpha],
        ])
        for got, want in zip(minors(m), measure_all(cfg).p):
            assert abs(got - want) < 1e-15

    def test_always_on_quadric(self):
        rng = np.random.default_rng(137)
        for _ in range(1000):
            p = minors(Matrix2x4(rng.normal(size=(2, 4))))
            assert relative_residual(p) <= 1e-12

    def test_complex_matrix(self):
        rng = np.random.default_rng(139)
        m = Matrix2x4(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)))
        p = minors(m)
        assert all(isinstance(v, complex) for v in p.values())
        assert relative_residual(p) <= 1e-12


class TestReconstruct:
    def test_round_trip_identity_block(self):
        p = SixTuple(1.0, 5.0, 7.0, -2.0, -3.0, -1.0)  # minors of [[1,0,2,3],[0,1,5,7]]
        assert max_minor_dev(p, minors(reconstruct(p))) <= 1e-12

    def test_all_zero(self):
        m = reconstruct(SixTuple(0, 0, 0, 0, 0, 0))
        assert np.all(m.rows == 0.0)

    def test_square_chords_tuple(self):
        p = SixTuple(SQRT2, 2.0, SQRT2, SQRT2, 2.0, SQRT2)
        assert max_minor_dev(p, minors(reconstruct(p))) <= 1e-10

    def test_off_quadric_rejected(self):
        with pytest.raises(OffQuadricError) as info:
            reconstruct(SixTuple(1, 1, 1, 1, 1, 1))
        assert info.value.residual == 1.0
        assert info.value.relative_residual == 1.0 and info.value.tol == DEFAULT_TOL

    def test_random_round_trips(self):
        rng = np.random.default_rng(149)
        for _ in range(500):
            p = minors(Matrix2x4(rng.normal(size=(2, 4))))
            assert max_minor_dev(p, minors(reconstruct(p))) <= 1e-10

    def test_zero_minor_round_trips(self):
        # integer matrices with proportional column pairs: exact zero minors
        rng = np.random.default_rng(151)
        for _ in range(200):
            m = rng.integers(-5, 6, size=(2, 4)).astype(float)
            m[:, 1] = rng.integers(-3, 4) * m[:, 0]
            p = minors(Matrix2x4(m))
            if all(v == 0 for v in p.values()):
                continue
            assert p.a12 == 0.0
            assert max_minor_dev(p, minors(reconstruct(p))) <= 1e-10

    def test_entry_modulus_beyond_float_range(self):
        # On the quadric, but abs() of an entry raises OverflowError: the pivot
        # is the largest entry by quartered modulus, and every minor reads
        # back within tol of p.
        big = complex(1.7e308, 1.7e308)
        for p in (SixTuple(1, 1, big, 1, 1, 1 - big), SixTuple(0, 0, big, 0, 0, 0),
                  SixTuple(big, 1, 1, 1, 1, 0)):
            for pv, mv in zip(p, minors(reconstruct(p))):
                assert abs((mv - pv) / 4) <= DEFAULT_TOL * abs(pv / 4)

    def test_subnormal_complex_pivot(self):
        # Complex division by a subnormal pivot stays finite.
        p = SixTuple(0.0, 0.0, 0.0, 0.0, 0.0, complex(-2.22507386e-311))
        assert minors(reconstruct(p)).values() == p.values()

    def test_complex_pivot_near_float_limit(self):
        # Complex division by this pivot overflows inside, and x4 = 0.8 came
        # out as 0, so the minor P24 read back as 0.
        big = 1.1235582092889472e308
        p = SixTuple(complex(-big, -big), 0.0, 0.0, 0.0, complex(0.8 * big, 0.8 * big), 0.0)
        m = reconstruct(p)
        assert m[0][3] == complex(0.8, -0.0)
        assert minors(m) == p

    def test_complex_quotients_scale_free(self):
        # Scaled by 2^e, the tuple's pivot (6.5) leaves the range where complex
        # division is safe: the first row stays the same, the second scales by 2^e.
        e = 1019
        p = minors(Matrix2x4([[2.0, 1j, 1.0 + 1j, -1.0], [0.5, 1.0, -1j, 3.0]]))
        scaled = SixTuple(*[complex(math.ldexp(v.real, e), math.ldexp(v.imag, e)) for v in p])
        (x, y), (sx, sy) = reconstruct(p), reconstruct(scaled)
        assert sx == x
        assert sy == tuple(complex(math.ldexp(v.real, e), math.ldexp(v.imag, e)) for v in y)

    def test_complex_round_trip(self):
        rng = np.random.default_rng(157)
        for _ in range(200):
            p = minors(Matrix2x4(rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))))
            assert max_minor_dev(p, minors(reconstruct(p))) <= 1e-10


# Entry types a six-tuple may hold, each applied to an integer value.
SCALAR_TYPES = (int, bool, float, complex, np.int64, np.float64, np.float32, np.complex128,
                np.complex64)


@st.composite
def typed_tuples(draw) -> SixTuple:
    """The integer minors of a small integer matrix, exactly on the quadric,
    each entry of a drawn type (bool where it is 0 or 1)."""
    v = draw(st.lists(st.integers(-4, 4), min_size=8, max_size=8))
    exact = _minors(*zip(v[:4], v[4:]))
    kinds = draw(st.lists(st.sampled_from(SCALAR_TYPES), min_size=6, max_size=6))
    return SixTuple(*[kind(p) if kind is not bool or p in (0, 1) else p for kind, p in zip(kinds, exact)])


class TestEntries:
    """A matrix is its eight Python numbers; rows is read from them on demand."""

    @settings(max_examples=300, deadline=None)
    @given(p=typed_tuples())
    def test_reconstruct_as_public_constructor(self, p):
        # reconstruct() builds its matrix without numpy; it must equal the one
        # the public constructor reads from its rows, down to the entry types.
        m = reconstruct(p)
        r = Matrix2x4(m.rows)
        types = [type(v) for row in m for v in row]
        assert types == [type(v) for row in r for v in row]
        cplx = any(isinstance(v, complex) for v in p) and any(p)
        assert set(types) == {complex if cplx else float}
        assert m.rows.dtype == r.rows.dtype == (np.complex128 if cplx else np.float64)
        assert m == r and hash(m) == hash(r)
        assert [bits(v) for v in minors(m)] == [bits(v) for v in minors(r)]
        assert {type(v) for v in minors(m)} == {complex if cplx else float}

    @pytest.mark.parametrize("cplx", [False, True])
    def test_round_trip_without_numpy(self, monkeypatch, cplx):
        a = SixTuple(*(v * (1 + 1j) if cplx else v for v in (SQRT2, 2.0, SQRT2, SQRT2, 2.0, SQRT2)))
        q = TorusElement(1.5, -0.5, 2.0, 0.25)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy called on the round trip")

        with monkeypatch.context() as patch:
            for name in ("array", "asarray", "zeros"):
                patch.setattr(np, name, refuse)
            b = torus_apply(q, a)
            rescaling_solve(a, b)
            m = reconstruct(b)
            assert max_minor_dev(b, minors(m)) <= 1e-12
            with pytest.raises(AssertionError):
                m.rows
        rows = m.rows
        assert not rows.flags.writeable and rows.dtype == (np.complex128 if cplx else np.float64)
        assert rows.tolist() == [list(row) for row in m]

    def test_numpy_scalars_stored_as_python_numbers(self):
        # complex64 monomials of 1e-50 underflow to zero; as Python complex
        # numbers the tuple is judged at unit scale and misses the quadric.
        vals = (1e-25j, 1e-25, 1e-25, 1e-25j, 1e-25, 1e-25)
        t = SixTuple(*map(np.complex64, vals))
        assert {type(v) for v in t} == {complex}
        assert relative_residual(t) == pytest.approx(relative_residual(SixTuple(*vals)), rel=1e-6)
        assert not is_on_quadric(t, DEFAULT_TOL)
        with pytest.raises(OffQuadricError):
            reconstruct(t)
        # Neither a float32 scale nor reconstruct()'s overflowing entry sum
        # raises a numpy warning: both are formed from Python floats.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_on_quadric(SixTuple(*map(np.float32, (1, 2, 3, 4, 5, 6))), 1.0)
            big = SixTuple(*map(np.float64, (1e308, 1e308, 0, 0, 1, 1)))
            assert max_minor_dev(big, minors(reconstruct(big))) <= 1e-15


class TestNumpyParity:
    """minors() and reconstruct() against the numpy formulas they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(m=real_or_complex_matrices())
    def test_minors_bit_identical(self, m):
        assert [bits(v) for v in minors(m)] == [bits(v) for v in numpy_minors(m)]

    @settings(max_examples=300, deadline=None)
    @given(m=real_or_complex_matrices(), as_complex=st.lists(st.booleans(), min_size=6, max_size=6))
    def test_reconstruct_matches(self, m, as_complex):
        # Real rows are bit-identical.  Python and numpy divide complex numbers
        # by different formulas, so a complex entry may differ by one ulp in
        # its real or imaginary part.  Entries with a zero imaginary part are
        # drawn as floats or as complex numbers, so tuples of both types occur.
        p = mixed(minors(m), as_complex)
        assume(any(v != 0 for v in p) and is_on_quadric(p, 1e-10))
        with np.errstate(over="ignore", invalid="ignore"):
            want = numpy_reconstruct_rows(p)
        # numpy's complex division can overflow to NaN on a subnormal divisor,
        # where Python's does not; the numpy code then raised DomainError.
        assume(np.isfinite(want).all())
        got = reconstruct(p).rows
        assert got.dtype == want.dtype
        if got.dtype.kind != "c":
            assert [bits(v) for v in got.flat] == [bits(v) for v in want.flat]
            return
        for g, w in zip(got.flat, want.flat):
            assert within_one_ulp(g.real, w.real) and within_one_ulp(g.imag, w.imag)


def reconstruct_outcome(build, p: SixTuple):
    """The rows' dtype and bit patterns, or the rejection's type, message and residual."""
    try:
        m = build(p)
    except OffQuadricError as exc:
        return type(exc), str(exc), bits(exc.residual)
    return m.rows.dtype, [bits(v) for v in m.rows.flat]


# Pivot magnitudes that differ, four tied at 1 (in slots 12, 14, 23, 34),
# signed zeros in the entries and the minors, and complex entries.
PIN_MATRICES = (
    [[1.0, 0.0, 2.0, 3.0], [0.0, 1.0, 5.0, 7.0]],
    [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]],
    [[1.0, -0.0, 2.0, 0.0], [-0.0, 1.0, -0.0, 3.0]],
    [[2.0, 1j, 1.0 + 1j, -1.0], [0.5, 1.0, -1j, 3.0]],
)


@st.composite
def pin_tuples(draw) -> SixTuple:
    """Minors of a matrix with entries made real or complex one by one, or
    six free entries, which are mostly off the quadric."""
    as_complex = draw(st.lists(st.booleans(), min_size=6, max_size=6))
    if draw(st.booleans()):
        return mixed(minors(draw(real_or_complex_matrices())), as_complex)
    return mixed(draw(st.lists(entries, min_size=6, max_size=6)), as_complex)


class TestReconstructPin:
    """reconstruct() against the dict-based form it replaced: the same bits."""

    def test_every_pivot_slot_and_tie(self):
        slots, ties = set(), 0
        for rows in PIN_MATRICES:
            for sigma in permutations((1, 2, 3, 4)):
                p = minors(permute_columns(Matrix2x4(rows), sigma))
                for as_complex in ([False] * 6, [True] * 6, [True, False] * 3):
                    q = mixed(p, as_complex)
                    mags = [abs(v) for v in q]
                    slots.add(mags.index(max(mags)))
                    ties += mags.count(max(mags)) > 1
                    want = reconstruct_outcome(dict_reconstruct, q)
                    assert reconstruct_outcome(reconstruct, q) == want
        assert slots == set(range(6)) and ties

    @settings(max_examples=500, deadline=None)
    @given(p=pin_tuples())
    def test_bit_identical(self, p):
        assert reconstruct_outcome(reconstruct, p) == reconstruct_outcome(dict_reconstruct, p)


class TestColumnRescale:
    def test_identity(self):
        m = Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert np.array_equal(rescale_columns(m, (1, 1, 1, 1)).rows, m.rows)

    def test_matches_torus_action(self):
        rng = np.random.default_rng(163)
        for _ in range(300):
            m = Matrix2x4(rng.normal(size=(2, 4)))
            s = tuple(rng.uniform(-2, 2, size=4))
            lhs = minors(rescale_columns(m, s))
            if any(v == 0 for v in s):
                continue
            rhs = torus_apply(TorusElement(*s), minors(m))
            for a, b in zip(lhs.values(), rhs.values()):
                assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)

    def test_zero_scalar_kills_minors(self):
        m = Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8]])
        p = minors(rescale_columns(m, (0.0, 1.0, 1.0, 1.0)))
        assert p.a12 == p.a13 == p.a14 == 0.0


class TestColumnPermute:
    def test_identity(self):
        m = Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8]])
        assert np.array_equal(permute_columns(m, (1, 2, 3, 4)).rows, m.rows)

    @settings(max_examples=200, deadline=None)
    @given(m=matrices, sigma=st.permutations((1, 2, 3, 4)))
    def test_swap_sign_law(self, m, sigma):
        # Minor kl of the permuted matrix is P_{sigma k, sigma l}, with
        # P_ji = -P_ij: the same products, so equal to the last bit.
        p = dict(zip(PAIRS, minors(m)))
        for (k, l), got in zip(PAIRS, minors(permute_columns(m, sigma))):
            i, j = sigma[k - 1], sigma[l - 1]
            assert got == (p[i, j] if i < j else -p[j, i])

    @settings(max_examples=100, deadline=None)
    @given(m=matrices)
    def test_all_permutations_stay_on_quadric(self, m):
        # Minors whose rounding leaves them off the quadric say nothing here.
        assume(relative_residual(minors(m)) <= 1e-12)
        for sigma in permutations((1, 2, 3, 4)):
            assert is_on_quadric(minors(permute_columns(m, sigma)), 1e-10)


class TestCrossRatioBridge:
    def test_columns_vs_minors(self):
        rng = np.random.default_rng(173)
        checked = 0
        while checked < 1000:
            m = Matrix2x4(rng.normal(size=(2, 4)))
            p = minors(m)
            if abs(p.a23 * p.a14) < 1e-3:
                continue
            cols = [tuple(m.rows[:, k - 1]) for k in (1, 2, 3, 4)]
            lhs = cross_ratio_points(*cols)
            rhs = cross_ratio_invariant(p)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)
            checked += 1
