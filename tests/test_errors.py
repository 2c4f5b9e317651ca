"""The quadric and orbit errors: their margins are fields, kept in args, and the
message is built from those fields when it is read, the same text as before to
the byte.  The library raises them without running any code of errors.py."""

import copy
import pickle
import sys

import pytest
from hypothesis import given, settings, strategies as st

from threeterm import errors
from threeterm.errors import NotSameOrbitError, OffQuadricError
from threeterm.grassmann import reconstruct
from threeterm.relations import PAIRS, SixTuple, rescaling_solve

SQUARE = SixTuple(2**0.5, 2.0, 2**0.5, 2**0.5, 2.0, 2**0.5)
FIELDS = {
    OffQuadricError: ("message", "residual", "relative_residual", "tol", "what"),
    NotSameOrbitError: ("message", "invariant_a", "invariant_b", "pair", "deviation", "tol"),
}

# Subnormal, huge and signed-zero floats on top of whatever st.floats() draws.
EDGE = [5e-324, sys.float_info.min / 3, sys.float_info.max, -sys.float_info.max, -0.0, 0.0]
floats = st.one_of(st.sampled_from(EDGE), st.floats())
scalars = st.one_of(floats, st.builds(complex, floats, floats))


def raised(call) -> Exception:
    try:
        call()
    except (OffQuadricError, NotSameOrbitError) as exc:
        return exc
    raise AssertionError("no error raised")


def library_rejections() -> list:
    """One call for each place the library raises these two."""
    off = SixTuple(1, 1, 1, 1, 1, 1)
    tiny = SixTuple(1e-170, 2e-170, 3e-170, 4e-170, 5e-170, 6e-170)
    a = SixTuple(1e-3, 1.0, 1.0, 1.0, 1.0 + 1e-6, 1e-3)
    return [
        lambda: rescaling_solve(off, SQUARE),
        lambda: rescaling_solve(SQUARE, tiny),
        lambda: reconstruct(SixTuple(1j, 1, 1, 1, 1, 1)),
        lambda: rescaling_solve(SQUARE, SixTuple(1, 2, 1, 1, 2, 3)),
        lambda: rescaling_solve(a, SixTuple(*a[:5], 1e-3 * (1 + 1e-3)), 1e-5),
    ]


def library_errors() -> list:
    return [raised(call) for call in library_rejections()]


def ready_errors() -> list:
    return [
        OffQuadricError("ready message", residual=-0.0),
        OffQuadricError("ready message", 1.0, 0.5, 1e-10, "first tuple"),
        NotSameOrbitError("ready message", invariant_a=1j, invariant_b=2.0),
        NotSameOrbitError(message="ready message", pair=(1, 2)),
    ]


def snapshot(exc) -> tuple:
    """Type, args and fields (by repr, which tells -0.0 from 0.0 and shows NaN),
    str and repr."""
    fields = tuple(repr(getattr(exc, name)) for name in FIELDS[type(exc)])
    return type(exc), repr(exc.args), fields, str(exc), repr(exc)


def twin(exc):
    """The error that the public constructor builds from exc's fields."""
    return type(exc)(*(getattr(exc, name) for name in FIELDS[type(exc)]))


def errors_py_calls(call) -> list:
    """The names of the functions of errors.py that run during call()."""
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == errors.__file__:
            seen.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call()
    except (OffQuadricError, NotSameOrbitError):
        pass
    finally:
        sys.setprofile(None)
    return seen


COPIES = [copy.copy, copy.deepcopy] + [
    (lambda exc, p=p: pickle.loads(pickle.dumps(exc, protocol=p)))
    for p in range(pickle.HIGHEST_PROTOCOL + 1)
]


@pytest.mark.parametrize("how", COPIES, ids=["copy", "deepcopy"] + [
    f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_copies_keep_type_fields_and_text(how):
    for exc in library_errors() + ready_errors():
        assert snapshot(how(exc)) == snapshot(exc)


def test_library_raises_run_no_python_of_errors_py():
    for call in library_rejections():
        assert errors_py_calls(call) == []
    # The probe does see the public constructor and the message.
    seen = errors_py_calls(lambda: str(OffQuadricError(None, 1.0, 1.0, 1e-10)))
    assert {"__init__", "__str__"} <= set(seen)


@pytest.mark.parametrize("how", [lambda exc: exc] + COPIES, ids=["itself", "copy", "deepcopy"] + [
    f"pickle{p}" for p in range(pickle.HIGHEST_PROTOCOL + 1)])
def test_library_errors_equal_their_constructed_twins(how):
    for exc in library_errors():
        assert len(exc.args) == len(FIELDS[type(exc)])
        assert snapshot(how(exc)) == snapshot(twin(exc))


def test_fields_are_read_only():
    for exc in library_errors() + ready_errors():
        for name in FIELDS[type(exc)]:
            with pytest.raises(AttributeError):
                setattr(exc, name, None)


def test_ready_errors_fill_every_field():
    assert [exc.args for exc in ready_errors()] == [
        ("ready message", -0.0, None, None, "tuple"),
        ("ready message", 1.0, 0.5, 1e-10, "first tuple"),
        ("ready message", 1j, 2.0, None, None, None),
        ("ready message", None, None, (1, 2), None, None),
    ]


def test_library_messages():
    texts = [str(exc) for exc in library_errors()]
    assert texts == [
        "first tuple is off the quadric: relative residual 1.0",
        f"second tuple is off the quadric: relative residual {2 / 3}",
        "tuple is off the quadric: relative residual 1.0",
        "cross-ratio invariants differ: 1.0 vs 3.0",
        "no rescaling reproduces entry 34 within tolerance 1e-05",
    ]


def test_ready_message_kept():
    for exc in ready_errors():
        assert str(exc) == "ready message"
        assert f"error: {exc}" == "error: ready message"
        assert str(pickle.loads(pickle.dumps(exc))) == "ready message"


@settings(max_examples=300, deadline=None)
@given(residual=scalars, rel=floats, tol=floats, what=st.sampled_from(
    ["tuple", "first tuple", "second tuple"]))
def test_off_quadric_text_as_formatted_before(residual, rel, tol, what):
    exc = OffQuadricError(None, residual, rel, tol, what)
    old = f"{what} is off the quadric: relative residual {rel}"
    assert str(exc) == f"{exc}" == old
    assert str(OffQuadricError(old, residual=residual, relative_residual=rel, tol=tol)) == old
    for how in COPIES:
        assert snapshot(how(exc)) == snapshot(exc)


@settings(max_examples=300, deadline=None)
@given(inv_a=scalars, inv_b=scalars, pair=st.sampled_from(PAIRS), deviation=floats, tol=floats)
def test_not_same_orbit_text_as_formatted_before(inv_a, inv_b, pair, deviation, tol):
    differ = NotSameOrbitError(None, inv_a, inv_b)
    assert str(differ) == f"cross-ratio invariants differ: {inv_a} vs {inv_b}"
    assert differ.pair is differ.deviation is differ.tol is None
    i, j = pair
    missed = NotSameOrbitError(None, inv_a, inv_b, pair, deviation, tol)
    assert str(missed) == f"no rescaling reproduces entry {i}{j} within tolerance {tol}"
    for exc in (differ, missed):
        for how in COPIES:
            assert snapshot(how(exc)) == snapshot(exc)
