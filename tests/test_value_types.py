"""The package's value types: immutable, hashable, and rebuilt through their checks.

Each type is a relations._Named tuple, but ConcyclicConfig, which keeps its
derived points in slots.  Copy, deepcopy and every pickle protocol rebuild a
value by calling its type, so a value whose entries bypassed the checks
(built here by unchecked) cannot be copied or unpickled.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from conftest import SQUARE_ALPHA, SQUARE_RADII
from threeterm.errors import ConfigurationError, DomainError, GeometryError
from threeterm.grassmann import Matrix2x4
from threeterm.horocycles import EuclideanCircle
from threeterm.measurements import ConcyclicConfig, MeasurementTable, measure_all
from threeterm.models import (
    BoundaryPoint,
    DiskPoint,
    HyperboloidPoint,
    LightConePoint,
    MinkowskiVec,
    UhpPoint,
)
from threeterm.relations import SixTuple, TorusElement


def unchecked(cls, *entries):
    """An instance of cls holding entries, skipping its checks: the tuple of
    them, or for ConcyclicConfig its slots in order."""
    if cls is not ConcyclicConfig:
        return tuple.__new__(cls, entries)
    value = object.__new__(cls)
    for name, v in zip(cls.__slots__, entries):
        object.__setattr__(value, name, v)
    return value


TABLE = measure_all(ConcyclicConfig(SQUARE_ALPHA, SQUARE_RADII))

# Per type: a valid value, one of its fields, and a value of the type that
# fails its checks.
CASES = {
    "MinkowskiVec": (MinkowskiVec(0.3, -0.4, 0.5), "x", unchecked(MinkowskiVec, math.nan, 0.0, 1.0)),
    "LightConePoint": (LightConePoint(3, 4, 5), "z", unchecked(LightConePoint, 1.0, 0.0, 2.0)),
    "HyperboloidPoint": (HyperboloidPoint(4 / 3, 0, 5 / 3), "y",
                         unchecked(HyperboloidPoint, 0.0, 0.0, -1.0)),
    "DiskPoint": (DiskPoint(0.25, -0.5), "x", unchecked(DiskPoint, 1.0, 0.0)),
    "BoundaryPoint": (BoundaryPoint(1.25), "theta", unchecked(BoundaryPoint, math.inf)),
    "UhpPoint": (UhpPoint(-1.5, 2.0), "im", unchecked(UhpPoint, 0.0, -1.0, False)),
    "EuclideanCircle": (EuclideanCircle((0.5, 0.25), 0.125), "radius",
                        unchecked(EuclideanCircle, (0.0, 0.0), 0.0)),
    "ConcyclicConfig": (ConcyclicConfig(SQUARE_ALPHA, SQUARE_RADII), "alpha",
                        unchecked(ConcyclicConfig, SQUARE_ALPHA[::-1], SQUARE_RADII)),
    "Matrix2x4": (Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8j]]), "rows",
                  unchecked(Matrix2x4, (1.0, 2.0, 3.0, math.inf), (5.0, 6.0, 7.0, 8.0))),
    "SixTuple": (SixTuple(1.0, 2j, 3.0, 4.0, 5.0, 6.0), "a12",
                 unchecked(SixTuple, 1.0, 2.0, 3.0, 4.0, 5.0, math.nan)),
    "TorusElement": (TorusElement(1.0, 2.0, -3.0, 4j), "q1", unchecked(TorusElement, 0.0, 1.0, 1.0, 1.0)),
    "MeasurementTable": (TABLE, "lam", unchecked(MeasurementTable, TABLE.d, TABLE.t, TABLE.lam,
                                                 unchecked(SixTuple, *TABLE.p[:5], math.inf))),
}

REBUILDS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    **{f"pickle{p}": (lambda v, p=p: pickle.loads(pickle.dumps(v, protocol=p)))
       for p in range(pickle.HIGHEST_PROTOCOL + 1)},
}


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    value, field, _ = CASES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("how", REBUILDS)
@pytest.mark.parametrize("name", CASES)
def test_rebuilt_equal_through_the_checks(name, how):
    value, _, invalid = CASES[name]
    rebuilt = REBUILDS[how](value)
    assert type(rebuilt) is type(value)
    assert rebuilt == value and hash(rebuilt) == hash(value)
    with pytest.raises(GeometryError):
        REBUILDS[how](invalid)


def test_config_rebuilt_draws_the_same_horocycles():
    cfg = ConcyclicConfig(SQUARE_ALPHA, SQUARE_RADII)
    rebuilt = pickle.loads(pickle.dumps(cfg))
    assert all(rebuilt.horocycle(i) == cfg.horocycle(i) for i in range(1, 5))
    assert rebuilt.tangency_points == cfg.tangency_points and rebuilt.centers == cfg.centers


def test_matrix_keeps_its_dtype_and_read_only_rows():
    for rows, dtype in (([[1, 2, 3, 4], [5, 6, 7, 8]], np.float64),
                        ([[1, 2, 3, 4], [5, 6, 7, 8 + 0j]], np.complex128)):
        rebuilt = pickle.loads(pickle.dumps(Matrix2x4(rows)))
        assert rebuilt.rows.dtype == dtype and not rebuilt.rows.flags.writeable


# Per constructor: a call that its checks reject, the error and its message.
REJECTED = {
    "EuclideanCircle-nan-center": (lambda: EuclideanCircle((math.nan, math.inf), 0.5),
                                   DomainError, "non-finite circle center"),
    "EuclideanCircle-text-center": (lambda: EuclideanCircle("ab", 0.5),
                                    DomainError, "circle center and radius must be real"),
    "EuclideanCircle-text-radius": (lambda: EuclideanCircle((0.5, 0.0), "0.25"),
                                    DomainError, "circle center and radius must be real"),
    "MeasurementTable-short-family": (lambda: MeasurementTable(*TABLE[:3], TABLE.p[:5]),
                                      TypeError, "missing 1 required positional argument"),
    "ConcyclicConfig-three-alphas": (lambda: ConcyclicConfig(SQUARE_ALPHA[:3], SQUARE_RADII),
                                     ConfigurationError, "expected four half-angles"),
    "ConcyclicConfig-nan-radius": (lambda: ConcyclicConfig(SQUARE_ALPHA, [math.nan, 0.1, 0.1, 0.1]),
                                   ConfigurationError, "non-finite configuration values"),
    "LightConePoint-inf": (lambda: LightConePoint(math.inf, 0.0, math.inf),
                           DomainError, "non-finite components"),
    "HyperboloidPoint-inf": (lambda: HyperboloidPoint(0.0, 0.0, math.inf),
                             DomainError, "non-finite components"),
    "DiskPoint-nan": (lambda: DiskPoint(math.nan, 0.0), DomainError, "non-finite disk point"),
    "UhpPoint-nan": (lambda: UhpPoint(0.0, math.nan), DomainError, "non-finite half-plane point"),
    "Matrix2x4-ragged-rows": (lambda: Matrix2x4([[1, 2, 3, 4], [5, 6, 7]]),
                              DomainError, "expected a 2x4 matrix"),
    "Matrix2x4-text": (lambda: Matrix2x4([["one", 2, 3, 4], [5, 6, 7, 8]]),
                       DomainError, "expected a matrix of numbers"),
    "Matrix2x4-numeric-string": (lambda: Matrix2x4([["1", 2, 3, 4], [5, 6, 7, 8]]),
                                 DomainError, "expected a matrix of numbers"),
    "Matrix2x4-int-beyond-float": (lambda: Matrix2x4([[2 ** 1100, 2, 3, 4], [5, 6, 7, 8]]),
                                   DomainError, "matrix entries must be finite"),
    "UhpPoint-infinity-as-complex": (lambda: UhpPoint.infinity().as_complex(),
                                     DomainError, "point at infinity has no complex coordinate"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_constructor_rejects(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("name", CASES)
def test_frozen_repr_is_its_constructor_call(name):
    value = CASES[name][0]
    namespace = {type(v).__name__: type(v) for v, _, _ in CASES.values()}
    assert eval(repr(value), namespace) == value


def test_measurement_table_reads_as_its_four_families():
    d, t, lam, p = TABLE
    assert TABLE == (d, t, lam, p) and (TABLE.d, TABLE.t, TABLE.lam, TABLE.p) == (d, t, lam, p)
    assert all(type(v) is SixTuple for v in TABLE)
    assert repr(TABLE) == f"MeasurementTable(d={d!r}, t={t!r}, lam={lam!r}, p={p!r})"
    # The public constructor makes each family a checked SixTuple.
    assert type(MeasurementTable(*map(tuple, TABLE)).d) is SixTuple
