"""The package's value types: immutable, hashable, and rebuilt through their checks.

Each type is a relations._Named tuple or a relations._Frozen slotted value.
Copy, deepcopy and every pickle protocol rebuild a value by calling its
type, so a value whose entries bypassed the checks (built here with
tuple.__new__ or object.__new__) cannot be copied or unpickled.
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
from threeterm.measurements import ConcyclicConfig
from threeterm.models import (
    BoundaryPoint,
    DiskPoint,
    HyperboloidPoint,
    LightConePoint,
    MinkowskiVec,
    UhpPoint,
)


def unchecked(cls, **fields):
    """An instance of a _Frozen type with its slots set directly, skipping __init__."""
    value = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(value, name, v)
    return value


# Per type: a valid value, one of its fields, and a value of the type that
# fails its checks.
CASES = {
    "MinkowskiVec": (MinkowskiVec(0.3, -0.4, 0.5), "x",
                     tuple.__new__(MinkowskiVec, (math.nan, 0.0, 1.0))),
    "LightConePoint": (LightConePoint(3, 4, 5), "z", tuple.__new__(LightConePoint, (1.0, 0.0, 2.0))),
    "HyperboloidPoint": (HyperboloidPoint(4 / 3, 0, 5 / 3), "y",
                         tuple.__new__(HyperboloidPoint, (0.0, 0.0, -1.0))),
    "DiskPoint": (DiskPoint(0.25, -0.5), "x", tuple.__new__(DiskPoint, (1.0, 0.0))),
    "BoundaryPoint": (BoundaryPoint(1.25), "theta", tuple.__new__(BoundaryPoint, (math.inf,))),
    "UhpPoint": (UhpPoint(-1.5, 2.0), "im", tuple.__new__(UhpPoint, (0.0, -1.0, False))),
    "EuclideanCircle": (EuclideanCircle((0.5, 0.25), 0.125), "radius",
                        tuple.__new__(EuclideanCircle, ((0.0, 0.0), 0.0))),
    "ConcyclicConfig": (ConcyclicConfig(SQUARE_ALPHA, SQUARE_RADII), "alpha",
                        unchecked(ConcyclicConfig, alpha=SQUARE_ALPHA[::-1], r=SQUARE_RADII)),
    "Matrix2x4": (Matrix2x4([[1, 2, 3, 4], [5, 6, 7, 8j]]), "entries",
                  unchecked(Matrix2x4, entries=((1.0, 2.0, 3.0, math.inf), (5.0, 6.0, 7.0, 8.0)))),
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
    "UhpPoint-infinity-as-complex": (lambda: UhpPoint.infinity().as_complex(),
                                     DomainError, "point at infinity has no complex coordinate"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_constructor_rejects(name):
    call, error, message = REJECTED[name]
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("name", ["ConcyclicConfig", "Matrix2x4"])
def test_frozen_repr_is_its_constructor_call(name):
    value = CASES[name][0]
    assert eval(repr(value), {name: type(value)}) == value
