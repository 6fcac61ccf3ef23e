"""Result records and validated types: immutability, validation, construction.

Results are typing.NamedTuple classes.  The validated types subclass
collections.namedtuple and check and normalise their input in __new__, so
positional and keyword construction take the same path.
"""
import numpy as np
import pytest

from ssbspec.breaking import MassForm, quadratic_lagrangian, spectrum
from ssbspec.chiral import RepresentationError, TripleProduct
from ssbspec.electroweak import ElectroweakParams, build_model
from ssbspec.higgsmodel import (
    HiggsModel,
    NotAVacuumError,
    PotentialError,
    QuarticPotential,
)
from ssbspec.latticefields import Grid, LatticeError
from ssbspec.liecore import FactorLabel, GeneratorError, GeneratorSet
from ssbspec.unitarygauge import UnitaryGaugeConfig, apply_unitary_gauge_field

MODEL = build_model()
GS = MODEL.generators
QUARTIC = QuarticPotential(2.0, 1.0)
SKEW = 0.5j * np.array([[[1, 0], [0, -1]]], dtype=complex)

# (type, valid arguments in field order)
VALIDATED = [
    (MassForm, ([[2.0, 0.0], [0.0, 1.0]],)),
    (GeneratorSet, (SKEW, None)),
    (TripleProduct, (np.zeros((2, 2, 1)), (1, 0, 0))),
    (ElectroweakParams, (2.0, 1.0, 2.0, 1.0)),
    (QuarticPotential, (2.0, 1.0)),
    (HiggsModel, (GS, QUARTIC, MODEL.vacuum)),
    (Grid, (2, (4, 5), 0.25, "euclidean")),
    (GeneratorSet, (SKEW, (FactorLabel("u1", (0,), 1.0),))),
]

# (type, bad arguments in field order, error, message)
INVALID = [
    (MassForm, (["a"],), ValueError, "could not convert"),
    # representations are GeneratorSets; this row keeps the id it had under chiral.Representation
    pytest.param(
        GeneratorSet, (np.ones((1, 2, 2)), None), GeneratorError, "not skew-Hermitian",
        id="Representation-args1-GeneratorError-not skew-Hermitian",
    ),
    (TripleProduct, (np.zeros((2, 2)), (0, 0, 0)), RepresentationError, "three slots"),
    (TripleProduct, (np.full((1, 1, 1), np.nan), (0, 0, 0)), RepresentationError, "finite"),
    (ElectroweakParams, (2.0, -1.0, 2.0, 1.0), ValueError, "must be positive"),
    (ElectroweakParams, (2.0, 1.0, np.inf, 1.0), ValueError, "parameter mu must be finite, got inf"),
    (QuarticPotential, (2.0, 0.0), PotentialError, "lambda > 0"),
    (HiggsModel, (GS, QUARTIC, np.zeros(3)), NotAVacuumError, r"shape \(2,\)"),
    (Grid, (2, (4, 3), 0.25, "euclidean"), LatticeError, "at least 4"),
    (Grid, (2, (4, 4), 0.25, "minkowski"), LatticeError, "unknown metric"),
    (GeneratorSet, (np.zeros((2, 2)), None), GeneratorError, r"\(r, n, n\) stack"),
    (GeneratorSet, (SKEW, (FactorLabel("u1", (1,), 1.0),)), GeneratorError, "out-of-range"),
]


def _keywords(cls, args):
    return dict(zip(cls._fields, args))


@pytest.mark.parametrize("cls, args", VALIDATED, ids=lambda x: getattr(x, "__name__", None))
def test_validated_types_build_the_same_by_position_and_keyword(cls, args):
    by_position, by_keyword = cls(*args), cls(**_keywords(cls, args))
    assert type(by_position) is type(by_keyword) is cls
    for a, b in zip(by_position, by_keyword):
        assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
    assert repr(by_position).startswith(f"{cls.__name__}({cls._fields[0]}=")


@pytest.mark.parametrize("cls, args, error, match", INVALID, ids=lambda x: getattr(x, "__name__", None))
def test_validated_types_reject_bad_input_by_position_and_keyword(cls, args, error, match):
    with pytest.raises(error, match=match):
        cls(*args)
    with pytest.raises(error, match=match):
        cls(**_keywords(cls, args))


def test_validated_types_normalise_their_input():
    grid = Grid(dim=2, shape=[4.0, np.int64(5)], spacing=0.25)
    assert grid.shape == (4, 5) and all(type(m) is int for m in grid.shape)
    assert grid == Grid(2, (4, 5), 0.25, "euclidean")
    assert TripleProduct(np.zeros((1, 1, 1)), [1, 0, 0]).conjugated == (True, False, False)
    for array in (
        MassForm([[1, 0], [0, 1]]).matrix,
        TripleProduct(np.zeros((1, 1, 1)), (0, 0, 0)).tensor,
        HiggsModel(GS, QUARTIC, [0.0, 1.0]).vacuum,
        GeneratorSet(SKEW).matrices,
    ):
        assert not array.flags.writeable


def _records():
    gaugefield = apply_unitary_gauge_field(GS, MODEL.vacuum, np.tile(MODEL.vacuum, (4, 4, 1)))
    # one record per type
    validated = {cls: cls(*args) for cls, args in VALIDATED}
    return list(validated.values()) + [spectrum(MODEL), gaugefield, UnitaryGaugeConfig()]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    # no instance dict: a misspelt field cannot be set either
    with pytest.raises(AttributeError):
        record.extra = None


class Tilted:
    """V(v) = Re v_1: a constant gradient and a flat Hessian."""

    def value(self, v):
        return float(v[0].real)

    def gradient(self, v):
        return np.eye(4)[0]

    def hessian(self, v):
        return np.zeros((4, 4))


def test_model_at_a_point_off_the_vacuum_is_refused():
    # quadratic_lagrangian(model, at=v) builds this model to try the point as a vacuum
    with pytest.raises(NotAVacuumError, match="gradient norm"):
        HiggsModel(MODEL.generators, MODEL.potential, 0.5 * MODEL.vacuum)
    with pytest.raises(NotAVacuumError, match="gradient norm"):
        HiggsModel(generators=GS, potential=QUARTIC, vacuum=np.array([0.0, 1.7]))
    # a flat Hessian passes every check spectrum() makes; only the construction
    # check sees the gradient, so a _replace that skipped it would report a vacuum
    assert not quadratic_lagrangian(HiggsModel(GS, Tilted()), at=np.array([0.0, 1.0])).is_vacuum
