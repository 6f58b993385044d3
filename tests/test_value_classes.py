"""The value classes: construction, validation, equality, hashing, repr, immutability, pickling and matching."""

import copy
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from qprob import (
    AffineMap3,
    ChannelSpec,
    Direction,
    DomainError,
    FormulaCheck,
    KineticSystem,
    ObservableProbRep,
    ProbTriple,
    Trajectory,
    TrianglePicture,
    build_kinetic,
    rotation_from_unitary,
    sample_trajectory,
)

P = ProbTriple(0.7, 0.4, 0.55)
Q = ProbTriple(0.5, 0.5, 1.0)
P_REPR = "ProbTriple(p1=0.7, p2=0.4, p3=0.55)"
Q_REPR = "ProbTriple(p1=0.5, p2=0.5, p3=1.0)"

# class, positional arguments, the repr they give, whether the fields hash, and a rejected
# argument list with its message (None for a class that takes any fields)
CASES = [
    (ProbTriple, (0.7, 0.4, 0.55), P_REPR, True, None),
    # psi defaults to 0.0, and the angles are read as floats
    (Direction, (1, 0.5), "Direction(theta=1.0, phi=0.5, psi=0.0)", True,
     ((4.0, 0.5), "theta = 4.0 outside [0, pi]")),
    # held as Python floats and complex numbers, whatever array-like they are given
    (AffineMap3, (np.eye(3), [0.0, 0.0, 0.0]),
     "AffineMap3(linear=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), offset=(0.0, 0.0, 0.0))", True,
     (([[1, 0, 0], [0, 1, 0], [0, 0, math.inf]], (0, 0, 0)),
      "affine map must be finite, got L = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, inf)), C = (0.0, 0.0, 0.0)")),
    (ChannelSpec, (((1.0, np.eye(2)),),),
     "ChannelSpec(terms=((1.0, (((1+0j), 0j), (0j, (1+0j)))),))", True,
     (((),), "a channel needs at least one (weight, unitary) term")),
    (KineticSystem, ((1, 0.0, 2.0), 0), "KineticSystem(omega=(1.0, 0.0, 2.0), x=0.0)", True,
     (((1.0, 2.0), 0.0), "kinetic angular velocity omega needs 3 components, got shape (2,)")),
    (Trajectory, (np.array([0.0, 1.0]), np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]), 0.0),
     "Trajectory(times=array([0., 1.]), probs=array([[0.5, 0.5, 0.5],\n       [0.5, 0.5, 0.5]]), x=0.0)",
     False, None),
    (ObservableProbRep, (2.0, 3.0, P, Q), f"ObservableProbRep(a=2.0, b=3.0, p_a={P_REPR}, p_b={Q_REPR})", True,
     ((2.0, 2.0, P, Q), "encoding shifts must differ (a == b repeats one equation)")),
    (TrianglePicture, (np.zeros((3, 2)),), "TrianglePicture(vertices=((0.0, 0.0), (0.0, 0.0), (0.0, 0.0)))", True,
     ((np.zeros((2, 2)),), "a picture needs three (x, y) vertices, got shape (2, 2)")),
    (FormulaCheck, ("L11", 1.0, 1.0, 1e-9),
     "FormulaCheck(name='L11', closed_form=1.0, oracle=1.0, tolerance=1e-09)", True, None),
]


# a picture as triangle_picture makes it, from float pairs
PAIRS_PICTURE = (TrianglePicture, (((0.0, 0.0), (1.0, 0.0), (0.5, 1.0)),),
                 "TrianglePicture(vertices=((0.0, 0.0), (1.0, 0.0), (0.5, 1.0)))", True, None)


@pytest.mark.parametrize("cls, args, text, hashable, rejected", [*CASES, PAIRS_PICTURE],
                         ids=[*(case[0].__name__ for case in CASES), "TrianglePicture-pairs"])
def test_value_class_contract(cls, args, text, hashable, rejected):
    names = cls.__match_args__
    value = cls(*args)
    assert repr(value) == text
    assert repr(cls(**dict(zip(names, args)))) == text
    if rejected is not None:
        bad_args, message = rejected
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cls(*bad_args)

    # equal fields make equal values; an instance of another class never equals one
    assert value == value
    other_class = type(f"Other{cls.__name__}", (cls,), {})
    assert value != other_class(*args) and other_class(*args) != value
    if hashable:
        same = cls(*args)
        assert value == same and not value != same
        assert hash(value) == hash(same) == hash(tuple(getattr(value, name) for name in names))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)

    for name in names:
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(value, name, 0.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.unknown = 0.0
    assert repr(value) == text

    # a pickled or copied value is rebuilt through the class, validation and all
    for rebuilt in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(rebuilt) is cls and repr(rebuilt) == text

    assert names == tuple(cls.__init__.__code__.co_varnames[1:1 + len(names)])
    match value:
        case cls(first):
            assert first is getattr(value, names[0])
        case _:
            pytest.fail(f"{cls.__name__} does not match its first field by position")


def test_value_classes_hold_no_instance_dict():
    for cls, args, *_ in CASES:
        assert not hasattr(cls(*args), "__dict__")


def test_maps_and_channels_compare_by_their_numbers():
    by_hand = AffineMap3([[1, 0, 0], [0, 1, 0], [0, 0, 1]], (0, 0, 0))
    for u in (np.eye(2), [[1, 0], [0, 1]], np.asfortranarray(np.eye(2, dtype=complex))):
        rotation = rotation_from_unitary(u)
        assert rotation == by_hand and hash(rotation) == hash(by_hand)
    assert rotation_from_unitary([[0, 1], [1, 0]]) != by_hand
    assert len({by_hand, rotation_from_unitary(np.eye(2)), AffineMap3(np.eye(3), np.zeros(3))}) == 1
    spec = ChannelSpec(((0.5, np.eye(2)), (0.5, [[1, 0], [0, -1]])))
    same = ChannelSpec(((0.5, [[1, 0], [0, 1]]), (0.5, np.diag([1.0, -1.0]))))
    assert spec == same and hash(spec) == hash(same)


def test_trajectories_compare_by_their_numbers():
    system = build_kinetic([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]], 0.0)
    trajectory = sample_trajectory(system, Q, 1.0, 4)
    same = sample_trajectory(system, Q, 1.0, 4)
    assert trajectory == same and not trajectory != same
    assert trajectory != Trajectory(trajectory.times, trajectory.probs, 1.0)
    changed = trajectory.probs.copy()
    changed[2, 1] = np.nextafter(changed[2, 1], 1.0)
    assert trajectory != Trajectory(trajectory.times, changed, trajectory.x)
    # arrays of another shape are unequal, not broadcast
    assert trajectory != Trajectory(trajectory.times[:1], trajectory.probs[:1], trajectory.x)


@pytest.mark.parametrize("build, shown", [
    (lambda: ProbTriple(None, 0, 0), "None"),
    (lambda: KineticSystem((None, 0, 0), 0.0), "None"),
    (lambda: KineticSystem((0, 0, 1), None), "None"),
    (lambda: TrianglePicture([(None, 0), (1, 0), (0, 1)]), "None"),
    (lambda: Direction(None, 0), "None"),
    (lambda: ChannelSpec([(None, np.eye(2))]), "None"),
    (lambda: AffineMap3([[1, 0, 0], [0, 1, 0], [0, 0, None]], (0, 0, 0)), "None"),
    (lambda: ProbTriple.from_array(["a", 0, 0]), "'a'"),
    (lambda: ChannelSpec([("x", np.eye(2))]), "'x'"),
    (lambda: ProbTriple(1j, 0, 0), "1j"),
])
def test_a_field_that_is_not_a_real_number_is_a_domain_error(build, shown):
    with pytest.raises(DomainError, match=rf"^expected a real number, got {re.escape(shown)}$"):
        build()


@pytest.mark.parametrize("value", [np.complex128(0.5 + 1j), np.complex64(1 + 2j), np.clongdouble(0.5 + 0.25j),
                                   np.complex128(1.0)], ids=["complex128", "complex64", "clongdouble", "zero-imag"])
@pytest.mark.parametrize("build", [
    lambda v: ProbTriple(v, 0, 0),
    lambda v: Direction(v, 0),
    lambda v: ChannelSpec([(v, np.eye(2))]),
], ids=["triple", "direction", "weight"])
def test_a_numpy_complex_scalar_is_not_a_real_number(build, value):
    # float() would drop its imaginary part with only a ComplexWarning, whatever that part is
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=rf"^expected a real number, got {re.escape(repr(value))}$"):
            build(value)


def test_numeric_strings_are_read_as_float_reads_them():
    # the numpy route reads a list holding a string as strings, so the readers agree on them
    assert ProbTriple("0.5", 0, 0) == ProbTriple(0.5, 0, 0) == ProbTriple.from_array(["0.5", 0, 0])
