"""The value classes: construction, validation, equality, hashing, repr, immutability, pickling and matching."""

import copy
import pickle
import re

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
    (AffineMap3, (np.eye(3), [0.0, 0.0, 0.0]),
     "AffineMap3(L=array([[1., 0., 0.],\n       [0., 1., 0.],\n       [0., 0., 1.]]), C=array([0., 0., 0.]))",
     False, None),
    (ChannelSpec, (((1.0, np.eye(2)),),),
     "ChannelSpec(terms=((1.0, array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]])),))", False,
     (((),), "a channel needs at least one (weight, unitary) term")),
    (KineticSystem, ((1, 0.0, 2.0), 0), "KineticSystem(omega=(1.0, 0.0, 2.0), x=0.0)", True,
     (((1.0, 2.0), 0.0), "kinetic angular velocity omega needs 3 components, got 2")),
    (Trajectory, (np.array([0.0, 1.0]), np.array([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]]), 0.0),
     "Trajectory(times=array([0., 1.]), probs=array([[0.5, 0.5, 0.5],\n       [0.5, 0.5, 0.5]]), x=0.0)",
     False, None),
    (ObservableProbRep, (2.0, 3.0, P, Q), f"ObservableProbRep(a=2.0, b=3.0, p_a={P_REPR}, p_b={Q_REPR})", True,
     ((2.0, 2.0, P, Q), "encoding shifts must differ (a == b repeats one equation)")),
    (TrianglePicture, (np.zeros((3, 2)), (1.0, 1.0, 1.0), (1.0, 1.0, 1.0), 3.0),
     "TrianglePicture(vertices=array([[0., 0.],\n       [0., 0.],\n       [0., 0.]]), "
     "side_lengths=(1.0, 1.0, 1.0), square_areas=(1.0, 1.0, 1.0), total_area=3.0)", False, None),
    (FormulaCheck, ("L11", 1.0, 1.0, 1e-9),
     "FormulaCheck(name='L11', closed_form=1.0, oracle=1.0, tolerance=1e-09)", True, None),
]


@pytest.mark.parametrize("cls, args, text, hashable, rejected", CASES, ids=[case[0].__name__ for case in CASES])
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
