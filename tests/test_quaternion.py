import math
import operator

import pytest

from qop.errors import DomainError
from qop.quaternion import I, J, K, ONE, ZERO, Quaternion
from qop.rng import SplitMix64


def test_multiplication_table():
    minus_one = Quaternion(-1.0, 0.0, 0.0, 0.0)
    assert I * I == minus_one
    assert J * J == minus_one
    assert K * K == minus_one
    assert I * J == K
    assert J * I == -K
    assert J * K == I
    assert K * J == -I
    assert K * I == J
    assert I * K == -J


def _random_quaternions(count, seed):
    c = SplitMix64(seed).normals(count * 4).reshape(count, 4) * 2.0
    return [Quaternion(*row) for row in c]


def test_associativity_and_norm_multiplicativity():
    qs = _random_quaternions(3 * 500, seed=11)
    for a, b, c in zip(qs[0::3], qs[1::3], qs[2::3]):
        left = (a * b) * c
        right = a * (b * c)
        scale = max(1.0, left.norm())
        assert (left - right).norm() <= 1e-12 * scale
        assert abs((a * b).norm() - a.norm() * b.norm()) <= 1e-12 * max(1.0, a.norm() * b.norm())


def test_conjugation_is_an_anti_homomorphism():
    qs = _random_quaternions(2 * 300, seed=12)
    for a, b in zip(qs[0::2], qs[1::2]):
        lhs = (a * b).conjugate()
        rhs = b.conjugate() * a.conjugate()
        assert (lhs - rhs).norm() <= 1e-12 * max(1.0, lhs.norm())


def test_norm_squared_equals_q_times_conjugate():
    for q in _random_quaternions(100, seed=13):
        prod = q * q.conjugate()
        assert abs(prod.w - q.norm_squared()) <= 1e-12 * max(1.0, q.norm_squared())
        assert abs(prod.x) + abs(prod.y) + abs(prod.z) <= 1e-12 * max(1.0, q.norm_squared())


def test_inverse():
    q = Quaternion(1.0, -2.0, 0.5, 3.0)
    p = q * q.inverse()
    assert p.isclose(ONE, tol=1e-14)
    with pytest.raises(DomainError):
        ZERO.inverse()


def test_real_center_commutes():
    r = Quaternion(2.5, 0.0, 0.0, 0.0)
    q = Quaternion(0.3, -1.0, 0.7, 2.0)
    assert r * q == q * r
    assert 2.0 * q == q * 2.0 and 3 * q == q * 3


@pytest.mark.parametrize("op, other", [(operator.add, 1.0), (operator.sub, 1.0),
                                       (operator.mul, 1j), (operator.truediv, 1j)])
def test_an_operand_that_is_not_a_quaternion_or_real_is_a_type_error(op, other):
    # a real scalar multiplies and divides; a complex one, or a real added, does not
    q = Quaternion(0.3, -1.0, 0.7, 2.0)
    for args in ((q, other), (other, q)):
        with pytest.raises(TypeError, match="unsupported operand type"):
            op(*args)


def test_noncommutativity_detected():
    a = Quaternion(1.0, 1.0, 0.0, 0.0)
    b = Quaternion(1.0, 0.0, 1.0, 0.0)
    assert a * b != b * a


def test_similarity_representative():
    q = Quaternion(1.0, 2.0, 0.0, -2.0)
    rep = q.similarity_representative()
    assert rep == complex(1.0, math.hypot(2.0, 0.0, -2.0))
    assert Quaternion(3.0, 0.0, 0.0, 0.0).similarity_representative() == 3.0 + 0.0j
    # conjugation by any unit quaternion lands in the same class
    u = Quaternion(0.5, 0.5, 0.5, 0.5)
    conj = u.inverse() * q * u
    assert abs(conj.similarity_representative() - rep) <= 1e-12


def test_constructors():
    assert Quaternion.from_real(2.0) == Quaternion(2.0, 0.0, 0.0, 0.0)
    assert Quaternion.from_complex(1 + 2j) == Quaternion(1.0, 2.0, 0.0, 0.0)
    assert Quaternion.from_components([1, 2, 3, 4]) == Quaternion(1.0, 2.0, 3.0, 4.0)
    assert list(Quaternion(1.0, 2.0, 3.0, 4.0).components()) == [1.0, 2.0, 3.0, 4.0]


def test_isclose_uses_relative_floor():
    big = Quaternion(1e9, 0.0, 0.0, 0.0)
    assert big.isclose(Quaternion(1e9 + 1e-5, 0.0, 0.0, 0.0), tol=1e-12)
    assert not big.isclose(Quaternion(1e9 + 1.0, 0.0, 0.0, 0.0), tol=1e-12)
