"""Scalar quaternion arithmetic.

A quaternion is w + x*i + y*j + z*k with real components and the
multiplication table i^2 = j^2 = k^2 = -1, ij = -ji = k, jk = -kj = i,
ki = -ik = j.  Values are frozen 4-tuples of floats; every operation
returns a new value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


@dataclass(frozen=True, slots=True)
class Quaternion:
    """w + x*i + y*j + z*k, component-wise float64."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", float(self.w))
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "z", float(self.z))

    @classmethod
    def from_real(cls, value: float) -> "Quaternion":
        return cls(float(value), 0.0, 0.0, 0.0)

    @classmethod
    def from_complex(cls, value: complex) -> "Quaternion":
        """Embed a complex number on the (1, i) plane."""
        value = complex(value)
        return cls(value.real, value.imag, 0.0, 0.0)

    @classmethod
    def from_components(cls, wxyz) -> "Quaternion":
        w, x, y, z = wxyz
        return cls(float(w), float(x), float(y), float(z))

    def components(self) -> list[float]:
        return [self.w, self.x, self.y, self.z]

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            a, b = self, other
            return Quaternion(
                a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
            )
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x * other,
                              self.y * other, self.z * other)
        return NotImplemented

    def __rmul__(self, other):
        # Real scalars are central, so r*q == q*r.
        if isinstance(other, (int, float)):
            return self * other
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return Quaternion(self.w / other, self.x / other,
                              self.y / other, self.z / other)
        return NotImplemented

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_squared(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        """Multiplicative inverse conjugate(q) / |q|^2; the zero quaternion has none."""
        if self.w == 0.0 and self.x == 0.0 and self.y == 0.0 and self.z == 0.0:
            raise DomainError("zero quaternion has no inverse")
        n2 = self.norm_squared()
        return Quaternion(self.w / n2, -self.x / n2, -self.y / n2, -self.z / n2)

    def similarity_representative(self) -> complex:
        """Canonical member of the similarity class of q.

        Two quaternions are similar iff they share real part and imaginary
        magnitude, so w + i*sqrt(x^2 + y^2 + z^2) represents the class.
        The representative always has nonnegative imaginary part.
        """
        return complex(self.w, math.hypot(self.x, self.y, self.z))

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        """Component-wise comparison at tol times max(1.0, |self|, |other|);
        the floor 1.0 keeps comparisons against exact zero meaningful."""
        bound = tol * max(1.0, self.norm(), other.norm())
        return (abs(self.w - other.w) <= bound and abs(self.x - other.x) <= bound
                and abs(self.y - other.y) <= bound and abs(self.z - other.z) <= bound)


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
