"""Desk-scale bilinear Fourier multiplier used by the normal-form change of
variable, and machine-precision verification of its defining identity.

T(f, g) has output mode k given by

    sum over k1 + k2 = k, k2 != 0 of  -f_{k1} g_{k2} / (k1^2 + k^2 + k1 k)

for mean-zero g. The denominator never vanishes on the admissible set: it is
(3/4)k1^2 + (k1/2 + k)^2, zero only at k1 = k = 0, which forces k2 = 0. The
symbol makes the operator identity

    (dt + dxxx) T(f, g) = T((dt + dxxx) f, g) + T(f, dt g) + f dx g

exact mode by mode, since (ik)^3 - (ik1)^3 = -i k2 (k1^2 + k^2 + k1 k).

Test vehicles are finitely supported trigonometric polynomials with exact
exponential time dependence, so no numerical differentiation enters the
residual check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TrigPolynomial",
    "TimePolynomial",
    "MeanZeroViolation",
    "normal_form_T",
    "verify_identity",
    "smoothing_decay",
]

MEAN_ZERO_TOL = 0.0  # the mean must vanish exactly for T to be defined


class MeanZeroViolation(ValueError):
    """Second argument of T carries a nonzero mean."""


@dataclass(frozen=True)
class TrigPolynomial:
    """Finitely supported Fourier coefficients {mode k: complex coefficient}."""

    coeffs: dict = field(default_factory=dict)

    @staticmethod
    def mode(k: int, coefficient: complex = 1.0) -> "TrigPolynomial":
        return TrigPolynomial({int(k): complex(coefficient)})

    def __getitem__(self, k: int) -> complex:
        return self.coeffs.get(int(k), 0.0 + 0.0j)

    def __add__(self, other: "TrigPolynomial") -> "TrigPolynomial":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return TrigPolynomial(out)

    def scale(self, a: complex) -> "TrigPolynomial":
        return TrigPolynomial({k: a * c for k, c in self.coeffs.items()})

    def has_mean(self) -> bool:
        return abs(self.coeffs.get(0, 0.0)) > MEAN_ZERO_TOL

    def dx(self, order: int) -> "TrigPolynomial":
        return TrigPolynomial({k: (1j * k) ** order * c for k, c in self.coeffs.items()})

    def product(self, other: "TrigPolynomial") -> "TrigPolynomial":
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0.0) + c1 * c2
        return TrigPolynomial(out)

    def sup_coeff(self) -> float:
        return max((abs(c) for c in self.coeffs.values()), default=0.0)


def normal_form_T(f: TrigPolynomial, g: TrigPolynomial) -> TrigPolynomial:
    """The bilinear multiplier; direct double summation over supported modes."""
    if g.has_mean():
        raise MeanZeroViolation("second argument must be mean-zero")
    out: dict = {}
    for k1, c1 in f.coeffs.items():
        for k2, c2 in g.coeffs.items():
            if k2 == 0:
                continue  # excluded diagonal; only reachable with an exact-zero mean entry
            k = k1 + k2
            den = k1 * k1 + k * k + k1 * k
            out[k] = out.get(k, 0.0) + (-1.0 / den) * c1 * c2
    return TrigPolynomial(out)


@dataclass(frozen=True)
class TimePolynomial:
    """Finite sum of exp(i omega t) * TrigPolynomial terms with exact d/dt."""

    terms: tuple  # of (omega, TrigPolynomial)

    @staticmethod
    def of(*terms) -> "TimePolynomial":
        return TimePolynomial(tuple((float(w), p) for w, p in terms))

    def value(self, t: float) -> TrigPolynomial:
        out = TrigPolynomial()
        for w, p in self.terms:
            out = out + p.scale(np.exp(1j * w * t))
        return out

    def dt(self, t: float) -> TrigPolynomial:
        out = TrigPolynomial()
        for w, p in self.terms:
            out = out + p.scale(1j * w * np.exp(1j * w * t))
        return out


def verify_identity(f_path: TimePolynomial, g_path: TimePolynomial, t: float = 0.3) -> float:
    """Sup coefficient of (dt+dxxx)T(f,g) - T((dt+dxxx)f,g) - T(f,dt g) - f dx g at time t.

    d/dt passes through the bilinear T exactly, so the two time-derivative
    routes are evaluated term by term with the prescribed exponential factors.
    """
    f, g = f_path.value(t), g_path.value(t)
    ft, gt = f_path.dt(t), g_path.dt(t)
    if g.has_mean() or gt.has_mean():
        raise MeanZeroViolation("second argument must be mean-zero for all t")

    lhs = normal_form_T(ft, g) + normal_form_T(f, gt) + normal_form_T(f, g).dx(3)
    rhs = normal_form_T(ft + f.dx(3), g) + normal_form_T(f, gt) + f.product(g.dx(1))
    return (lhs + rhs.scale(-1.0)).sup_coeff()


def smoothing_decay(k1: int, k2_values) -> list:
    """|k2| * |T(e_{k1}, e_{k2})| for unit coefficients: the one-derivative gain.

    The raw output coefficient decays like |k2|^-2 as |k2| grows at fixed k1
    (the symbol denominator is ~k^2), so the listed product decays like
    |k2|^-1 relative to the product of the inputs.
    """
    out = []
    for k2 in k2_values:
        T = normal_form_T(TrigPolynomial.mode(k1), TrigPolynomial.mode(int(k2)))
        out.append(abs(k2) * T.sup_coeff())
    return out
