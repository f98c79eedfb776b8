"""Breuil modules presented as cokernels of window isogenies.

An isogeny module is a window morphism U whose determinant is a unit
times p^m; the cokernel of U is then annihilated by p^m (adjugate
argument) and m is the p-length of the module.
"""

from __future__ import annotations

from . import matrices as mx
from .series import PrecisionError
from .window import WindowMorphism


class IsogenyError(ValueError):
    """The supplied data does not present an isogeny of windows."""


class IsogenyModule:
    """The cokernel of a window isogeny U: W' -> W with det(U) = p^m * det_unit.

    p^m * det_unit equals det(U) exactly, but det_unit itself is known
    only mod p^(N-m): on Frame.make(3, 1, 1, 3, 4, 3, 2, "u + 3") the
    1x1 U = (3*121) gives m = 1 and det_unit = 13, which is 121 mod 27.
    """

    def __init__(self, source, target, U, m, unit):
        self.source = source
        self.target = target
        self.U = U
        self.m = m
        self.det_unit = unit

    @property
    def frame(self):
        return self.target.frame

    def __repr__(self):
        return "IsogenyModule(m=%d, height=%d)" % (self.m, self.target.height)


def make_module(source, target, U):
    """Validate (W', W, U) and compute the p-exponent m of det(U)."""
    if source.height != target.height:
        raise IsogenyError("window heights differ")
    morph = WindowMorphism(source, target, U)
    if not morph.holds():
        raise IsogenyError("U is not a window morphism")
    det = mx.det(morph.U)
    if det.is_zero():
        raise IsogenyError("det(U) vanishes at this precision")
    p = target.frame.p
    const = det.constant_term()
    if const == 0:
        raise IsogenyError("det(U) is not unit * p^m at this precision")
    m = 0
    while const % p == 0:
        const //= p
        m += 1
    # the constant term of det/p^m is const, prime to p: a unit
    try:
        unit = det.divide_by_p(m)
    except PrecisionError:
        raise IsogenyError("det(U) is not p-power torsion") from None
    return IsogenyModule(source, target, morph.U, m, unit)


def p_length(module):
    """Length of the cokernel localized at (p): ord_p(det U)."""
    return module.m


def group_order(module):
    """Order p^m of the corresponding finite group scheme."""
    return module.frame.p**module.m


def order_string(module):
    return "%d^%d" % (module.frame.p, module.m)


def compose(outer, inner):
    """Composite isogeny W'' -> W' -> W: det(U1*U2) = p^(m1+m2) * u1*u2, so
    p-lengths add and the units multiply; no determinant is expanded."""
    if inner.target != outer.source:
        raise IsogenyError("isogenies are not composable")
    m = outer.m + inner.m
    if m >= outer.frame.N:
        raise IsogenyError("det(U) vanishes at this precision")
    U = mx.mmul(outer.U, inner.U)
    return IsogenyModule(inner.source, outer.target, U, m, outer.det_unit * inner.det_unit)


def validate_breuil_module(module):
    """Report-style checks that a module, built by hand or not, is what
    make_module would build; [] when it is.

    Windows of different heights or frames, and a U of the wrong shape,
    are reported before any algebra, with WindowMorphism's texts.  Then
    make_module runs again on (source, target, U): its refusal is one
    line, and otherwise m and p^m * det_unit (exact, unlike det_unit
    alone) must agree with the fresh ones.  Each window needs det(A) a
    unit and E^d != 0, which makes its structural map
    det(phi) = det(A) * E^d injective at this precision; projective
    dimension one forces the two J-ranks d' and d to agree.
    """
    source, target = module.source, module.target
    if source.height != target.height:
        return ["window heights differ"]
    try:
        WindowMorphism(source, target, module.U)  # the frames and the shape of U, no algebra
    except ValueError as exc:  # FrameMismatchError is one
        return [str(exc)]
    errors = []
    try:
        fresh = make_module(source, target, module.U)
    except IsogenyError as exc:
        errors.append(str(exc))
    else:
        p = target.frame.p
        if fresh.m != module.m:
            errors.append("m = %s, but ord_p det(U) = %d" % (module.m, fresh.m))
        if fresh.det_unit * p**fresh.m != module.det_unit * p**module.m:
            errors.append("det(U) != p^m * det_unit")
    for name, w in (("source", source), ("target", target)):
        if not mx.det_is_unit(w.A, w.frame.p):
            errors.append(name + " det(A) is not a unit")
        if (w.frame.E**w.d).is_zero():
            errors.append(name + " structural determinant vanishes")
    if source.d != target.d:
        errors.append("rank bookkeeping violated: d' != d")
    return errors
