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
    frame = target.frame
    p = frame.p
    const = det.constant_term()
    if const == 0:
        raise IsogenyError("det(U) is not unit * p^m at this precision")
    m = 0
    while const % p == 0:
        const //= p
        m += 1
    try:
        unit = det.divide_by_p(m)
    except PrecisionError:
        raise IsogenyError("det(U) is not p-power torsion") from None
    if not unit.is_unit():
        raise IsogenyError("det(U)/p^m failed the unit test")
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
    """Composite isogeny W'' -> W' -> W; p-lengths add."""
    if inner.target != outer.source:
        raise IsogenyError("isogenies are not composable")
    U = mx.mmul(outer.U, inner.U)
    return make_module(inner.source, outer.target, U)


def validate_breuil_module(module):
    """Report-style checks on the resolution presentation.

    Injectivity of the structural map is inherited from the windows
    (nonvanishing determinants at this precision), the short exact
    sequence holds by construction, and projective dimension one forces
    the two J-ranks to agree.  Windows of different heights (a
    hand-built module) are reported before any algebra.
    """
    if module.source.height != module.target.height:
        return ["window heights differ"]
    errors = []
    if mx.det(module.source.phi_matrix()).is_zero():
        errors.append("source structural determinant vanishes")
    if mx.det(module.target.phi_matrix()).is_zero():
        errors.append("target structural determinant vanishes")
    if module.source.d != module.target.d:
        errors.append("rank bookkeeping violated: d' != d")
    adj = mx.adjugate(module.U)
    det = mx.dot(module.U[0], [row[0] for row in adj])
    n = module.target.height
    prod = mx.mmul(adj, module.U)
    expect = mx.mscal(mx.identity(n, module.target.frame.one()), det)
    if not mx.meq(prod, expect):
        errors.append("adjugate identity failed")
    return errors
