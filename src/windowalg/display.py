"""The functor from windows to Dieudonne displays over R/p^aR.

A display is stored by its structural matrix B over the Witt vectors
of R/p^aR: B = kappa(A) with the c columns of the L-block multiplied
by the unit tau, so that the J-columns give F' and the L-columns give
F'_1 on the normal decomposition.
"""

from __future__ import annotations

from . import matrices as mx
from .witt import from_int, kappa, tau, wmul


class DDisplay:
    def __init__(self, frame, d, c, B, source=None):
        self.frame = frame
        self.d = d
        self.c = c
        self.B = mx.mat(B)
        self.source = source

    @property
    def level(self):
        return self.frame.a

    @property
    def witt_length(self):
        return self.frame.L

    def at_level(self, a):
        reduced = mx.mmap(
            self.B,
            lambda wv: type(wv)(
                "R", [comp.at_level(a) for comp in wv.comps], frame=self.frame.at_level(a)
            ),
        )
        src = self.source.at_level(a) if self.source is not None else None
        return DDisplay(self.frame.at_level(a), self.d, self.c, reduced, source=src)

    def __eq__(self, other):
        if not isinstance(other, DDisplay):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.d == other.d
            and self.c == other.c
            and mx.meq(self.B, other.B)
        )

    __hash__ = None

    def __repr__(self):
        return "DDisplay(level=%d, d=%d, c=%d, L=%d)" % (
            self.level,
            self.d,
            self.c,
            self.witt_length,
        )


def to_display(w):
    """B = kappa(A), with tau scaling the L-block columns (F'_1 = tau * F_1);
    tau is computed only when there is an L-block.  The L-block products
    read only the ghosts of their kappa-images, the J-block only components."""
    B = mx.mmap(w.A, kappa)
    if w.c:
        B = mx.cscale(B, [None] * w.d + [tau(w.frame)] * w.c)
    return DDisplay(w.frame, w.d, w.c, B, source=w)


def validate_display(D):
    """Report-style checks.

    Always: det(B) must be a unit, tested on the zeroth components
    (x -> x_0 is a ring map W(R) -> R, and x is a unit exactly when x_0
    is) through mx.det_is_unit.  When the display remembers its source
    window, F' = p*F'_1 is verified on the L-block generators: p times
    the stored L-column must equal kappa of sigma(E) times the window
    column, and the J-columns must be plain kappa-images.  A window
    entry is known mod p^N, so component n of either side of the
    L-column identity is compared mod p^min(a, N - n).
    """
    errors = []
    if not mx.det_is_unit(mx.mmap(D.B, lambda x: x.comps[0]), D.frame.p):
        errors.append("det(B) is not a unit")
    w = D.source
    if w is None:
        return errors
    if w.frame != D.frame:
        errors.append("source window frame mismatch")
        return errors
    n = w.height
    for j in range(w.d):
        if any(D.B[i][j] != kappa(w.A[i][j]) for i in range(n)):
            errors.append("J-column %d does not extend F" % (j + 1))
    if not w.c:
        return errors
    frame = D.frame
    sE = frame.E.frobenius()
    p_w = from_int(frame.p, frame.L, frame=frame, tag="R")
    moduli = [frame.p ** max(min(frame.a, frame.N - k), 0) for k in range(frame.L)]
    for j in range(w.d, n):
        for i in range(n):
            lhs = wmul(p_w, D.B[i][j]).comps
            rhs = kappa(sE * w.A[i][j]).comps
            if any(c % q for x, y, q in zip(lhs, rhs, moduli) for c in (x - y).packed.values()):
                errors.append("L-column %d violates F' = p*F'_1" % (j + 1))
                break
    return errors


def display_lie(D):
    """Lie rank of the display; matches the window-side cokernel rank."""
    return D.d
