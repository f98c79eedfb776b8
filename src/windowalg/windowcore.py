"""The window value: (d, c, A) over a frame's level-a series ring.

Window and make_window are what a parsed [window] block becomes
(blocks.build_window); the algorithms on windows are in window, which
also exports both names.
"""

from __future__ import annotations

from . import matrices as mx
from .series import FrameMismatchError


class Window:
    def __init__(self, frame, d, c, A):
        self.frame = frame
        self.d = d
        self.c = c
        self.A = mx.mat(A)

    @property
    def level(self):
        return self.frame.a

    @property
    def height(self):
        return self.d + self.c

    def phi_matrix(self):
        return mx.cscale(self.A, [self.frame.E] * self.d + [None] * self.c)

    def at_level(self, a):
        return Window(
            self.frame.at_level(a),
            self.d,
            self.c,
            mx.mmap(self.A, lambda x: x.at_level(a)),
        )

    def __eq__(self, other):
        if not isinstance(other, Window):
            return NotImplemented
        return (
            self.frame == other.frame
            and self.d == other.d
            and self.c == other.c
            and mx.meq(self.A, other.A)
        )

    __hash__ = None

    def __repr__(self):
        return "Window(level=%d, d=%d, c=%d)" % (self.level, self.d, self.c)


def make_window(frame, d, c, A):
    """Window (d, c, A); A must be invertible over S, tested on constant terms."""
    A = mx.mat(A)
    n = d + c
    if d < 0 or c < 0 or n < 1:
        raise ValueError("window needs d, c >= 0 and d + c >= 1")
    if len(A) != n or any(len(row) != n for row in A):
        raise ValueError("matrix size does not match d + c")
    for row in A:
        for x in row:
            if x.frame != frame or x.tag != "S":
                raise FrameMismatchError("window entries must live in the frame's series ring")
    if not mx.det_is_unit(A, frame.p):
        raise ValueError("det(A) is not a unit")
    return Window(frame, d, c, A)
