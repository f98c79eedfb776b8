"""Text interfaces: polynomial parsing, block files and canonical rendering.

Input files are sequences of blocks.  A block starts with a [name] line
and holds "key = value" lines; matrix rows repeat the key "row".  The
polynomial grammar over the variables u, t1..tr accepts integers, + - *
^ and parentheses; digits and names are ASCII.  All parse errors carry
a 1-based line and column.
"""

from __future__ import annotations

from .series import SeriesElem, _Kernel, _Layout


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col


# -- polynomial expressions -------------------------------------------------


def _tokenize(text, line=1, col=1):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's limit on digits
                raise ParseError("integer literal too long", line, col) from None
            tokens.append(("int", value, line, col))
            col += j - i
            i = j
            continue
        if ch.isascii() and ch.isalpha():
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "+-*^()":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(("end", None, line, col))
    return tokens


class _PolyParser:
    """Recursive descent over the token list, evaluating into a packed
    table of ring: by default the uncapped integer ring in u, t1..tr, or
    a frame's truncated ring, whose caps then apply to every step."""

    def __init__(self, tokens, r, ring=None):
        self.tokens = tokens
        self.pos = 0
        self.r = r
        self.ring = ring or _Kernel(_Layout(r, None), None, None, None, None)

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok[2], tok[3])

    def parse(self):
        tbl = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            self.fail("unexpected token %r" % str(tok[1]))
        return tbl

    def expr(self):
        ring = self.ring
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.take()[0] == "-" else 1
        tbl = ring.scal(self.term(), sign)
        while self.peek()[0] in "+-":
            op = self.take()[0]
            rhs = self.term()
            tbl = ring.sub(tbl, rhs) if op == "-" else ring.add(tbl, rhs)
        return tbl

    def term(self):
        tbl = self.factor()
        while self.peek()[0] == "*":
            tok = self.take()
            rhs = self.factor()
            try:
                tbl = self.ring.mul(tbl, rhs)
            except OverflowError:
                self.fail("product too large", tok)
        return tbl

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            tok = self.take()
            if tok[0] != "int":
                self.fail("exponent must be an integer", tok)
            if tok[1] >= 1 << 32:  # bounds the squaring steps of pow
                self.fail("exponent too large", tok)
            try:
                return self.ring.pow(base, tok[1])
            except OverflowError:
                self.fail("exponent too large", tok)
        return base

    def atom(self):
        tok = self.take()
        if tok[0] == "int":
            return self.ring.const(tok[1])
        if tok[0] == "-":
            return self.ring.neg(self.factor())
        if tok[0] == "(":
            tbl = self.expr()
            closing = self.take()
            if closing[0] != ")":
                self.fail("expected ')'", closing)
            return tbl
        if tok[0] == "name":
            key = [0] * (self.r + 1)
            if tok[1] == "u":
                key[-1] = 1
                return self.ring.clip({self.ring.layout.pack(key): 1})
            if tok[1].startswith("t") and tok[1][1:].isdigit():
                i = int(tok[1][1:])
                if 1 <= i <= self.r:
                    key[i - 1] = 1
                    return self.ring.clip({self.ring.layout.pack(key): 1})
                self.fail("variable %s out of range (r = %d)" % (tok[1], self.r), tok)
            self.fail("unknown variable %r" % tok[1], tok)
        self.fail("expected a polynomial atom", tok)


def parse_poly(text, r, line=1, col=1):
    """Parse an integer polynomial in u, t1..tr into a table keyed by
    exponent tuples (t1, .., tr, u); text starts at (line, col)."""
    if r < 0:  # keys hold r t-exponents before u; refused before parsing
        raise ValueError("r must be >= 0")
    parser = _PolyParser(_tokenize(text, line, col), r)
    return parser.ring.layout.unpack_table(parser.parse())


def parse_series(frame, text, line=1, col=1):
    """Packed table of text evaluated in the frame's truncated S ring,
    whose caps apply at every step (the same element as parsing, then
    truncating); text starts at (line, col)."""
    return _PolyParser(_tokenize(text, line, col), frame.r, frame.ring("S")).parse()


# -- canonical rendering ------------------------------------------------------


def render_table(tbl, layout):
    """Deterministic rendering of a packed table: graded lexicographic
    monomial order, least non-negative residues.

    Ascending total degree, and within a degree t1 > t2 > ... > u: the
    fields below the total t-degree hold (t1, .., tr, u) in lexicographic
    order, so one sort on (total degree, those fields descending) reads
    the keys as they are.
    """
    if not tbl:
        return "0"
    r, tw, tmax, um, ts = layout.r, layout.tw, layout.tmax, layout.umask, layout.ts
    low = (1 << ts) - 1
    terms = []
    for k in sorted(tbl, key=lambda k: (((k >> ts) + (k & um)) << ts) | (low ^ (k & low))):
        parts = []
        for i in range(r):
            x = (k >> (ts - (i + 1) * tw)) & tmax
            if x:
                parts.append("t%d" % (i + 1) if x == 1 else "t%d^%d" % (i + 1, x))
        j = k & um
        if j:
            parts.append("u" if j == 1 else "u^%d" % j)
        c = tbl[k]
        if not parts:
            terms.append(str(c))
        elif c == 1:
            terms.append("*".join(parts))
        else:
            terms.append("%d*%s" % (c, "*".join(parts)))
    return " + ".join(terms)


# -- block files --------------------------------------------------------------


class Block:
    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.entries = []  # (key, value-string, line, col-of-value)

    def get(self, key, default=None):
        for k, v, _, _ in self.entries:
            if k == key:
                return v
        return default

    def get_int(self, key, default=None):
        for k, v, line, col in self.entries:
            if k == key:
                try:
                    return int(v)
                except ValueError:
                    raise ParseError("%s must be an integer" % key, line, col) from None
        if default is None:
            raise ParseError("missing key %r" % key, self.line, 1)
        return default

    def rows(self):
        return [(v, line, col) for k, v, line, col in self.entries if k == "row"]


def parse_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ParseError("unterminated block header", lineno, len(line))
            current = Block(stripped[1:-1].strip(), lineno)
            blocks.append(current)
            continue
        if current is None:
            raise ParseError("content before any [block] header", lineno, 1)
        if "=" not in line:
            raise ParseError("expected 'key = value'", lineno, 1)
        key, value = line.split("=", 1)
        # column of the value's first character
        col = len(key) + 2 + len(value) - len(value.lstrip())
        current.entries.append((key.strip(), value.strip(), lineno, col))
    return blocks


def build_frame(block):
    from .series import Frame

    p, r, e, a, N, D, L = (block.get_int(key) for key in ("p", "r", "e", "a", "N", "D", "L"))
    etext = block.get("E")
    if etext is None:
        raise ParseError("missing key 'E'", block.line, 1)
    eline, ecol = next((line, col) for k, _, line, col in block.entries if k == "E")
    return Frame.make(p, r, e, a, N, D, L, parse_poly(etext, r, eline, ecol))


def parse_matrix_rows(frame, block):
    """Rows of series-ring elements, each cell parsed by parse_series."""
    rows = []
    width = None
    for text, line, col in block.rows():
        cells = text.split(",")
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ParseError("ragged matrix row", line, col)
        row = []
        for cell in cells:
            row.append(SeriesElem(frame, "S", parse_series(frame, cell, line, col)))
            col += len(cell) + 1  # the next cell starts past the comma
        rows.append(tuple(row))
    if not rows:
        raise ParseError("block %r has no rows" % block.name, block.line, 1)
    return tuple(rows)


def build_window(frame, block):
    from .windowcore import make_window

    level = block.get_int("a", frame.a)
    if level < 1:
        raise ValueError("window level must be at least 1")
    d = block.get_int("d")
    c = block.get_int("c")
    wframe = frame.at_level(level)
    rows = parse_matrix_rows(wframe, block)
    return make_window(wframe, d, c, rows)
