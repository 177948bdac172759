"""Object language for conditional obligation: AST, parser, printer, expansion.

The language has atoms, metavariables (written ``?x``, placeholders for axiom
schemata), the Boolean connectives, a global necessity modality ``[]``, dyadic
obligation ``O(psi / phi)`` ("psi is obligatory, given phi") and permission
``P(psi / phi)``, and preference comparisons between formulas (``>=``, ``>``)
defined from permission and obligation in the usual way.

Core constructors are Atom, MetaVar, Top, Not, Or, Box and Oblig; everything
else is definable and :func:`expand` rewrites a formula into core form.

Concrete syntax (whitespace-insensitive)::

    formula  := pref
    pref     := iff ( (">=" | ">") iff )?      # non-associative
    iff      := impl ("<->" impl)*             # right-associative
    impl     := or ("->" or)*                  # right-associative
    or       := and ("|" and)*
    and      := unary ("&" unary)*
    unary    := "~" unary | "[]" unary | "<>" unary | atomlike
    atomlike := "T" | "F" | IDENT | "?" IDENT
              | "O(" formula "/" formula ")" | "P(" formula "/" formula ")"
              | "(" formula ")"

``T`` and ``F`` are the constant true and false and cannot be used as atom
names.  ``O`` and ``P`` act as operators only when followed by ``(``.
Nesting deeper than MAX_DEPTH, in parentheses and operators or in levels of
the syntax tree, is a ParseError: the code that walks a formula recurses.
``too_deep`` measures a tree built from the constructors the same way, and
``finder.SearchSpec`` rejects such a target.
"""

from __future__ import annotations

import re
from typing import Iterator


class Record:
    """Immutable value with named fields: the base of the formula nodes and
    of finder's implication results.

    A subclass declares only its field names, ``__slots__ = _fields =
    (...)``; it is built from the field values, by position or by name.  Two
    records are equal when they are of the same class and their fields are
    equal; a record hashes as the tuple of its fields, and its repr names
    the fields, as in ``Not(child=Atom(name='q'))``.  The methods are
    written out once here rather than generated for each class at import
    time, which cost every CLI call about 30 ms.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:
            try:
                args += tuple(kwargs.pop(name) for name in fields[len(args):])
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__}() is missing field {missing}") from None
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {fields}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Formula(Record):
    """Base class for formula AST nodes.  Instances are immutable."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


class Atom(Formula):
    __slots__ = _fields = ("name",)


class MetaVar(Formula):
    __slots__ = _fields = ("name",)


class Top(Formula):
    __slots__ = _fields = ()


class Bot(Formula):
    __slots__ = _fields = ()


class Not(Formula):
    __slots__ = _fields = ("child",)


class Or(Formula):
    __slots__ = _fields = ("left", "right")


class And(Formula):
    __slots__ = _fields = ("left", "right")


class Implies(Formula):
    __slots__ = _fields = ("left", "right")


class Iff(Formula):
    __slots__ = _fields = ("left", "right")


class Box(Formula):
    __slots__ = _fields = ("child",)


class Diamond(Formula):
    __slots__ = _fields = ("child",)


class Oblig(Formula):
    """O(consequent / antecedent): consequent obligatory given antecedent."""

    __slots__ = _fields = ("consequent", "antecedent")


class Perm(Formula):
    """P(consequent / antecedent), short for ~O(~consequent / antecedent)."""

    __slots__ = _fields = ("consequent", "antecedent")


class PrefGeq(Formula):
    """left >= right: left is at least as good as right, P(l / l|r)."""

    __slots__ = _fields = ("left", "right")


class PrefGt(Formula):
    """left > right: P(l / l|r) & O(~r / l|r)."""

    __slots__ = _fields = ("left", "right")


TOP = Top()
BOT = Bot()


# ---------------------------------------------------------------------------
# Parsing

MAX_DEPTH = 100  # see the module docstring
_PREFIX = {"neg": Not, "box": Box, "dia": Diamond}  # prefix operator per token kind


class ParseError(ValueError):
    """Syntax error in the concrete formula syntax, with source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<iff><->) | (?P<impl>->) | (?P<geq>>=) | (?P<gt>>)
      | (?P<box>\[\]) | (?P<dia><>)
      | (?P<neg>~) | (?P<and>&) | (?P<or>\|)
      | (?P<lpar>\() | (?P<rpar>\)) | (?P<slash>/)
      | (?P<meta>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    )""",
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> tuple[str, str, int]:
        if self.i >= len(self.tokens):
            raise ParseError("unexpected end of input", len(self.text))
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        if self.peek() != kind:
            pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
            found = self.tokens[self.i][1] if self.i < len(self.tokens) else "end of input"
            raise ParseError(f"expected {what}, found {found!r}", pos)
        return self.next()

    def nested(self, parse_next) -> Formula:  # every recursion of the parser goes through here
        if self.depth == MAX_DEPTH:
            raise ParseError(f"formula nested more than {MAX_DEPTH} levels deep", self.tokens[self.i - 1][2])
        self.depth += 1
        f = parse_next()
        self.depth -= 1
        return f

    def parse(self) -> Formula:
        f = self.pref()
        if self.i < len(self.tokens):
            kind, value, pos = self.tokens[self.i]
            raise ParseError(f"unexpected trailing input {value!r}", pos)
        return f

    def pref(self) -> Formula:
        left = self.iff()
        kind = self.peek()
        if kind in ("geq", "gt"):
            self.next()
            right = self.iff()
            if self.peek() in ("geq", "gt"):
                _, _, pos = self.tokens[self.i]
                raise ParseError("preference comparisons do not chain; parenthesize", pos)
            return PrefGeq(left, right) if kind == "geq" else PrefGt(left, right)
        return left

    def iff(self) -> Formula:
        left = self.impl()
        if self.peek() == "iff":
            self.next()
            return Iff(left, self.nested(self.iff))
        return left

    def impl(self) -> Formula:
        left = self.disj()
        if self.peek() == "impl":
            self.next()
            return Implies(left, self.nested(self.impl))
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.peek() == "or":
            self.next()
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.peek() == "and":
            self.next()
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        prefix = _PREFIX.get(self.peek())
        if prefix is None:
            return self.atomlike()
        self.next()
        return prefix(self.nested(self.unary))

    def atomlike(self) -> Formula:
        kind, value, pos = self.next()
        if kind == "lpar":
            f = self.nested(self.pref)
            self.expect("rpar", "')'")
            return f
        if kind == "meta":
            return MetaVar(value[1:])
        if kind == "ident":
            if value == "T":
                return TOP
            if value == "F":
                return BOT
            if value in ("O", "P") and self.peek() == "lpar":
                self.next()
                consequent = self.nested(self.pref)
                self.expect("slash", "'/'")
                antecedent = self.nested(self.pref)
                self.expect("rpar", "')'")
                ctor = Oblig if value == "O" else Perm
                return ctor(consequent, antecedent)
            return Atom(value)
        raise ParseError(f"expected a formula, found {value!r}", pos)


def parse(text: str) -> Formula:
    """Parse concrete syntax into a Formula AST (ParseError past MAX_DEPTH)."""
    f = _Parser(text).parse()
    if too_deep(f):
        raise ParseError(f"formula nested more than {MAX_DEPTH} levels deep", 0)
    return f


def too_deep(f: Formula) -> bool:
    """Whether the syntax tree of f has more than MAX_DEPTH levels.  The walk
    goes level by level, with no recursion, stops past MAX_DEPTH and visits
    a node shared by several parents once per level."""
    level, depth = [f], 0
    while level and depth <= MAX_DEPTH:
        level = list({id(c): c for g in level for c in g._values() if isinstance(c, Formula)}.values())
        depth += 1
    return depth > MAX_DEPTH


# ---------------------------------------------------------------------------
# Printing

_PREF, _IFF, _IMPL, _OR, _AND, _UNARY, _ATOM = range(1, 8)


def _render(f: Formula) -> tuple[str, int]:
    if isinstance(f, Atom):
        return f.name, _ATOM
    if isinstance(f, MetaVar):
        return "?" + f.name, _ATOM
    if isinstance(f, Top):
        return "T", _ATOM
    if isinstance(f, Bot):
        return "F", _ATOM
    if isinstance(f, Not):
        return "~" + _wrap(f.child, _UNARY), _UNARY
    if isinstance(f, Box):
        return "[]" + _wrap(f.child, _UNARY), _UNARY
    if isinstance(f, Diamond):
        return "<>" + _wrap(f.child, _UNARY), _UNARY
    if isinstance(f, And):
        return f"{_wrap(f.left, _AND)} & {_wrap(f.right, _AND + 1)}", _AND
    if isinstance(f, Or):
        return f"{_wrap(f.left, _OR)} | {_wrap(f.right, _OR + 1)}", _OR
    if isinstance(f, Implies):
        return f"{_wrap(f.left, _IMPL + 1)} -> {_wrap(f.right, _IMPL)}", _IMPL
    if isinstance(f, Iff):
        return f"{_wrap(f.left, _IFF + 1)} <-> {_wrap(f.right, _IFF)}", _IFF
    if isinstance(f, Oblig):
        return f"O({render(f.consequent)} / {render(f.antecedent)})", _ATOM
    if isinstance(f, Perm):
        return f"P({render(f.consequent)} / {render(f.antecedent)})", _ATOM
    if isinstance(f, PrefGeq):
        return f"{_wrap(f.left, _IFF)} >= {_wrap(f.right, _IFF)}", _PREF
    if isinstance(f, PrefGt):
        return f"{_wrap(f.left, _IFF)} > {_wrap(f.right, _IFF)}", _PREF
    raise TypeError(f"not a formula: {f!r}")


def _wrap(f: Formula, min_level: int) -> str:
    text, level = _render(f)
    return text if level >= min_level else f"({text})"


def render(f: Formula) -> str:
    """Print a formula so that parse(render(f)) == f."""
    return _render(f)[0]


# ---------------------------------------------------------------------------
# Expansion into core constructors and variable collection


def expand(f: Formula) -> Formula:
    """Rewrite into the core fragment {Atom, MetaVar, Top, Not, Or, Box, Oblig}.

    The result is semantically equivalent under every evaluation rule, and
    expand is idempotent.
    """
    if isinstance(f, (Atom, MetaVar, Top)):
        return f
    if isinstance(f, Bot):
        return Not(TOP)
    if isinstance(f, Not):
        return Not(expand(f.child))
    if isinstance(f, Or):
        return Or(expand(f.left), expand(f.right))
    if isinstance(f, And):
        return _and(expand(f.left), expand(f.right))
    if isinstance(f, Implies):
        return Or(Not(expand(f.left)), expand(f.right))
    if isinstance(f, Iff):
        left, right = expand(f.left), expand(f.right)
        return _and(Or(Not(left), right), Or(Not(right), left))
    if isinstance(f, Box):
        return Box(expand(f.child))
    if isinstance(f, Diamond):
        return Not(Box(Not(expand(f.child))))
    if isinstance(f, Oblig):
        return Oblig(expand(f.consequent), expand(f.antecedent))
    if isinstance(f, Perm):
        return Not(Oblig(Not(expand(f.consequent)), expand(f.antecedent)))
    if isinstance(f, PrefGeq):
        left, right = expand(f.left), expand(f.right)
        return _pref_geq_core(left, right)
    if isinstance(f, PrefGt):
        left, right = expand(f.left), expand(f.right)
        return _and(_pref_geq_core(left, right), Oblig(Not(right), Or(left, right)))
    raise TypeError(f"not a formula: {f!r}")


def _and(left: Formula, right: Formula) -> Formula:
    return Not(Or(Not(left), Not(right)))


def _pref_geq_core(left: Formula, right: Formula) -> Formula:
    # P(left / left|right) in core form
    return Not(Oblig(Not(left), Or(left, right)))


def subformulas(f: Formula) -> Iterator[Formula]:
    """f and every node below it, each node before its operands (left
    before right, consequent before antecedent).  The one place that knows
    which fields of which node hold subformulas; a non-formula anywhere in
    f raises TypeError."""
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Not, Box, Diamond)):
            stack.append(g.child)
        elif isinstance(g, (Or, And, Implies, Iff, PrefGeq, PrefGt)):
            stack += (g.right, g.left)
        elif isinstance(g, (Oblig, Perm)):
            stack += (g.antecedent, g.consequent)
        elif not isinstance(g, (Atom, MetaVar, Top, Bot)):
            raise TypeError(f"not a formula: {g!r}")
        yield g


def metavars(f: Formula) -> frozenset[str]:
    """Names of the metavariables occurring in f."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, MetaVar))


def atoms(f: Formula) -> frozenset[str]:
    """Names of the atoms occurring in f."""
    return frozenset(g.name for g in subformulas(f) if isinstance(g, Atom))
