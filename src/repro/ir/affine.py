"""Affine expressions and maps.

Implements the subset of MLIR's affine machinery that AXI4MLIR relies on:

* ``affine_map<(m, n, k) -> (m, k)>`` — indexing maps on ``linalg.generic``
  (paper Fig. 2a) that select which loop indices address each operand;
* ``affine_map<(m, n, k) -> (m, k, n)>`` — the ``permutation_map`` trait
  attribute (paper Fig. 6a) that reorders the generated loop nest;
* ``map<(m, n, k) -> (4, 4, 4)>`` — the ``accel_dim`` trait attribute giving
  the accelerator tile size per dimension.

Expressions form a small AST (dim refs, constants, add/mul/mod/floordiv)
with structural equality, evaluation, and a recursive-descent parser.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, Sequence, Tuple


class AffineBinaryOpKind(str, Enum):
    """The closed set of binary operators, valued as they are spelled."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    MOD = "mod"
    FLOORDIV = "floordiv"


_APPLY = {
    AffineBinaryOpKind.ADD: operator.add,
    AffineBinaryOpKind.SUB: operator.sub,
    AffineBinaryOpKind.MUL: operator.mul,
    AffineBinaryOpKind.MOD: operator.mod,
    AffineBinaryOpKind.FLOORDIV: operator.floordiv,
}


class AffineExpr:
    """Base class of affine expression nodes; every walk is a
    :func:`fold_expr`."""

    def evaluate(self, dims: Sequence[int]) -> int:
        return fold_expr(self, dims.__getitem__, int,
                         lambda kind, lhs, rhs: _APPLY[kind](lhs, rhs))

    def used_dims(self) -> frozenset:
        return fold_expr(self, lambda position: frozenset({position}),
                         lambda value: frozenset(),
                         lambda kind, lhs, rhs: lhs | rhs)

    def format(self, dim_name: Callable[[int], str]) -> str:
        """The expression with dim ``p`` spelled ``dim_name(p)``."""
        return fold_expr(self, dim_name, str,
                         lambda kind, lhs, rhs: f"({lhs} {kind.value} {rhs})")

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineBinaryExpr("+", self, _as_expr(other))

    def __mul__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineBinaryExpr("*", self, _as_expr(other))

    def __str__(self) -> str:
        return self.format(lambda position: f"d{position}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _as_expr(value) -> "AffineExpr":
    if isinstance(value, AffineExpr):
        return value
    if isinstance(value, int):
        return AffineConstantExpr(value)
    raise TypeError(f"cannot convert {value!r} to an affine expression")


@dataclass(frozen=True)
class AffineDimExpr(AffineExpr):
    """A reference to the ``position``-th map dimension."""

    position: int


@dataclass(frozen=True)
class AffineConstantExpr(AffineExpr):
    value: int


@dataclass(frozen=True)
class AffineBinaryExpr(AffineExpr):
    kind: AffineBinaryOpKind
    lhs: AffineExpr
    rhs: AffineExpr

    def __post_init__(self) -> None:
        # A spelling outside the enum raises ValueError.
        object.__setattr__(self, "kind", AffineBinaryOpKind(self.kind))


def fold_expr(expr: AffineExpr, dim: Callable, constant: Callable,
              binary: Callable):
    """The one walker of an expression tree, bottom-up: a dim ref folds
    to ``dim(position)``, a constant to ``constant(value)`` and a binary
    node to ``binary(kind, lhs, rhs)`` of its operands' folds."""
    match expr:
        case AffineDimExpr(position):
            return dim(position)
        case AffineConstantExpr(value):
            return constant(value)
        case AffineBinaryExpr(kind, lhs, rhs):
            return binary(kind, fold_expr(lhs, dim, constant, binary),
                          fold_expr(rhs, dim, constant, binary))
    raise TypeError(f"unknown affine expression {expr!r}")


@dataclass(frozen=True)
class AffineMap:
    """``(d0, ..., dN-1) -> (expr0, ..., exprM-1)`` with optional dim names.

    ``dim_names`` preserves the user's spelling (``m, n, k``) for printing;
    it is cosmetic and does not affect equality of the underlying exprs.
    """

    num_dims: int
    results: Tuple[AffineExpr, ...]
    dim_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))
        object.__setattr__(self, "dim_names", tuple(self.dim_names))
        if self.dim_names and len(self.dim_names) != self.num_dims:
            raise ValueError("dim_names length must match num_dims")
        for expr in self.results:
            bad = [d for d in expr.used_dims() if d >= self.num_dims]
            if bad:
                raise ValueError(
                    f"expression {expr} references dims {bad} out of range "
                    f"for a {self.num_dims}-dim map"
                )

    # -- constructors ----------------------------------------------------
    @staticmethod
    def identity(num_dims: int, dim_names: Sequence[str] = ()) -> "AffineMap":
        return AffineMap(
            num_dims,
            tuple(AffineDimExpr(i) for i in range(num_dims)),
            tuple(dim_names),
        )

    @staticmethod
    def permutation(perm: Sequence[int], dim_names: Sequence[str] = ()) -> "AffineMap":
        if sorted(perm) != list(range(len(perm))):
            raise ValueError(f"{list(perm)} is not a permutation")
        return AffineMap(
            len(perm),
            tuple(AffineDimExpr(i) for i in perm),
            tuple(dim_names),
        )

    @staticmethod
    def constant(values: Sequence[int], num_dims: int,
                 dim_names: Sequence[str] = ()) -> "AffineMap":
        return AffineMap(
            num_dims,
            tuple(AffineConstantExpr(v) for v in values),
            tuple(dim_names),
        )

    # -- queries ----------------------------------------------------------
    @property
    def num_results(self) -> int:
        return len(self.results)

    def is_projected_permutation(self) -> bool:
        """True when every result is a distinct dim ref (like (m,n,k)->(m,k))."""
        seen = set()
        for expr in self.results:
            if not isinstance(expr, AffineDimExpr):
                return False
            if expr.position in seen:
                return False
            seen.add(expr.position)
        return True

    def is_permutation(self) -> bool:
        return (
            self.is_projected_permutation()
            and self.num_results == self.num_dims
        )

    def permutation_vector(self) -> Tuple[int, ...]:
        """The dim positions selected by each result, for permutation maps."""
        if not self.is_projected_permutation():
            raise ValueError(f"{self} is not a (projected) permutation")
        return tuple(expr.position for expr in self.results)  # type: ignore[union-attr]

    def evaluate(self, dims: Sequence[int]) -> Tuple[int, ...]:
        if len(dims) != self.num_dims:
            raise ValueError(
                f"map expects {self.num_dims} dims, got {len(dims)}"
            )
        return tuple(expr.evaluate(dims) for expr in self.results)

    def compose_permutation(self, other: "AffineMap") -> "AffineMap":
        """Apply ``other`` (a permutation) to this map's input space."""
        if not other.is_permutation():
            raise ValueError("compose_permutation requires a permutation map")
        perm = other.permutation_vector()
        remap: Dict[int, int] = {old: new for new, old in enumerate(perm)}

        names = tuple(other.dim_names[p] for p in perm) if other.dim_names else ()
        return AffineMap(
            self.num_dims,
            tuple(fold_expr(e, lambda p: AffineDimExpr(remap[p]),
                            AffineConstantExpr, AffineBinaryExpr)
                  for e in self.results),
            names or self.dim_names,
        )

    def __str__(self) -> str:
        names = self.dim_names or tuple(f"d{i}" for i in range(self.num_dims))
        dims = ", ".join(names)
        results = ", ".join(e.format(names.__getitem__) for e in self.results)
        return f"affine_map<({dims}) -> ({results})>"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class AffineParseError(ValueError):
    """Raised when an affine map string is malformed."""


class _Tokenizer:
    """Splits an affine expression body into identifier/number/symbol tokens."""

    SYMBOLS = ("->", "(", ")", ",", "+", "-", "*")

    def __init__(self, text: str):
        self.tokens: List[str] = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if text.startswith("->", i):
                self.tokens.append("->")
                i += 2
                continue
            if ch in "(),+-*":
                self.tokens.append(ch)
                i += 1
                continue
            if ch.isalpha() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(text[i:j])
                i = j
                continue
            if ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                self.tokens.append(text[i:j])
                i = j
                continue
            raise AffineParseError(f"unexpected character {ch!r} in {text!r}")
        self.pos = 0

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def next(self) -> str:
        token = self.peek()
        if not token:
            raise AffineParseError("unexpected end of affine map")
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        got = self.next()
        if got != token:
            raise AffineParseError(f"expected {token!r}, got {got!r}")


def parse_affine_map(text: str) -> AffineMap:
    """Parse ``affine_map<(m, n, k) -> (m, k)>`` or ``map<...>`` strings.

    Supports ``+``, ``-``, ``*``, ``mod``, ``floordiv`` with conventional
    precedence, integer literals, and named dimensions.
    """
    body = text.strip()
    for prefix in ("affine_map", "map"):
        if body.startswith(prefix):
            body = body[len(prefix):].strip()
            break
    if body.startswith("<") and body.endswith(">"):
        body = body[1:-1]

    tokens = _Tokenizer(body)
    tokens.expect("(")
    dim_names: List[str] = []
    if tokens.peek() != ")":
        while True:
            name = tokens.next()
            if not (name[0].isalpha() or name[0] == "_"):
                raise AffineParseError(f"bad dimension name {name!r}")
            dim_names.append(name)
            if tokens.peek() == ",":
                tokens.next()
                continue
            break
    tokens.expect(")")
    tokens.expect("->")
    tokens.expect("(")

    dim_index = {name: i for i, name in enumerate(dim_names)}
    if len(dim_index) != len(dim_names):
        raise AffineParseError(f"duplicate dimension names in {text!r}")

    def parse_primary() -> AffineExpr:
        token = tokens.next()
        if token == "(":
            expr = parse_add()
            tokens.expect(")")
            return expr
        if token == "-":
            inner = parse_primary()
            return AffineBinaryExpr("-", AffineConstantExpr(0), inner)
        if token.isdigit():
            return AffineConstantExpr(int(token))
        if token in dim_index:
            return AffineDimExpr(dim_index[token])
        raise AffineParseError(f"unknown identifier {token!r} in {text!r}")

    def parse_mul() -> AffineExpr:
        expr = parse_primary()
        while tokens.peek() in ("*", "mod", "floordiv"):
            op = tokens.next()
            expr = AffineBinaryExpr(op, expr, parse_primary())
        return expr

    def parse_add() -> AffineExpr:
        expr = parse_mul()
        while tokens.peek() in ("+", "-"):
            op = tokens.next()
            expr = AffineBinaryExpr(op, expr, parse_mul())
        return expr

    results: List[AffineExpr] = []
    if tokens.peek() != ")":
        while True:
            results.append(parse_add())
            if tokens.peek() == ",":
                tokens.next()
                continue
            break
    tokens.expect(")")
    if tokens.peek():
        raise AffineParseError(f"trailing tokens in {text!r}")

    return AffineMap(len(dim_names), tuple(results), tuple(dim_names))
