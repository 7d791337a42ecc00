"""Textual IR parsing: the inverse of :mod:`repro.ir.printer`.

A recursive-descent parser for the MLIR-flavoured syntax the printer
emits: modules, ``func.func`` definitions, ``scf.for`` loops, generic
operations (``"dialect.op"(%a, %b) {attrs} : (types) -> (types)``) with
nested regions and block arguments, the types of :mod:`repro.ir.types`,
and every attribute kind the printer can produce — including
``affine_map<...>``, ``opcode_map<...>`` and ``opcode_flow<...>``
composite attributes, which are delegated to their existing parsers.

The contract the test suite locks down is *print idempotence*::

    print(parse(print(m))) == print(m)

for every module the builders and passes can produce.  Parsing is
strict: SSA operands must be defined before use, operand types must
match the declared type clause, and op names must be registered by a
dialect module (see :func:`register_dialect_op`) unless
``allow_unregistered=True``.  Every constructed operation carries a
``location`` (``"<file>:<line>"``) so verifier diagnostics can point
back into the source text.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from .affine import parse_affine_map
from .attributes import (
    AffineMapAttr,
    ArrayAttr,
    Attribute,
    BoolAttr,
    DictAttr,
    FloatAttr,
    IntegerAttr,
    StringAttr,
    TypeAttr,
    unescape_string,
)
from .core import Block, IRError, Module, Operation, Region, Value
from .types import (
    DYNAMIC,
    INDEX,
    NONE,
    FloatType,
    FunctionType,
    IntegerType,
    MemRefType,
    Type,
)


class ParseError(IRError):
    """Raised on malformed textual IR, with ``file:line:col`` context."""

    def __init__(self, message: str, filename: str = "<mlir>",
                 line: int = 0, col: int = 0):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.filename = filename
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Dialect op registry
# ---------------------------------------------------------------------------

#: Fully qualified op name -> dialect namespace ("arith", "accel", ...).
_DIALECT_OPS: Dict[str, str] = {}


def register_dialect_op(name: str, dialect: Optional[str] = None) -> str:
    """Register an op name so the parser re-materializes it as known IR.

    Dialect modules call this at import time for every op they define;
    the parser rejects unregistered names (catching typos in fixtures)
    and the test suite enumerates the registry to guarantee golden-file
    coverage of every op.
    """
    _DIALECT_OPS[name] = dialect or name.split(".", 1)[0]
    return name


def registered_ops(dialect: Optional[str] = None) -> List[str]:
    """All registered op names, optionally filtered by dialect."""
    _ensure_dialects_loaded()
    return sorted(
        name for name, ns in _DIALECT_OPS.items()
        if dialect is None or ns == dialect
    )


def is_registered_op(name: str) -> bool:
    return name in _DIALECT_OPS


register_dialect_op("builtin.module", "builtin")

_DIALECTS_LOADED = False


def _ensure_dialects_loaded() -> None:
    """Import the dialect modules so their registration hooks have run."""
    global _DIALECTS_LOADED
    if _DIALECTS_LOADED:
        return
    from .. import dialects  # noqa: F401  (import for side effects)
    _DIALECTS_LOADED = True


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

#: Identifiers that open a balanced ``<...>`` composite token.
_COMPOSITE_HEADS = ("affine_map", "map", "opcode_map", "opcode_flow",
                    "memref")

_NUMBER_RE = re.compile(
    r"-?(?:0x[0-9a-fA-F]+|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
)
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_$.]*")
_NAME_RE = re.compile(r"[A-Za-z0-9_$.]+")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind      # ident ssa symbol caret string number punct
        self.text = text      # composite eof
        self.line = line
        self.col = col

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


def _scan_composite(text: str, start: int) -> int:
    """Return the index one past the ``>`` matching the ``<`` at ``start``.

    Skips ``->`` arrows and string literals so affine maps and quoted
    opcode names inside the body do not terminate the scan early.
    """
    depth = 0
    i = start
    while i < len(text):
        ch = text[i]
        if ch == '"':
            i += 1
            while i < len(text) and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
            continue
        if ch == "-" and i + 1 < len(text) and text[i + 1] == ">":
            i += 2
            continue
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return -1


def tokenize(text: str, filename: str = "<mlir>") -> List[Token]:
    tokens: List[Token] = []
    i = 0
    line = 1
    line_start = 0
    n = len(text)

    def advance_to(end: int) -> int:
        """Move past a token that may span newlines, keeping line counts."""
        nonlocal line, line_start
        newlines = text.count("\n", i, end)
        if newlines:
            line += newlines
            line_start = text.rfind("\n", i, end) + 1
        return end

    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if ch in " \t\r":
            i += 1
            continue
        col = i - line_start + 1
        if text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end == -1 else end
            continue
        if ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            if j >= n:
                raise ParseError("unterminated string literal",
                                 filename, line, col)
            tokens.append(Token("string", text[i + 1:j], line, col))
            i = advance_to(j + 1)
            continue
        if ch == "%" or ch == "@":
            match = _NAME_RE.match(text, i + 1)
            if not match:
                raise ParseError(f"dangling {ch!r}", filename, line, col)
            kind = "ssa" if ch == "%" else "symbol"
            tokens.append(Token(kind, match.group(0), line, col))
            i = match.end()
            continue
        if ch == "^":
            match = _NAME_RE.match(text, i + 1)
            if not match:
                raise ParseError("dangling '^'", filename, line, col)
            tokens.append(Token("caret", match.group(0), line, col))
            i = match.end()
            continue
        if ch == "-" and text.startswith("->", i):
            tokens.append(Token("punct", "->", line, col))
            i += 2
            continue
        number = _NUMBER_RE.match(text, i)
        if number and (ch.isdigit() or ch == "." or
                       (ch == "-" and number.end() > i + 1)):
            tokens.append(Token("number", number.group(0), line, col))
            i = number.end()
            continue
        ident = _IDENT_RE.match(text, i)
        if ident:
            word = ident.group(0)
            j = ident.end()
            if word in _COMPOSITE_HEADS:
                k = j
                while k < n and text[k] in " \t":
                    k += 1
                if k < n and text[k] == "<":
                    end = _scan_composite(text, k)
                    if end == -1:
                        raise ParseError(
                            f"unterminated {word}<...>", filename, line, col
                        )
                    tokens.append(
                        Token("composite", text[i:end], line, col)
                    )
                    i = advance_to(end)
                    continue
            tokens.append(Token("ident", word, line, col))
            i = j
            continue
        if ch in "(){}[]<>=,:-":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", filename, line, col)
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Scopes
# ---------------------------------------------------------------------------


class _Scope:
    """Lexically nested SSA name environment (one per function/region)."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, Value] = {}

    def define(self, name: str, value: Value) -> None:
        self.names[name] = value

    def lookup(self, name: str) -> Optional[Value]:
        scope: Optional[_Scope] = self
        while scope is not None:
            value = scope.names.get(name)
            if value is not None:
                return value
            scope = scope.parent
        return None


# ---------------------------------------------------------------------------
# Type parsing
# ---------------------------------------------------------------------------

_MEMREF_RE = re.compile(
    r"memref\s*<\s*(?P<dims>(?:(?:\d+|\?)x\s*)*)(?P<elem>[A-Za-z_][A-Za-z0-9_]*)"
    r"(?:\s*,\s*strided\s*<\s*\[(?P<strides>[^\]]*)\]\s*,\s*"
    r"offset\s*:\s*(?P<offset>\?|-?\d+)\s*>\s*)?\s*>$"
)


def _parse_dim(text: str) -> int:
    return DYNAMIC if text == "?" else int(text)


def _scalar_type(name: str) -> Optional[Type]:
    if name == "index":
        return INDEX
    if name == "none":
        return NONE
    if len(name) > 1 and name[1:].isdigit():
        if name[0] == "i":
            return IntegerType(int(name[1:]))
        if name[0] == "f":
            return FloatType(int(name[1:]))
    return None


def parse_memref_type(text: str, filename: str = "<mlir>",
                      line: int = 0, col: int = 0) -> MemRefType:
    match = _MEMREF_RE.match(text.strip())
    if not match:
        raise ParseError(f"malformed memref type {text!r}",
                         filename, line, col)
    dims = tuple(
        _parse_dim(d) for d in match.group("dims").replace(" ", "")[:-1].split("x")
    ) if match.group("dims") else ()
    element = _scalar_type(match.group("elem"))
    if element is None:
        raise ParseError(
            f"unknown element type {match.group('elem')!r} in {text!r}",
            filename, line, col,
        )
    strides = None
    offset = 0
    if match.group("strides") is not None:
        entries = [s.strip() for s in match.group("strides").split(",") if s.strip()]
        strides = tuple(_parse_dim(s) for s in entries)
        offset = _parse_dim(match.group("offset"))
        if len(strides) != len(dims):
            raise ParseError(
                f"strided layout rank mismatch in {text!r}",
                filename, line, col,
            )
    return MemRefType(dims, element, strides=strides, offset=offset)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class Parser:
    def __init__(self, text: str, filename: str = "<mlir>",
                 allow_unregistered: bool = False):
        self.filename = filename
        self.allow_unregistered = allow_unregistered
        self.tokens = tokenize(text, filename)
        self.pos = 0

    # -- token plumbing ---------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self.peek()
        return ParseError(message, self.filename, token.line, token.col)

    def expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self.next()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise self.error(
                f"expected {want!r}, got {token.text!r}", token
            )
        return token

    def accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind == kind and (text is None or token.text == text):
            return self.next()
        return None

    def location_of(self, token: Token) -> str:
        return f"{self.filename}:{token.line}"

    # -- entry points -----------------------------------------------------
    def parse_module(self) -> Module:
        _ensure_dialects_loaded()
        module = Module()
        scope = _Scope()
        if self.peek().kind == "ident" and self.peek().text == "module":
            self.next()
            self.expect("punct", "{")
            while not self.accept("punct", "}"):
                module.body.append(self.parse_operation(scope))
        else:
            while self.peek().kind != "eof":
                module.body.append(self.parse_operation(scope))
        self.expect("eof")
        return module

    # -- operations -------------------------------------------------------
    def parse_operation(self, scope: _Scope) -> Operation:
        token = self.peek()
        results: List[str] = []
        if token.kind == "ssa":
            while True:
                results.append(self.expect("ssa").text)
                if not self.accept("punct", ","):
                    break
            self.expect("punct", "=")
            token = self.peek()
        if token.kind == "string":
            return self.parse_generic_op(scope, results)
        if token.kind == "ident" and token.text == "func.func":
            if results:
                raise self.error("func.func cannot produce results", token)
            return self.parse_func(scope)
        if token.kind == "ident" and token.text == "scf.for":
            if results:
                raise self.error(
                    "scf.for with results is not supported", token
                )
            return self.parse_for(scope)
        raise self.error(f"expected an operation, got {token.text!r}", token)

    def _check_registered(self, name: str, token: Token) -> None:
        if not self.allow_unregistered and not is_registered_op(name):
            raise self.error(
                f"unregistered operation {name!r}; known dialects register "
                f"their ops via repro.ir.parser.register_dialect_op", token
            )

    def _resolve(self, token: Token, scope: _Scope) -> Value:
        value = scope.lookup(token.text)
        if value is None:
            raise self.error(f"use of undefined value %{token.text}", token)
        return value

    def parse_generic_op(self, scope: _Scope,
                         results: List[str]) -> Operation:
        name_token = self.expect("string")
        name = name_token.text
        self._check_registered(name, name_token)

        self.expect("punct", "(")
        operand_tokens: List[Token] = []
        if not self.accept("punct", ")"):
            while True:
                operand_tokens.append(self.expect("ssa"))
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        operands = [self._resolve(t, scope) for t in operand_tokens]

        attributes: Dict[str, Attribute] = {}
        if self.peek().kind == "punct" and self.peek().text == "{":
            attributes = self.parse_attr_dict()

        in_types: List[Type] = []
        out_types: List[Type] = []
        if self.accept("punct", ":"):
            in_types = self.parse_paren_type_list()
            if self.accept("punct", "->"):
                out_types = self.parse_paren_type_list()

        if len(in_types) != len(operands):
            raise self.error(
                f"{name}: {len(operands)} operands but {len(in_types)} "
                f"operand types", name_token,
            )
        for operand, declared, token in zip(operands, in_types,
                                            operand_tokens):
            if operand.type != declared:
                raise self.error(
                    f"{name}: operand %{token.text} has type "
                    f"{operand.type}, but the type clause says {declared}",
                    token,
                )
        if len(out_types) != len(results):
            raise self.error(
                f"{name}: {len(results)} result names but "
                f"{len(out_types)} result types", name_token,
            )

        op = Operation(name, operands=operands, result_types=out_types,
                       attributes=attributes)
        op.location = self.location_of(name_token)

        while (self.peek().kind == "punct" and self.peek().text == "(" and
               self.peek(1).kind == "punct" and self.peek(1).text == "{"):
            self.parse_region(op, scope)

        for result_name, result in zip(results, op.results):
            scope.define(result_name, result)
        return op

    def parse_region(self, op: Operation, scope: _Scope) -> Region:
        self.expect("punct", "(")
        self.expect("punct", "{")
        region = Region(op)
        op.regions.append(region)
        region_scope = _Scope(scope)

        def at_region_end() -> bool:
            return self.peek().kind == "punct" and self.peek().text == "}"

        if self.peek().kind != "caret" and not at_region_end():
            # Unlabeled entry block (printed without a header when it has
            # no arguments); labeled blocks may still follow it.
            block = region.add_block()
            while self.peek().kind != "caret" and not at_region_end():
                block.append(self.parse_operation(region_scope))
        while self.peek().kind == "caret":
            self.next()
            arg_names: List[str] = []
            arg_types: List[Type] = []
            if self.accept("punct", "("):
                if not self.accept("punct", ")"):
                    while True:
                        arg_names.append(self.expect("ssa").text)
                        self.expect("punct", ":")
                        arg_types.append(self.parse_type())
                        if not self.accept("punct", ","):
                            break
                    self.expect("punct", ")")
            self.expect("punct", ":")
            block = region.add_block(arg_types)
            for arg_name, argument in zip(arg_names, block.arguments):
                region_scope.define(arg_name, argument)
            while self.peek().kind != "caret" and not at_region_end():
                block.append(self.parse_operation(region_scope))
        if not region.blocks:
            region.add_block()
        self.expect("punct", "}")
        self.expect("punct", ")")
        return region

    def parse_func(self, scope: _Scope) -> Operation:
        token = self.expect("ident", "func.func")
        symbol = self.expect("symbol")
        self.expect("punct", "(")
        arg_names: List[str] = []
        arg_types: List[Type] = []
        if not self.accept("punct", ")"):
            while True:
                arg_names.append(self.expect("ssa").text)
                self.expect("punct", ":")
                arg_types.append(self.parse_type())
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        result_types: List[Type] = []
        if self.accept("punct", "->"):
            while True:
                result_types.append(self.parse_type())
                if not self.accept("punct", ","):
                    break
        func_op = Operation(
            "func.func",
            attributes={
                "sym_name": StringAttr(symbol.text),
                "function_type": TypeAttr(
                    FunctionType(tuple(arg_types), tuple(result_types))
                ),
            },
            regions=1,
        )
        func_op.location = self.location_of(token)
        block = func_op.regions[0].add_block(arg_types)
        func_scope = _Scope(scope)
        for arg_name, argument in zip(arg_names, block.arguments):
            func_scope.define(arg_name, argument)
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            block.append(self.parse_operation(func_scope))
        return func_op

    def parse_for(self, scope: _Scope) -> Operation:
        token = self.expect("ident", "scf.for")
        iv = self.expect("ssa")
        self.expect("punct", "=")
        lower = self._resolve(self.expect("ssa"), scope)
        self.expect("ident", "to")
        upper = self._resolve(self.expect("ssa"), scope)
        self.expect("ident", "step")
        step = self._resolve(self.expect("ssa"), scope)
        op = Operation("scf.for", operands=[lower, upper, step], regions=1)
        op.location = self.location_of(token)
        body = op.regions[0].add_block([INDEX])
        body_scope = _Scope(scope)
        body_scope.define(iv.text, body.arguments[0])
        self.expect("punct", "{")
        while not self.accept("punct", "}"):
            body.append(self.parse_operation(body_scope))
        if self.peek().kind == "punct" and self.peek().text == "{":
            op.attributes.update(self.parse_attr_dict())
        return op

    # -- types ------------------------------------------------------------
    def parse_paren_type_list(self) -> List[Type]:
        self.expect("punct", "(")
        types: List[Type] = []
        if not self.accept("punct", ")"):
            while True:
                types.append(self.parse_type())
                if not self.accept("punct", ","):
                    break
            self.expect("punct", ")")
        return types

    def parse_type(self) -> Type:
        token = self.peek()
        if token.kind == "composite" and token.text.startswith("memref"):
            self.next()
            return parse_memref_type(token.text, self.filename,
                                     token.line, token.col)
        if token.kind == "ident":
            scalar = _scalar_type(token.text)
            if scalar is not None:
                self.next()
                return scalar
            raise self.error(f"unknown type {token.text!r}", token)
        if token.kind == "punct" and token.text == "(":
            inputs = self.parse_paren_type_list()
            self.expect("punct", "->")
            if self.peek().kind == "punct" and self.peek().text == "(":
                outputs = self.parse_paren_type_list()
            else:
                outputs = [self.parse_type()]
            return FunctionType(tuple(inputs), tuple(outputs))
        raise self.error(f"expected a type, got {token.text!r}", token)

    # -- attributes -------------------------------------------------------
    def parse_attr_dict(self) -> Dict[str, Attribute]:
        self.expect("punct", "{")
        entries: Dict[str, Attribute] = {}
        if not self.accept("punct", "}"):
            while True:
                key_token = self.next()
                if key_token.kind not in ("ident", "string"):
                    raise self.error(
                        f"expected attribute name, got {key_token.text!r}",
                        key_token,
                    )
                key = (unescape_string(key_token.text)
                       if key_token.kind == "string" else key_token.text)
                self.expect("punct", "=")
                entries[key] = self.parse_attr_value()
                if not self.accept("punct", ","):
                    break
            self.expect("punct", "}")
        return entries

    def _number_attr(self, text: str,
                     token: Token) -> Tuple[bool, object]:
        """Return (is_float, value) for a number literal."""
        lowered = text.lower()
        if "x" in lowered:
            return False, int(text, 16)
        if "." in text or "e" in lowered:
            return True, float(text)
        return False, int(text)

    def parse_attr_value(self) -> Attribute:
        token = self.peek()
        if token.kind == "string":
            self.next()
            return StringAttr(unescape_string(token.text))
        if token.kind == "number":
            self.next()
            is_float, value = self._number_attr(token.text, token)
            attr_type = None
            if self.accept("punct", ":"):
                attr_type = self.parse_type()
            if is_float:
                return FloatAttr(value, attr_type)
            return IntegerAttr(value, attr_type)
        if token.kind == "punct" and token.text == "-":
            # Negative special floats: repr() spells them "-inf"/"-nan".
            self.next()
            word = self.expect("ident")
            if word.text in ("inf", "nan"):
                attr_type = None
                if self.accept("punct", ":"):
                    attr_type = self.parse_type()
                return FloatAttr(float("-" + word.text), attr_type)
            raise self.error(f"unexpected '-{word.text}'", word)
        if token.kind == "ident":
            if token.text == "true":
                self.next()
                return BoolAttr(True)
            if token.text == "false":
                self.next()
                return BoolAttr(False)
            if token.text in ("inf", "nan"):
                self.next()
                attr_type = None
                if self.accept("punct", ":"):
                    attr_type = self.parse_type()
                return FloatAttr(float(token.text), attr_type)
            scalar = _scalar_type(token.text)
            if scalar is not None:
                self.next()
                return TypeAttr(scalar)
            raise self.error(
                f"unexpected identifier {token.text!r} in attribute value",
                token,
            )
        if token.kind == "composite":
            self.next()
            head = token.text.split("<", 1)[0].strip()
            if head in ("affine_map", "map"):
                return AffineMapAttr(parse_affine_map(token.text))
            if head == "opcode_map":
                from ..opcodes import parse_opcode_map
                return _opcode_map_attr(parse_opcode_map(token.text))
            if head == "opcode_flow":
                from ..opcodes import parse_opcode_flow
                return _opcode_flow_attr(parse_opcode_flow(token.text))
            if head == "memref":
                return TypeAttr(
                    parse_memref_type(token.text, self.filename,
                                      token.line, token.col)
                )
            raise self.error(f"unknown composite attribute {head!r}", token)
        if token.kind == "punct" and token.text == "[":
            self.next()
            elements: List[Attribute] = []
            if not self.accept("punct", "]"):
                while True:
                    elements.append(self.parse_attr_value())
                    if not self.accept("punct", ","):
                        break
                self.expect("punct", "]")
            return ArrayAttr(tuple(elements))
        if token.kind == "punct" and token.text == "{":
            return DictAttr(tuple(self.parse_attr_dict().items()))
        if token.kind == "punct" and token.text == "(":
            return TypeAttr(self.parse_type())
        raise self.error(
            f"expected an attribute value, got {token.text!r}", token
        )


def _opcode_map_attr(value):
    from ..opcodes import OpcodeMapAttr
    return OpcodeMapAttr(value)


def _opcode_flow_attr(value):
    from ..opcodes import OpcodeFlowAttr
    return OpcodeFlowAttr(value)


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_module(text: str, filename: str = "<mlir>",
                 allow_unregistered: bool = False,
                 verify: bool = False) -> Module:
    """Parse a textual module (the output of :func:`print_module`).

    ``// line comments`` are skipped, so ``.mlir`` fixture files with
    ``// RUN:`` / ``// CHECK:`` directives parse as-is.  With
    ``verify=True`` the reconstructed module is run through the
    structural verifier before being returned.
    """
    module = Parser(text, filename=filename,
                    allow_unregistered=allow_unregistered).parse_module()
    if verify:
        from .verifier import verify as run_verifier
        run_verifier(module.op)
    return module


def parse_op(text: str, filename: str = "<mlir>",
             allow_unregistered: bool = False) -> Operation:
    """Parse a single top-level operation (e.g. one ``func.func``)."""
    parser = Parser(text, filename=filename,
                    allow_unregistered=allow_unregistered)
    _ensure_dialects_loaded()
    op = parser.parse_operation(_Scope())
    parser.expect("eof")
    return op


def roundtrip(module: Module) -> Module:
    """``parse(print(module))`` — used by round-trip tests."""
    from .printer import print_module
    return parse_module(print_module(module))
