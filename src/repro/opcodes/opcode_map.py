"""Parser and attribute class for ``opcode_map`` strings (paper Fig. 7).

Grammar::

    opcode_dict  ::= `opcode_map` `<` opcode_entry (`,` opcode_entry)* `>`
    opcode_entry ::= (bare_id | string_literal) `=` opcode_list
    opcode_list  ::= `[` opcode_expr (`,` opcode_expr)* `]`
    opcode_expr  ::= `send` `(` int `)`
                   | `send_literal` `(` int `)`
                   | `send_dim` `(` int `,` int `)`
                   | `send_idx` `(` bare_id `)`
                   | `recv` `(` int `)`

Integer literals accept decimal and ``0x`` hexadecimal.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple

from ..ir.attributes import Attribute
from .actions import Action, Recv, Send, SendDim, SendIdx, SendLiteral


class OpcodeSyntaxError(ValueError):
    """Raised on malformed opcode_map / opcode_flow strings."""


@dataclass(frozen=True)
class Opcode:
    """A named instruction: an identifier bound to a list of actions."""

    name: str
    actions: Tuple[Action, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "actions", tuple(self.actions))

    @property
    def sends(self) -> Tuple[Action, ...]:
        return tuple(a for a in self.actions if a.is_send)

    @property
    def recvs(self) -> Tuple[Recv, ...]:
        return tuple(a for a in self.actions if a.is_recv)

    def send_args(self) -> Tuple[int, ...]:
        """Operand indices whose tiles this opcode transmits."""
        return tuple(a.arg for a in self.actions if isinstance(a, Send))

    def recv_args(self) -> Tuple[int, ...]:
        """Operand indices whose tiles this opcode receives."""
        return tuple(a.arg for a in self.actions if isinstance(a, Recv))

    def referenced_args(self) -> Tuple[int, ...]:
        seen: List[int] = []
        for action in self.actions:
            if isinstance(action, (Send, Recv)) and action.arg not in seen:
                seen.append(action.arg)
            if isinstance(action, SendDim) and action.arg not in seen:
                seen.append(action.arg)
        return tuple(seen)

    def __str__(self) -> str:
        return f"{self.name} = [{', '.join(str(a) for a in self.actions)}]"


@dataclass(frozen=True)
class OpcodeMap:
    """The full opcode dictionary of one accelerator."""

    opcodes: Tuple[Opcode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "opcodes", tuple(self.opcodes))
        names = [o.name for o in self.opcodes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise OpcodeSyntaxError(
                f"duplicate opcode names: {sorted(duplicates)}"
            )

    def __contains__(self, name: str) -> bool:
        return any(o.name == name for o in self.opcodes)

    def __getitem__(self, name: str) -> Opcode:
        for opcode in self.opcodes:
            if opcode.name == name:
                return opcode
        raise KeyError(name)

    def __iter__(self) -> Iterator[Opcode]:
        return iter(self.opcodes)

    def __len__(self) -> int:
        return len(self.opcodes)

    def names(self) -> List[str]:
        return [o.name for o in self.opcodes]

    def __str__(self) -> str:
        body = ", ".join(str(o) for o in self.opcodes)
        return f"opcode_map < {body} >"


@dataclass(frozen=True)
class OpcodeMapAttr(Attribute):
    """IR attribute wrapping an :class:`OpcodeMap` (paper Fig. 6a L14)."""

    value: OpcodeMap

    def __str__(self) -> str:
        return str(self.value)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_ACTION_KEYWORDS = ("send_literal", "send_dim", "send_idx", "send", "recv")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if not self.text.startswith(char, self.pos):
            context = self.text[self.pos:self.pos + 12]
            raise OpcodeSyntaxError(
                f"expected {char!r} at position {self.pos} (near {context!r})"
            )
        self.pos += len(char)

    def accept(self, char: str) -> bool:
        self.skip_ws()
        if self.text.startswith(char, self.pos):
            self.pos += len(char)
            return True
        return False

    def identifier(self) -> str:
        self.skip_ws()
        if self.accept('"'):
            end = self.text.find('"', self.pos)
            if end < 0:
                raise OpcodeSyntaxError("unterminated string literal")
            word = self.text[self.pos:end]
            self.pos = end + 1
            return word
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            context = self.text[start:start + 12]
            raise OpcodeSyntaxError(
                f"expected identifier at position {start} (near {context!r})"
            )
        return self.text[start:self.pos]

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.text.startswith("0x", self.pos) or self.text.startswith("0X", self.pos):
            self.pos += 2
            while self.pos < len(self.text) and self.text[self.pos] in "0123456789abcdefABCDEF":
                self.pos += 1
            if self.pos == start + 2:
                raise OpcodeSyntaxError(f"bad hex literal at {start}")
            return int(self.text[start:self.pos], 16)
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise OpcodeSyntaxError(f"expected integer at position {start}")
        return int(self.text[start:self.pos])

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _parse_action(lexer: _Lexer) -> Action:
    keyword = lexer.identifier()
    if keyword not in _ACTION_KEYWORDS:
        raise OpcodeSyntaxError(f"unknown action {keyword!r}")
    lexer.expect("(")
    if keyword == "send_literal":
        action: Action = SendLiteral(lexer.integer())
    elif keyword == "send":
        action = Send(lexer.integer())
    elif keyword == "recv":
        action = Recv(lexer.integer())
    elif keyword == "send_dim":
        arg = lexer.integer()
        lexer.expect(",")
        action = SendDim(arg, lexer.integer())
    else:  # send_idx
        action = SendIdx(lexer.identifier())
    lexer.expect(")")
    return action


@lru_cache(maxsize=256)
def parse_opcode_map(text: str) -> OpcodeMap:
    """Parse an ``opcode_map < ... >`` string into an :class:`OpcodeMap`.

    Memoized on the text: the catalog re-parses the same few constant
    strings for every system it builds, and the result is immutable all
    the way down (frozen dataclasses over tuples), so sharing it is safe.
    """
    lexer = _Lexer(text.strip())
    if lexer.text.startswith("opcode_map"):
        lexer.pos += len("opcode_map")
        lexer.expect("<")
        closing = lexer.text.rstrip()
        if not closing.endswith(">"):
            raise OpcodeSyntaxError("opcode_map must end with '>'")
        lexer.text = closing[:-1]

    opcodes: List[Opcode] = []
    while True:
        name = lexer.identifier()
        lexer.expect("=")
        lexer.expect("[")
        actions: List[Action] = [_parse_action(lexer)]
        while lexer.accept(","):
            actions.append(_parse_action(lexer))
        lexer.expect("]")
        opcodes.append(Opcode(name, tuple(actions)))
        if not lexer.accept(","):
            break
    if not lexer.at_end():
        raise OpcodeSyntaxError(
            f"trailing input at position {lexer.pos}: "
            f"{lexer.text[lexer.pos:lexer.pos + 20]!r}"
        )
    return OpcodeMap(tuple(opcodes))
