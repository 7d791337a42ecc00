"""Parser and attribute class for ``opcode_flow`` strings (paper Fig. 8).

Grammar::

    opcode_flow_entry ::= `opcode_flow` `<` flow_expr `>`
    flow_expr         ::= `(` flow_expr `)` | bare_id (` ` bare_id)*

In practice (paper Fig. 6a) groups and identifiers mix freely inside a
group — ``(sA (sBcCrC))`` — so a group's items are any interleaving of
opcode names and nested groups.  The parenthesization is "a proxy to
specify multiple scopes for sequential or nested for loops" (Sec. III-C):
a nested group lands in a deeper loop than its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Tuple, Union

from ..ir.attributes import Attribute
from .opcode_map import OpcodeMap, OpcodeSyntaxError


class FlowNode:
    """Base class of flow tree nodes."""


@dataclass(frozen=True)
class FlowOpcode(FlowNode):
    """A reference to an opcode defined in the accelerator's opcode_map."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FlowGroup(FlowNode):
    """A parenthesized scope: one loop level of communication logic."""

    items: Tuple[FlowNode, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))

    def __iter__(self) -> Iterator[FlowNode]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def opcode_names(self) -> List[str]:
        """All opcode names in this subtree, in textual order."""
        names: List[str] = []
        for item in self.items:
            if isinstance(item, FlowOpcode):
                names.append(item.name)
            else:
                names.extend(item.opcode_names())  # type: ignore[union-attr]
        return names

    def depth(self) -> int:
        """Height of the group tree (1 for a flat flow)."""
        nested = [i.depth() for i in self.items if isinstance(i, FlowGroup)]
        return 1 + (max(nested) if nested else 0)

    def __str__(self) -> str:
        return "(" + " ".join(str(i) for i in self.items) + ")"


@dataclass(frozen=True)
class OpcodeFlow:
    """A validated flow: the root group plus convenience queries."""

    root: FlowGroup

    def opcode_names(self) -> List[str]:
        return self.root.opcode_names()

    def depth(self) -> int:
        return self.root.depth()

    def validate_against(self, opcode_map: OpcodeMap) -> None:
        """Every referenced opcode must exist in the map."""
        missing = [n for n in self.opcode_names() if n not in opcode_map]
        if missing:
            raise OpcodeSyntaxError(
                f"opcode_flow references unknown opcodes {missing}; "
                f"known: {opcode_map.names()}"
            )

    def __str__(self) -> str:
        return f"opcode_flow < {self.root} >"


@dataclass(frozen=True)
class OpcodeFlowAttr(Attribute):
    """IR attribute wrapping an :class:`OpcodeFlow` (paper Fig. 6a L23)."""

    value: OpcodeFlow

    def __str__(self) -> str:
        return str(self.value)


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            tokens.append(ch)
            i += 1
            continue
        if ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise OpcodeSyntaxError(f"unexpected character {ch!r} in flow")
    return tokens


@lru_cache(maxsize=256)
def parse_opcode_flow(text: str) -> OpcodeFlow:
    """Parse an ``opcode_flow < ... >`` string into an :class:`OpcodeFlow`.

    Memoized on the text, like :func:`parse_opcode_map`: flows are
    frozen dataclasses over tuples.
    """
    body = text.strip()
    if body.startswith("opcode_flow"):
        body = body[len("opcode_flow"):].strip()
    if body.startswith("<") and body.endswith(">"):
        body = body[1:-1]

    tokens = _tokenize(body)
    if not tokens:
        raise OpcodeSyntaxError("empty opcode_flow")
    position = 0

    def parse_group() -> FlowGroup:
        nonlocal position
        items: List[Union[FlowOpcode, FlowGroup]] = []
        while position < len(tokens):
            token = tokens[position]
            if token == "(":
                position += 1
                items.append(parse_group())
            elif token == ")":
                position += 1
                return FlowGroup(tuple(items))
            else:
                position += 1
                items.append(FlowOpcode(token))
        raise OpcodeSyntaxError("unbalanced parentheses in opcode_flow")

    if tokens[0] == "(":
        position = 1
        root = parse_group()
        if position != len(tokens):
            # Multiple top-level groups / trailing ids: wrap them all.
            items: List[FlowNode] = [root]
            while position < len(tokens):
                token = tokens[position]
                if token == "(":
                    position += 1
                    items.append(parse_group())
                elif token == ")":
                    raise OpcodeSyntaxError("unbalanced ')' in opcode_flow")
                else:
                    position += 1
                    items.append(FlowOpcode(token))
            root = FlowGroup(tuple(items))
    else:
        # Bare identifier list without parentheses: one flat scope.
        if any(t in "()" for t in tokens):
            raise OpcodeSyntaxError(f"unbalanced parentheses in {text!r}")
        root = FlowGroup(tuple(FlowOpcode(t) for t in tokens))

    if not root.opcode_names():
        raise OpcodeSyntaxError("opcode_flow contains no opcodes")
    return OpcodeFlow(root)
