"""A small HTML document model, serializer, scanner and parser.

The Tags Path machinery (Sect. 3.3) needs to treat pages as tag trees:
the add-on walks the rendered document bottom-up to record the path to
the selected price element, and the Measurement server replays that
walk on pages fetched by proxies to extract the price.  Stores build
:class:`Element` trees and serialize them; :func:`scan` reads the HTML
text back as a validated stream of open/close/text events and
:func:`parse` builds the tree from it — so parser and serializer must
round-trip.  The Measurement server consumes the events directly and
builds no tree.

The model is deliberately minimal (no entities, no comments inside
content, no CDATA) because the simulated stores only emit what it
supports; the scanner is still strict about structure because remote
pages differ between fetches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Union

#: Tags that never take children or a closing tag.
VOID_TAGS = frozenset({"img", "br", "meta", "link", "input", "hr"})

Node = Union["Element", str]


class HTMLParseError(ValueError):
    """Raised when a document cannot be parsed into a tag tree."""


@dataclass
class Element:
    """One HTML element: a tag, its attributes, and child nodes."""

    tag: str
    attrs: Dict[str, str] = field(default_factory=dict)
    children: List[Node] = field(default_factory=list)

    # -- construction helpers -------------------------------------------
    def append(self, child: Node) -> "Element":
        self.children.append(child)
        return self

    def extend(self, children: List[Node]) -> "Element":
        self.children.extend(children)
        return self

    # -- queries ----------------------------------------------------------
    @property
    def classes(self) -> List[str]:
        return self.attrs.get("class", "").split()

    def has_class(self, name: str) -> bool:
        return name in self.classes

    def text(self) -> str:
        """Concatenated text of this subtree."""
        return text_of(self)

    def signature(self) -> str:
        """A layout-identity string: tag plus class attribute.

        Two elements with the same signature play the same structural
        role across page variants; this is what Tags Path entries match
        on.
        """
        return signature(self.tag, self.attrs.get("class", ""))


def signature(tag: str, cls: str) -> str:
    """:meth:`Element.signature` from a tag name and class attribute."""
    return f"{tag}.{cls}" if cls else tag


def _render_attrs(attrs: Dict[str, str]) -> str:
    if not attrs:
        return ""
    parts = [f'{key}="{value}"' for key, value in attrs.items()]
    return " " + " ".join(parts)


def render(node: Node, indent: int = 0) -> str:
    """Serialize a node tree to HTML text (with doctype at the root)."""
    text = _render_node(node, indent)
    if isinstance(node, Element) and node.tag == "html" and indent == 0:
        return "<!DOCTYPE html>\n" + text
    return text


def _render_node(node: Node, indent: int) -> str:
    pad = "  " * indent
    if isinstance(node, str):
        return f"{pad}{node}"
    open_tag = f"{pad}<{node.tag}{_render_attrs(node.attrs)}>"
    if node.tag in VOID_TAGS:
        return open_tag
    if not node.children:
        return f"{open_tag}</{node.tag}>"
    if len(node.children) == 1 and isinstance(node.children[0], str):
        return f"{open_tag}{node.children[0]}</{node.tag}>"
    inner = "\n".join(_render_node(child, indent + 1) for child in node.children)
    return f"{open_tag}\n{inner}\n{pad}</{node.tag}>"


#: ``scan`` event kinds
OPEN, CLOSE, TEXT = 0, 1, 2

#: One token per match.  The leading ``\s*`` absorbs whitespace runs, so
#: indentation between tags never surfaces as a text token.  Groups: 1
#: text (first and last character non-space), 2-4 a tag (closing slash,
#: name, everything up to ``>``), 5 a doctype or comment, 6 any other
#: ``<...>`` token (malformed).  A ``<`` with no ``>`` after it matches
#: alone and is dropped; so is trailing whitespace.  The tag's tail is
#: matched greedily and split into attributes and a self-closing slash
#: in :func:`scan`: a lazy attribute group makes the whole scan three
#: times slower.
_SCAN_RE = re.compile(
    r"\s*(?:([^<\s](?:[^<]*[^<\s])?)"
    r"|<\s*(/)?\s*([a-zA-Z][a-zA-Z0-9-]*)([^>]*)>"
    r"|<(?:(!)[^>]*>|([^>]*)>)?)?"
)
_ATTR_RE = re.compile(r'([a-zA-Z][a-zA-Z0-9_:-]*)\s*=\s*"([^"]*)"')


def parse_attrs(attr_text: str) -> Dict[str, str]:
    """The attributes of an OPEN event's raw attribute text.

    Only double-quoted values count; a repeated name keeps its last
    value.
    """
    return dict(_ATTR_RE.findall(attr_text)) if attr_text else {}


def scan(html: str) -> Iterator[Tuple[int, str, str]]:
    """Validate a document in one pass and yield its events in order.

    Events are ``(OPEN, tag, attr_text)``, ``(CLOSE, tag, "")`` and
    ``(TEXT, line, "")``.  ``tag`` is lower-cased; ``attr_text`` is the
    raw attribute text (see :func:`parse_attrs`).  A void tag yields
    only OPEN; a self-closed non-void tag yields OPEN then CLOSE.  A
    text run yields one TEXT per non-blank line, stripped, as the
    serializer writes one text node per line.  Doctypes and comments
    yield nothing.

    Every structural error (malformed tag, mismatched or unclosed tag,
    text outside the root, several roots, no element at all) raises
    :class:`HTMLParseError` at the point it is found; the caller must
    then drop whatever it built from the events before it.
    """
    stack: List[str] = []
    rooted = False  # an element has been opened at the top level
    for match in _SCAN_RE.finditer(html):
        kind = match.lastindex
        if kind == 4:
            closing, tag, tail = match.group(2, 3, 4)
            tag = tag.lower()
            self_closing = False
            # the tail is empty, or attributes after a space, or a
            # self-closing "/"; spaces may pad the slash
            if tail:
                if not tail[0].isspace():
                    if tail.rstrip() != "/":
                        raise HTMLParseError(
                            f"malformed tag token {match.group().lstrip()!r}"
                        )
                    tail, self_closing = "", True
                elif tail[-1] == "/" or tail[-1].isspace():
                    tail = tail.rstrip()
                    if tail[-1:] == "/":
                        tail, self_closing = tail[:-1], True
            if closing:
                if not stack or stack[-1] != tag:
                    opened = stack[-1] if stack else None
                    raise HTMLParseError(
                        f"closing </{tag}> does not match open <{opened}>"
                    )
                stack.pop()
                yield CLOSE, tag, ""
                continue
            if not stack:
                if rooted:
                    raise HTMLParseError("multiple root elements")
                rooted = True
            yield OPEN, tag, tail
            if tag not in VOID_TAGS:
                if self_closing:
                    yield CLOSE, tag, ""
                else:
                    stack.append(tag)
        elif kind == 1:
            text = match.group(1)
            lines = text.splitlines()
            if not stack:
                raise HTMLParseError(
                    f"text outside the document root: {lines[0].strip()!r}"
                )
            if len(lines) == 1:
                yield TEXT, text, ""
            else:
                for line in lines:
                    line = line.strip()
                    if line:
                        yield TEXT, line, ""
        elif kind == 6:
            raise HTMLParseError(f"malformed tag token {match.group().lstrip()!r}")
        # otherwise whitespace, a bare "<", a doctype or a comment
    if stack:
        raise HTMLParseError(f"unclosed tag <{stack[-1]}>")
    if not rooted:
        raise HTMLParseError("empty document")


def parse(html: str) -> Element:
    """Parse HTML text into an :class:`Element` tree.

    Returns the single root element (conventionally ``<html>``).  A
    tree builder over :func:`scan`, so it tolerates a doctype prelude
    and surrounding whitespace and raises :class:`HTMLParseError` on
    any structural error (unbalanced tags, text outside the root).
    """
    root: Optional[Element] = None
    stack: List[Element] = []
    for kind, value, attr_text in scan(html):
        if kind == TEXT:
            stack[-1].children.append(value)
        elif kind == OPEN:
            element = Element(value, parse_attrs(attr_text))
            if stack:
                stack[-1].children.append(element)
            else:
                root = element
            if value not in VOID_TAGS:
                stack.append(element)
        else:
            stack.pop()
    assert root is not None  # scan() raises on an empty document
    return root


def iter_elements(node: Node) -> Iterator[Element]:
    """Depth-first iteration over every element of a subtree."""
    if isinstance(node, Element):
        yield node
        for child in node.children:
            yield from iter_elements(child)


def find_all(
    node: Node,
    tag: Optional[str] = None,
    cls: Optional[str] = None,
) -> List[Element]:
    """All elements matching an optional tag name and/or class."""
    out = []
    for element in iter_elements(node):
        if tag is not None and element.tag != tag:
            continue
        if cls is not None and not element.has_class(cls):
            continue
        out.append(element)
    return out


def text_of(node: Node) -> str:
    """Concatenated text content of a subtree."""
    if isinstance(node, str):
        return node
    return " ".join(
        part
        for part in (text_of(child) for child in node.children)
        if part
    )
