"""The two-regex HTML parser, kept as the executable reference.

``repro.web.html.parse`` is a tree builder over the single-pass
``scan``; this module is the tokenizer + tag-regex parser it replaced,
unchanged apart from the (removed) observer hook.  The equivalence
property in ``tests/web/test_scan_equivalence.py`` requires the two to
build equal trees or both raise :class:`HTMLParseError` on every input.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.web.html import VOID_TAGS, Element, HTMLParseError

_TOKEN_RE = re.compile(r"<[^>]*>|[^<]+")
_TAG_RE = re.compile(r"^<\s*(/)?\s*([a-zA-Z][a-zA-Z0-9-]*)((?:\s+[^>]*?)?)\s*(/)?\s*>$")
_ATTR_RE = re.compile(r'([a-zA-Z][a-zA-Z0-9_:-]*)\s*=\s*"([^"]*)"')


def parse(html: str) -> Element:
    """Parse HTML text into an :class:`Element` tree (reference)."""
    root: Optional[Element] = None
    stack: List[Element] = []
    for raw in _TOKEN_RE.findall(html):
        if raw.startswith("<"):
            if raw.startswith("<!"):
                continue  # doctype / comment
            match = _TAG_RE.match(raw)
            if match is None:
                raise HTMLParseError(f"malformed tag token {raw!r}")
            closing, tag, attr_text, self_closing = match.groups()
            tag = tag.lower()
            if closing:
                if not stack or stack[-1].tag != tag:
                    opened = stack[-1].tag if stack else None
                    raise HTMLParseError(
                        f"closing </{tag}> does not match open <{opened}>"
                    )
                element = stack.pop()
                if not stack:
                    root = element
            else:
                attrs = dict(_ATTR_RE.findall(attr_text or ""))
                element = Element(tag=tag, attrs=attrs)
                if stack:
                    stack[-1].append(element)
                elif root is not None:
                    raise HTMLParseError("multiple root elements")
                if tag not in VOID_TAGS and not self_closing:
                    stack.append(element)
                else:
                    if not stack and root is None:
                        root = element
        else:
            # One text token may span several rendered lines; split them
            # back into the per-line text nodes the serializer emitted so
            # that parse(render(x)) round-trips exactly.
            lines = [line.strip() for line in raw.splitlines()]
            for text in lines:
                if not text:
                    continue
                if not stack:
                    raise HTMLParseError(f"text outside the document root: {text!r}")
                stack[-1].append(text)
    if stack:
        raise HTMLParseError(f"unclosed tag <{stack[-1].tag}>")
    if root is None:
        raise HTMLParseError("empty document")
    return root
