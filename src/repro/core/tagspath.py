"""Tags Path construction and remote price extraction (Sect. 3.3).

The add-on records the path of HTML tags from the *bottom* of the
document up to the price element the user highlighted — in the paper's
example: ``Bottom, </html>, </body>, </div>, <span class="price">``.
The Measurement server replays that path on pages fetched by other proxy
clients to locate the same price.

Remote pages are never byte-identical: ads rotate, the related-products
strip changes length, and the page may contain several price-looking
elements.  Extraction therefore scores every candidate element whose
signature matches the path's target by the longest-common-subsequence
similarity between its own bottom-up closing-tag path and the recorded
one, and picks the best match.  This captures the paper's remark that
the simplified example "does not capture the complexity involved in
extracting a product price when the HTML code includes multiple product
prices and when the result varies between remote page requests".

Two result-identical implementations coexist:

* the **legacy** path (``use_fast_extract=False``) re-flattens the
  document per candidate and runs the full LCS DP — the executable
  reference the property tests compare against;
* the **fast** path never re-walks the document: it records the
  signature of every closing event and, per candidate, the span of
  closing-event positions its open and close tags fall at, so each
  candidate's bottom-up path is two slices.  It prunes candidates whose
  shared suffix already cannot win and strips the common prefix/suffix
  before any DP (:func:`_best_candidate`, shared by both fast entry
  points).  On a fetched page :func:`extract_price_text` records all
  of this straight from the :func:`repro.web.html.scan` events, without
  building an element tree, and collects text only inside candidates;
  it also memoizes whole ``(html, path) → text`` extractions so
  identical pages fetched from different vantages are scanned once.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.web.html import (
    OPEN,
    TEXT,
    VOID_TAGS,
    Element,
    HTMLParseError,
    iter_elements,
    parse,
    parse_attrs,
    scan,
    signature,
)

#: cap on recorded path length; pages deeper than this keep both ends —
#: the bottom-of-document entries the paper's algorithm starts from AND
#: the entries nearest the target (the discriminative suffix) — and drop
#: the middle.
MAX_PATH_ENTRIES = 400
_PATH_HEAD = MAX_PATH_ENTRIES // 2
_PATH_TAIL = MAX_PATH_ENTRIES - _PATH_HEAD

#: bound on the (page, path) → text extraction memo
EXTRACTION_MEMO_MAX = 256


class TagsPathError(ValueError):
    """Raised when a Tags Path cannot be built for the selection."""


@dataclass(frozen=True)
class TagsPath:
    """The bottom-up closing-tag path plus the target's signature."""

    entries: Tuple[str, ...]  # closing-tag signatures, bottom-most first
    target: str  # signature of the selected element

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# instrumentation


class ExtractionStats:
    """Process-local counters for the fast extraction path.

    Always maintained (plain int adds); :func:`bind_extraction_telemetry`
    additionally mirrors each increment into ``sheriff_extract_*``
    registry counters.  When unbound the mirror is a single ``None``
    check per site, preserving the telemetry plane's
    zero-cost-when-disabled property.
    """

    __slots__ = (
        "pages_parsed", "memo_hits", "candidates_pruned", "lcs_cells",
        "parse_errors",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.pages_parsed = 0
        self.memo_hits = 0
        self.candidates_pruned = 0
        self.lcs_cells = 0
        #: scanned pages that were not well-formed (extracted as None)
        self.parse_errors = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


#: module-wide stats for the fast path (the extractor is a pure function
#: shared by every measurement server in the process)
EXTRACTION_STATS = ExtractionStats()

_m_pages = None
_m_memo_hits = None
_m_pruned = None
_m_lcs_cells = None
_m_parse_errors = None


def bind_extraction_telemetry(telemetry) -> None:
    """Register the ``sheriff_extract_*`` counters on a telemetry bundle."""
    global _m_pages, _m_memo_hits, _m_pruned, _m_lcs_cells, _m_parse_errors
    registry = telemetry.registry
    _m_pages = registry.counter(
        "sheriff_extract_pages_parsed_total",
        "Pages parsed (memo misses) by the fast extraction path",
    )
    _m_memo_hits = registry.counter(
        "sheriff_extract_memo_hits_total",
        "Whole-extraction memo hits (identical page+path seen before)",
    )
    _m_pruned = registry.counter(
        "sheriff_extract_candidates_pruned_total",
        "Candidates skipped because their shared suffix cannot win",
    )
    _m_lcs_cells = registry.counter(
        "sheriff_extract_lcs_cells_total",
        "LCS DP cells evaluated after prefix/suffix stripping",
    )
    _m_parse_errors = registry.counter(
        "sheriff_extract_parse_errors_total",
        "Fetched pages the fast extraction path could not parse",
    )


def unbind_extraction_telemetry() -> None:
    """Drop the registry mirrors (used when a sheriff shuts down)."""
    global _m_pages, _m_memo_hits, _m_pruned, _m_lcs_cells, _m_parse_errors
    _m_pages = _m_memo_hits = _m_pruned = _m_lcs_cells = _m_parse_errors = None


# ---------------------------------------------------------------------------
# path construction (shared by both implementations)


def _truncate(closings: List[str]) -> List[str]:
    """Apply the MAX_PATH_ENTRIES cap: keep both ends, drop the middle."""
    if len(closings) > MAX_PATH_ENTRIES:
        return closings[:_PATH_HEAD] + closings[len(closings) - _PATH_TAIL:]
    return closings


def _event_stream(root: Element) -> List[Tuple[str, Element]]:
    """Flatten the tree into (event, element) pairs in document order."""
    events: List[Tuple[str, Element]] = []

    def walk(element: Element) -> None:
        events.append(("open", element))
        for child in element.children:
            if isinstance(child, Element):
                walk(child)
        if element.tag not in VOID_TAGS:
            events.append(("close", element))

    walk(root)
    return events


def _path_for(root: Element, target: Element) -> Tuple[str, ...]:
    """Closing-tag signatures after target's open tag, bottom-most first."""
    events = _event_stream(root)
    open_index = None
    for i, (kind, element) in enumerate(events):
        if kind == "open" and element is target:
            open_index = i
            break
    if open_index is None:
        raise TagsPathError("selected element is not part of the document")
    closings = [
        element.signature()
        for kind, element in events[open_index + 1:]
        if kind == "close" and element is not target
    ]
    closings.reverse()  # bottom of the document first, like the paper
    return tuple(_truncate(closings))


def build_tags_path(root: Element, target: Element) -> TagsPath:
    """Record the Tags Path for a user-selected element."""
    return TagsPath(entries=_path_for(root, target), target=target.signature())


# ---------------------------------------------------------------------------
# similarity scoring


def _lcs_length(a: Tuple[str, ...], b: Tuple[str, ...]) -> int:
    """Classic O(len(a)·len(b)) longest common subsequence length."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[-1]))
        prev = curr
    return prev[-1]


def _common_suffix(a: Tuple[str, ...], b: Tuple[str, ...]) -> int:
    """Length of the shared tail — the entries *adjacent to the target*."""
    n = 0
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            break
        n += 1
    return n


def _similarity(recorded: Tuple[str, ...], candidate: Tuple[str, ...]) -> float:
    """Score a candidate's path against the recorded one.

    The entries nearest the target (the path's *suffix*, since paths run
    bottom-of-document → target) encode the element's local context —
    e.g. ``…, div.product, div.description`` for the real product price
    versus ``…, div.item`` for a related-products decoy.  Those entries
    are the discriminative ones, so the shared suffix dominates the
    score; the normalized LCS over the full path breaks ties among
    candidates with equal local context.
    """
    longest = max(len(recorded), len(candidate))
    if longest == 0:
        return 1.0
    lcs = _lcs_length(recorded, candidate) / longest
    suffix = _common_suffix(recorded, candidate)
    return suffix + lcs


def _lcs_length_stripped(
    a: Tuple[str, ...], b: Tuple[str, ...], suffix: int
) -> int:
    """LCS length, skipping the already-known common suffix and prefix.

    If the last entries of ``a`` and ``b`` are equal, every maximal
    common subsequence may take them, so
    ``LCS(a, b) = 1 + LCS(a[:-1], b[:-1])`` — applied ``suffix`` times
    (the maximal shared tail), then dually for the shared head of the
    remainders.  Only the middles, where the paths actually differ, pay
    the quadratic DP; their cell count feeds the
    ``sheriff_extract_lcs_cells`` counter.
    """
    a = a[: len(a) - suffix]
    b = b[: len(b) - suffix]
    prefix = 0
    bound = min(len(a), len(b))
    while prefix < bound and a[prefix] == b[prefix]:
        prefix += 1
    mid_a = a[prefix:]
    mid_b = b[prefix:]
    if not mid_a or not mid_b:
        return prefix + suffix
    EXTRACTION_STATS.lcs_cells += len(mid_a) * len(mid_b)
    if _m_lcs_cells is not None:
        _m_lcs_cells.inc(len(mid_a) * len(mid_b))
    return prefix + suffix + _lcs_length(mid_a, mid_b)


# ---------------------------------------------------------------------------
# the fast path: closing-event spans + shared candidate scoring
#
# A document's closing events, in order, give ``close_sigs`` (each
# closing element's signature).  An element's *span* is ``(start, own)``:
# ``start`` is how many closes preceded its open tag and ``own`` the
# position of its own close (``None`` for void tags).  Its bottom-up Tags
# Path is then the closes after its own, then the closes between its
# open and its own, each reversed — O(path length) instead of the legacy
# O(document) re-flatten per candidate.

_Span = Tuple[int, Optional[int]]


def _span_path(close_sigs: List[str], span: _Span) -> Tuple[str, ...]:
    """An element's bottom-up closing-tag path, from its span."""
    start, own = span
    if own is None:
        closings = close_sigs[start:]
        closings.reverse()
    else:
        closings = close_sigs[own + 1:]
        closings.reverse()
        between = close_sigs[start:own]
        between.reverse()
        closings.extend(between)
    return tuple(_truncate(closings))


def _best_candidate(
    path: TagsPath, close_sigs: List[str], spans: List[_Span]
) -> Optional[int]:
    """Index of the best-scoring candidate span (document-order ties win).

    ``spans`` are the target-signature candidates in document
    (pre-)order.  The score is the legacy :func:`_similarity`, with two
    result-preserving shortcuts: a candidate whose shared suffix cannot
    reach the incumbent is skipped, and the LCS runs only on the middles
    left after stripping the shared suffix and prefix.
    """
    if not spans:
        return None
    if len(spans) == 1:
        return 0
    recorded = path.entries
    best: Optional[int] = None
    best_score = -1.0
    for i, span in enumerate(spans):
        candidate_path = _span_path(close_sigs, span)
        suffix = _common_suffix(recorded, candidate_path)
        # The normalized LCS term is at most 1.0, so a candidate whose
        # shared suffix cannot reach the incumbent strictly loses — and,
        # with candidates visited in document order, skipping it cannot
        # change the legacy tie-break either.
        if suffix + 1.0 <= best_score:
            EXTRACTION_STATS.candidates_pruned += 1
            if _m_pruned is not None:
                _m_pruned.inc()
            continue
        longest = max(len(recorded), len(candidate_path))
        if longest == 0:
            score = 1.0
        else:
            lcs = _lcs_length_stripped(recorded, candidate_path, suffix)
            score = suffix + lcs / longest
        if score > best_score:
            best, best_score = i, score
    return best


class ExtractionIndex:
    """Closing-event spans of a parsed tree, built in one DOM walk.

    ``by_signature`` maps each signature to its elements in document
    (pre-)order, preserving the legacy first-best tie-break.
    """

    __slots__ = ("close_sigs", "by_signature", "_spans")

    def __init__(self) -> None:
        self.close_sigs: List[str] = []
        self.by_signature: Dict[str, List[Element]] = {}
        self._spans: Dict[int, _Span] = {}

    def _enter(self, element: Element) -> None:
        self.by_signature.setdefault(element.signature(), []).append(element)
        self._spans[id(element)] = (len(self.close_sigs), None)

    def _exit(self, element: Element) -> None:
        key = id(element)
        self._spans[key] = (self._spans[key][0], len(self.close_sigs))
        self.close_sigs.append(element.signature())

    @classmethod
    def from_root(cls, root: Element) -> "ExtractionIndex":
        """Build the index from a parsed tree in one walk."""
        index = cls()
        stack: List[Tuple[Element, bool]] = [(root, False)]
        while stack:
            element, closing = stack.pop()
            if closing:
                index._exit(element)
                continue
            index._enter(element)
            if element.tag not in VOID_TAGS:
                stack.append((element, True))
            for child in reversed(element.children):
                if isinstance(child, Element):
                    stack.append((child, False))
        return index

    # -- queries ---------------------------------------------------------
    def path_for(self, element: Element) -> Tuple[str, ...]:
        """The element's bottom-up closing-tag path, as two slices."""
        span = self._spans.get(id(element))
        if span is None:
            raise TagsPathError("selected element is not part of the document")
        return _span_path(self.close_sigs, span)

    def extract(self, path: TagsPath) -> Optional[Element]:
        """Best-scoring candidate for the path (document-order ties win)."""
        candidates = self.by_signature.get(path.target, [])
        best = _best_candidate(
            path, self.close_sigs, [self._spans[id(c)] for c in candidates]
        )
        return None if best is None else candidates[best]


def _event_signature(tag: str, attr_text: str) -> str:
    """The signature of an OPEN event's element, without the Element."""
    if "class" not in attr_text:
        return tag
    return signature(tag, parse_attrs(attr_text).get("class", ""))


def _scan_extract(html: str, path: TagsPath) -> Optional[str]:
    """The fast path on page text: scan events in, price text out.

    Builds no tree.  Every closing event contributes its signature;
    elements whose signature is the path's target become candidates,
    with their span and the range of the text lines inside them (text
    is kept only while a candidate is open).  Raises
    :class:`HTMLParseError` on a malformed page.
    """
    target = path.target
    close_sigs: List[str] = []
    # per open non-void element: its signature and, for a candidate,
    # its index in ``candidates``
    open_stack: List[Tuple[str, int]] = []
    # per candidate: [start, own, first text line, end of text lines]
    candidates: List[list] = []
    texts: List[str] = []
    open_candidates = 0
    for kind, value, attr_text in scan(html):
        if kind == TEXT:
            if open_candidates:
                texts.append(value)
        elif kind == OPEN:
            sig = _event_signature(value, attr_text) if attr_text else value
            slot = -1
            if sig == target:
                slot = len(candidates)
                n = len(texts)
                candidates.append([len(close_sigs), None, n, n])
            if value not in VOID_TAGS:
                open_stack.append((sig, slot))
                if slot >= 0:
                    open_candidates += 1
        else:
            sig, slot = open_stack.pop()
            if slot >= 0:
                record = candidates[slot]
                record[1] = len(close_sigs)
                record[3] = len(texts)
                open_candidates -= 1
            close_sigs.append(sig)
    best = _best_candidate(path, close_sigs, [(c[0], c[1]) for c in candidates])
    if best is None:
        return None
    _, _, first, end = candidates[best]
    return " ".join(texts[first:end]) or None


# ---------------------------------------------------------------------------
# extraction entry points


def extract_price_element(
    root: Element,
    path: TagsPath,
    use_fast_extract: bool = True,
    index: Optional[ExtractionIndex] = None,
) -> Optional[Element]:
    """Locate the element the Tags Path points at in a (variant) page.

    With ``use_fast_extract=False`` this runs the legacy per-candidate
    re-walk + full LCS; the fast path builds (or reuses, via ``index``)
    an :class:`ExtractionIndex` and is result-identical by property
    test.
    """
    if use_fast_extract:
        if index is None:
            index = ExtractionIndex.from_root(root)
        return index.extract(path)
    candidates = [e for e in iter_elements(root) if e.signature() == path.target]
    if not candidates:
        return None
    if len(candidates) == 1:
        return candidates[0]
    best, best_score = None, -1.0
    for candidate in candidates:
        score = _similarity(path.entries, _path_for(root, candidate))
        if score > best_score:
            best, best_score = candidate, score
    return best


_MEMO_MISS = object()
_extraction_memo: "OrderedDict[Tuple[str, TagsPath], Optional[str]]" = OrderedDict()


def clear_extraction_memo() -> None:
    """Forget memoized (page, path) → text extractions (benches, tests)."""
    _extraction_memo.clear()


def extract_price_text(
    html: str, path: TagsPath, use_fast_extract: bool = True
) -> Optional[str]:
    """Parse a fetched page and pull out the price string, if locatable.

    The fast path scans the page without building a tree and memoizes
    whole extractions keyed by the exact page text and path: vantages
    that saw an identical page cost one dict probe instead of a scan +
    match.  A malformed page extracts as ``None`` (and is counted in
    ``EXTRACTION_STATS.parse_errors``).
    """
    if use_fast_extract:
        cached = _extraction_memo.get((html, path), _MEMO_MISS)
        if cached is not _MEMO_MISS:
            _extraction_memo.move_to_end((html, path))
            EXTRACTION_STATS.memo_hits += 1
            if _m_memo_hits is not None:
                _m_memo_hits.inc()
            return cached
        EXTRACTION_STATS.pages_parsed += 1
        if _m_pages is not None:
            _m_pages.inc()
        try:
            text = _scan_extract(html, path)
        except HTMLParseError:
            text = None
            EXTRACTION_STATS.parse_errors += 1
            if _m_parse_errors is not None:
                _m_parse_errors.inc()
        _extraction_memo[(html, path)] = text
        if len(_extraction_memo) > EXTRACTION_MEMO_MAX:
            _extraction_memo.popitem(last=False)
        return text
    try:
        root = parse(html)
    except HTMLParseError:
        return None
    element = extract_price_element(root, path, use_fast_extract=False)
    if element is None:
        return None
    text = element.text().strip()
    return text or None
