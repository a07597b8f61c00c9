"""The single-pass scanner is result-identical to the two-regex parser.

For every input — clean store pages, the fuzz suite's truncated and
mangled pages, CRLF line ends, doctypes and comments, self-closing and
unquoted-attribute tags, and free-form tag soup — either
:func:`repro.web.html.parse` builds a tree equal to the reference
parser's (``tests/oracles/html_reference.py``) or both raise
:class:`HTMLParseError` with the same message.  On the same inputs the
tree-free fast ``extract_price_text`` equals the legacy tree walk over
the reference parser's tree.  The parser stays strict: recovering from
malformed pages is out of scope.
"""

import random
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tagspath import (
    TagsPath,
    build_tags_path,
    clear_extraction_memo,
    extract_price_element,
    extract_price_text,
)
from repro.currency.rates import ExchangeRateProvider
from repro.net.faults import FaultPlan
from repro.net.geo import GeoDatabase
from repro.web.catalog import make_catalog
from repro.web.html import (
    CLOSE,
    OPEN,
    TEXT,
    HTMLParseError,
    find_all,
    parse,
    scan,
)
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore
from tests.oracles.html_reference import parse as reference_parse
from tests.test_fuzz import _PRICE_PATH, _store_page

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()


def _outcome(parser, html):
    try:
        return parser(html)
    except HTMLParseError as exc:
        return ("error", str(exc))


def _reference_text(html, path):
    """The legacy extraction over the reference parser's tree."""
    try:
        root = reference_parse(html)
    except HTMLParseError:
        return None
    element = extract_price_element(root, path, use_fast_extract=False)
    if element is None:
        return None
    return element.text().strip() or None


def assert_equivalent(html, path=_PRICE_PATH):
    assert _outcome(parse, html) == _outcome(reference_parse, html)
    clear_extraction_memo()
    assert extract_price_text(html, path) == _reference_text(html, path)


# -- inputs -------------------------------------------------------------------


def _real_page(layout_seed, nonce):
    """A product page as EStore renders it, with its recorded path."""
    store = EStore(
        domain="scan.example",
        country_code="ES",
        catalog=make_catalog("scan.example", size=4, rng=random.Random(2)),
        pricing=UniformPricing(),
        geodb=_GEODB,
        rates=_RATES,
        layout_seed=layout_seed,
    )
    product = store.catalog.products[0]
    ctx = RequestContext(
        time=0.0, location=_GEODB.make_location("ES", "Madrid"),
        request_nonce=nonce,
    )
    html = store.fetch(product.path, ctx).html
    root = parse(html)
    price = find_all(find_all(root, cls="product")[0], tag="span",
                     cls=store.price_class)[0]
    return html, build_tags_path(root, price)


def _mangle(page, rng):
    """The fuzz suite's splice / duplicate / delete mutator."""
    for _ in range(rng.randint(1, 4)):
        a, b = sorted(rng.randrange(len(page) + 1) for _ in range(2))
        op = rng.choice(("del", "dup", "swap"))
        if op == "del":
            page = page[:a] + page[b:]
        elif op == "dup":
            page = page[:a] + page[a:b] + page[a:b] + page[b:]
        else:
            page = page[:b] + page[a:b] + page[b:]
    return page or "<"


#: fragments the store renderer never emits but remote pages may carry
_INSERTS = (
    "<!-- note -->", "<!-- a > b -->", "<!DOCTYPE html>", "<!>",
    "<br/>", "<br />", "<div / >", '<span class="price"/>', "<div />", "< / div >",
    "<div class=product>", "<a href=/x/>", '<p class="a" class="b">',
    "</div/>", "<img>", "\r\n", "\r", "\t", "\x0b", "\x85", " ",
    "<", ">", "</", "<1x>", '"', "=", "<span\nclass=\"price\">",
)


def _splice(page, rng):
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(page) + 1)
        page = page[:at] + rng.choice(_INSERTS) + page[at:]
    return page


# -- properties ---------------------------------------------------------------


@given(layout_seed=st.integers(0, 300), nonce=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_store_pages_and_crlf(layout_seed, nonce):
    html, path = _real_page(layout_seed, nonce)
    assert_equivalent(html, path)
    assert_equivalent(html.replace("\n", "\r\n"), path)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_truncated_pages(seed):
    html, path = _real_page(seed % 50, 1 + seed % 7)
    assert_equivalent(FaultPlan(seed=seed).corrupt_text(html), path)
    assert_equivalent(FaultPlan(seed=seed).corrupt_text(_store_page("$9")))


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_mangled_pages(seed):
    rng = random.Random(seed)
    assert_equivalent(_mangle(_store_page("$99.99"), rng))
    html, path = _real_page(seed % 50, 1 + seed % 7)
    assert_equivalent(_mangle(html, rng), path)


@given(seed=st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_spliced_fragments(seed):
    """Doctypes, comments, self-closing, unquoted attributes, odd
    whitespace and stray brackets inserted anywhere."""
    rng = random.Random(seed)
    assert_equivalent(_splice(_store_page("EUR 5"), rng))
    html, path = _real_page(seed % 50, 1 + seed % 7)
    assert_equivalent(_splice(html, rng), path)


_soup = st.text(
    alphabet=string.ascii_letters[:6] + "0 <>/=\"!-.\n\r\t\x0b\x85 ",
    max_size=80,
)


@given(body=_soup)
@settings(max_examples=400, deadline=None)
def test_tag_soup(body):
    assert_equivalent(body)
    assert_equivalent(f"<html><body>{body}</body></html>")


@pytest.mark.parametrize("html", [
    "", "   ", "<", "text", "<html>", "</html>", "<html></html>x",
    "<html></html><p></p>", "<br><br>", "<br>", "<html/>", "<!---->",
    "<html><p>a<b</p></html>", "<html>a<\nb</html>", "<html>\r\n x \r\n</html>",
    "<HTML><Body CLASS=\"x\"></BODY></html>", "<html><div.x></div.x></html>",
    "<html><div/ ></html>", "<html><div / ></html>", "<html><div /x></div></html>",
    '<html><div a="1"//></html>', "<html\n></html\n>",
])
def test_edge_documents(html):
    assert_equivalent(html)


# -- the event stream ---------------------------------------------------------


class TestScanEvents:
    def test_void_and_self_closing(self):
        events = list(scan('<html><br><div class="a"/>x\n y</html>'))
        assert events == [
            (OPEN, "html", ""),
            (OPEN, "br", ""),
            (OPEN, "div", ' class="a"'),
            (CLOSE, "div", ""),
            (TEXT, "x", ""),
            (TEXT, "y", ""),
            (CLOSE, "html", ""),
        ]

    def test_doctype_comment_and_whitespace_yield_nothing(self):
        events = list(scan("<!DOCTYPE html>\n  <html>\n  <!-- c -->\n</html>\n"))
        assert events == [(OPEN, "html", ""), (CLOSE, "html", "")]

    def test_error_after_prefix(self):
        seen = []
        with pytest.raises(HTMLParseError, match="unclosed"):
            for event in scan("<html><p>x</p>"):
                seen.append(event)
        assert seen[-1] == (CLOSE, "p", "")


def test_parse_errors_are_counted_once_per_page():
    from repro.core.tagspath import (
        EXTRACTION_STATS,
        bind_extraction_telemetry,
        unbind_extraction_telemetry,
    )
    from repro.obs import Telemetry

    telemetry = Telemetry()
    bind_extraction_telemetry(telemetry)
    try:
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        path = TagsPath(entries=("html",), target="span.price")
        assert extract_price_text("<html><div></html>", path) is None
        assert extract_price_text("<html><div></html>", path) is None  # memo
        assert extract_price_text("<html>$1</html>", path) is None  # no match
        assert EXTRACTION_STATS.parse_errors == 1
        assert EXTRACTION_STATS.memo_hits == 1
        exposition = telemetry.registry.render_exposition()
        assert "sheriff_extract_parse_errors_total 1" in exposition
    finally:
        unbind_extraction_telemetry()
