"""Tests for DiffStorage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diffstorage import DiffStorage


PAGE_A = "\n".join(f"line {i}" for i in range(50))
PAGE_B = "\n".join(f"line {i}" if i % 10 else f"AD {i}" for i in range(50))


class TestStoreRestore:
    def test_reference_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        assert store.reference("j1") == PAGE_A

    def test_diff_roundtrip(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        store.store_response("j1", "ipc-0", PAGE_B)
        assert store.restore("j1", "ipc-0") == PAGE_B

    def test_identical_page_costs_nothing(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        size = store.store_response("j1", "ipc-0", PAGE_A)
        assert size == 0

    def test_missing_reference(self):
        store = DiffStorage()
        with pytest.raises(KeyError):
            store.store_response("jX", "ipc-0", PAGE_B)
        with pytest.raises(KeyError):
            store.restore("jX", "ipc-0")

    def test_missing_diff(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        with pytest.raises(KeyError):
            store.restore("j1", "nope")

    def test_unknown_reference_returns_none(self):
        assert DiffStorage().reference("nope") is None


class TestAccounting:
    def test_savings_vs_naive(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        pages = {}
        for i in range(5):
            proxy = f"ipc-{i}"
            store.store_response("j1", proxy, PAGE_B)
            pages[("j1", proxy)] = PAGE_B
        naive = store.naive_chars(pages) + len(PAGE_A)
        assert store.stored_chars() < naive

    def test_diff_count(self):
        store = DiffStorage()
        store.store_reference("j1", PAGE_A)
        store.store_response("j1", "a", PAGE_B)
        store.store_response("j1", "b", PAGE_B)
        assert store.diff_count() == 2


@given(
    base=st.lists(st.sampled_from(["x", "y", "z", "price 10", "ad"]),
                  min_size=1, max_size=30),
    variant=st.lists(st.sampled_from(["x", "y", "z", "price 12", "ad2"]),
                     min_size=1, max_size=30),
)
@settings(max_examples=60, deadline=None)
def test_restore_is_exact_property(base, variant):
    """restore(store(page)) == page for arbitrary line content."""
    store = DiffStorage()
    ref = "\n".join(base)
    new = "\n".join(variant)
    store.store_reference("j", ref)
    store.store_response("j", "p", new)
    assert store.restore("j", "p") == new


# -- the line-hash diff --------------------------------------------------------

_lines = st.lists(
    st.sampled_from(["<div>", "</div>", "x", "y", "price 10", "", "  ad  "]),
    max_size=25,
)
_ending = st.sampled_from(["\n", "\r\n", "\r"])


def _page(lines, ending, trailing):
    text = ending.join(lines)
    return text + ending if trailing and lines else text


@given(ref=_lines, new=_lines, ending=_ending, new_ending=_ending,
       trailing=st.booleans(), new_trailing=st.booleans())
@settings(max_examples=200, deadline=None)
def test_line_diff_restores_exactly(ref, new, ending, new_ending, trailing,
                                    new_trailing):
    """Duplicate lines, empty pages, missing trailing newline, CRLF."""
    reference = _page(ref, ending, trailing)
    page = _page(new, new_ending, new_trailing)
    store = DiffStorage()
    store.store_reference("j", reference)
    size = store.store_response("j", "p", page)
    store.store_response("j", "same", reference)
    assert store.restore("j", "p") == page
    assert store.restore("j", "same") == reference
    assert store.stored_chars() == len(reference) + size
    # only lines absent from the reference are stored
    ref_lines = set(reference.splitlines(keepends=True))
    assert size == sum(
        len(line) for line in page.splitlines(keepends=True)
        if line not in ref_lines
    )


def test_empty_pages():
    store = DiffStorage()
    store.store_reference("j", "")
    assert store.store_response("j", "a", "") == 0
    assert store.store_response("j", "b", "x\n") == 2
    assert store.restore("j", "a") == ""
    assert store.restore("j", "b") == "x\n"


def test_identical_response_is_one_copy_run():
    store = DiffStorage()
    store.store_reference("j", PAGE_A)
    store.store_response("j", "p", PAGE_A)
    assert store._diffs[("j", "p")].ops == ((0, 50),)


def test_index_rebuilt_after_release_and_job_switch():
    store = DiffStorage()
    store.store_reference("j1", PAGE_A)
    store.store_reference("j2", PAGE_B)
    store.store_response("j1", "p", PAGE_B)
    store.store_response("j2", "p", PAGE_A)  # switches the live index
    store.release_index("j1")  # not the live one: kept
    assert store._active is not None
    store.release_index("j2")
    assert store._active is None
    store.store_response("j1", "q", PAGE_B)
    assert store.restore("j1", "p") == store.restore("j1", "q") == PAGE_B
    assert store.restore("j2", "p") == PAGE_A


def _difflib_size(reference, page):
    """Characters difflib's opcodes would keep for the same response."""
    import difflib

    ref = reference.splitlines(keepends=True)
    new = page.splitlines(keepends=True)
    matcher = difflib.SequenceMatcher(a=ref, b=new, autojunk=False)
    return sum(
        sum(len(line) for line in new[j1:j2])
        for tag, _, _, j1, j2 in matcher.get_opcodes()
        if tag != "equal"
    )


@pytest.mark.parametrize("layout_seed", [0, 7, 42, 133])
def test_never_stores_more_than_difflib_on_store_pages(layout_seed):
    import random

    from repro.currency.rates import ExchangeRateProvider
    from repro.net.geo import GeoDatabase
    from repro.web.catalog import make_catalog
    from repro.web.pricing import RequestContext, UniformPricing
    from repro.web.store import EStore

    geodb = GeoDatabase()
    store = EStore(
        domain="diff.example", country_code="ES",
        catalog=make_catalog("diff.example", size=3, rng=random.Random(5)),
        pricing=UniformPricing(), geodb=geodb, rates=ExchangeRateProvider(),
        layout_seed=layout_seed,
    )
    product = store.catalog.products[1]

    def page(nonce, country="ES"):
        ctx = RequestContext(time=0.0, request_nonce=nonce,
                             location=geodb.make_location(country, None))
        return store.fetch(product.path, ctx).html

    diffs = DiffStorage()
    reference = page(0)
    diffs.store_reference("j", reference)
    difflib_total = len(reference)
    for nonce, country in enumerate(("ES", "DE", "US", "ES", "JP"), start=1):
        html = page(nonce, country)
        size = diffs.store_response("j", f"p{nonce}", html)
        assert size <= _difflib_size(reference, html)
        assert diffs.restore("j", f"p{nonce}") == html
        difflib_total += _difflib_size(reference, html)
    assert diffs.stored_chars() <= difflib_total
