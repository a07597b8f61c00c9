"""The fast extraction engine is result-identical to the legacy path.

Three layers of the claim, mirroring the crypto lockstep suite:

* **element** — on the same parsed tree, fast and legacy extraction
  pick the *same object* (identity, not just equal text), whichever
  store layout, product, or remote nonce produced the page;
* **text / price** — ``extract_price_text`` and the downstream
  ``detect_price`` agree, memo on or off;
* **rows** — a full deployment produces byte-identical database rows
  with ``use_fast_extract`` on or off (runs on whatever
  ``REPRO_DB_BACKEND`` the CI matrix selects, and queued as well as
  direct dispatch).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.tagspath import (
    EXTRACTION_MEMO_MAX,
    EXTRACTION_STATS,
    ExtractionIndex,
    _scan_extract,
    bind_extraction_telemetry,
    build_tags_path,
    clear_extraction_memo,
    extract_price_element,
    extract_price_text,
    unbind_extraction_telemetry,
)
from repro.currency.detect import detect_price
from repro.currency.rates import ExchangeRateProvider
from repro.net.geo import GeoDatabase
from repro.obs import Telemetry
from repro.web.catalog import make_catalog
from repro.web.html import find_all, parse
from repro.web.pricing import RequestContext, UniformPricing
from repro.web.store import EStore

_GEODB = GeoDatabase()
_RATES = ExchangeRateProvider()


def _ctx(nonce):
    return RequestContext(
        time=0.0,
        location=_GEODB.make_location("ES", "Madrid"),
        request_nonce=nonce,
    )


def _recorded_check(layout_seed, product_index):
    store = EStore(
        domain="equiv.example",
        country_code="ES",
        catalog=make_catalog("equiv.example", size=6, rng=random.Random(1)),
        pricing=UniformPricing(),
        geodb=_GEODB,
        rates=_RATES,
        layout_seed=layout_seed,
    )
    product = store.catalog.products[product_index]
    initiator = store.fetch(product.path, _ctx(0))
    doc = parse(initiator.html)
    product_div = find_all(doc, cls="product")[0]
    price_el = find_all(product_div, tag="span", cls=store.price_class)[0]
    return store, product, build_tags_path(doc, price_el)


@given(
    layout_seed=st.integers(0, 500),
    product_index=st.integers(0, 5),
    remote_nonce=st.integers(1, 50),
)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fast_equals_legacy_across_layouts(layout_seed, product_index,
                                           remote_nonce):
    store, product, path = _recorded_check(layout_seed, product_index)
    remote = store.fetch(product.path, _ctx(remote_nonce))
    root = parse(remote.html)

    legacy_el = extract_price_element(root, path, use_fast_extract=False)
    fast_el = extract_price_element(root, path, use_fast_extract=True)
    assert fast_el is legacy_el

    # the tree-free scan of the page text picks the same element
    assert _scan_extract(remote.html, path) == legacy_el.text()

    clear_extraction_memo()
    legacy_text = extract_price_text(remote.html, path,
                                     use_fast_extract=False)
    fast_text = extract_price_text(remote.html, path)
    memo_text = extract_price_text(remote.html, path)  # memo hit
    assert fast_text == legacy_text
    assert memo_text == legacy_text
    assert legacy_text is not None
    assert detect_price(fast_text) == detect_price(legacy_text)
    assert detect_price(fast_text).amount == pytest.approx(
        remote.displayed_amount
    )


class TestIndex:
    def test_paths_match_legacy_builder(self):
        """index.path_for == _path_for for every element of a page."""
        from repro.core.tagspath import _path_for

        store, product, _ = _recorded_check(layout_seed=7, product_index=2)
        root = parse(store.fetch(product.path, _ctx(3)).html)
        index = ExtractionIndex.from_root(root)
        for element in find_all(root):
            assert index.path_for(element) == _path_for(root, element)

    def test_missing_target_returns_none(self):
        root = parse("<html><body><p>no price</p></body></html>")
        index = ExtractionIndex.from_root(root)
        path = build_tags_path(root, find_all(root, tag="p")[0])
        missing = type(path)(entries=path.entries, target="span.absent")
        assert index.extract(missing) is None
        assert extract_price_element(root, missing,
                                     use_fast_extract=False) is None


class TestMemo:
    def test_memo_hit_skips_reparse(self):
        store, product, path = _recorded_check(layout_seed=3,
                                               product_index=1)
        html = store.fetch(product.path, _ctx(5)).html
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        first = extract_price_text(html, path)
        second = extract_price_text(html, path)
        assert first == second
        assert EXTRACTION_STATS.pages_parsed == 1
        assert EXTRACTION_STATS.memo_hits == 1

    def test_memo_is_bounded(self):
        store, product, path = _recorded_check(layout_seed=3,
                                               product_index=1)
        clear_extraction_memo()
        from repro.core.tagspath import _extraction_memo

        for nonce in range(EXTRACTION_MEMO_MAX + 20):
            html = store.fetch(product.path, _ctx(nonce)).html
            extract_price_text(html, path)
        assert len(_extraction_memo) <= EXTRACTION_MEMO_MAX

    def test_unparseable_page_memoized_as_none(self):
        _, _, path = _recorded_check(layout_seed=3, product_index=1)
        clear_extraction_memo()
        assert extract_price_text("<html><div></html>", path) is None
        assert extract_price_text("<html><div></html>", path) is None
        assert extract_price_text(
            "<html><div></html>", path, use_fast_extract=False
        ) is None


class TestTelemetry:
    def test_counters_mirror_stats_when_bound(self):
        store, product, path = _recorded_check(layout_seed=11,
                                               product_index=0)
        html = store.fetch(product.path, _ctx(9)).html
        telemetry = Telemetry()
        bind_extraction_telemetry(telemetry)
        try:
            clear_extraction_memo()
            extract_price_text(html, path)
            extract_price_text(html, path)
            exposition = telemetry.registry.render_exposition()
            assert "sheriff_extract_pages_parsed_total 1" in exposition
            assert "sheriff_extract_memo_hits_total 1" in exposition
            assert "sheriff_extract_candidates_pruned_total" in exposition
            assert "sheriff_extract_lcs_cells_total" in exposition
        finally:
            unbind_extraction_telemetry()

    def test_unbound_extraction_still_counts_stats(self):
        store, product, path = _recorded_check(layout_seed=11,
                                               product_index=0)
        html = store.fetch(product.path, _ctx(9)).html
        clear_extraction_memo()
        EXTRACTION_STATS.reset()
        extract_price_text(html, path)
        assert EXTRACTION_STATS.pages_parsed == 1


class TestDeploymentRowIdentity:
    """Same seeded workload, rows identical fast vs legacy extraction."""

    def _results(self, use_fast_extract, job_queue):
        from repro.workloads.deployment import (
            DeploymentConfig,
            LiveDeployment,
        )

        clear_extraction_memo()
        config = DeploymentConfig.test_scale()
        config.n_requests = 30
        config.use_fast_extract = use_fast_extract
        config.job_queue = job_queue
        dataset = LiveDeployment(config).run()
        return [(r.job_id, r.domain, r.rows) for r in dataset.results]

    @pytest.mark.parametrize("job_queue", [False, True])
    def test_rows_identical(self, job_queue):
        fast = self._results(True, job_queue=job_queue)
        legacy = self._results(False, job_queue=job_queue)
        assert len(fast) > 0
        assert fast == legacy
