"""Edge-case tests for the Measurement server."""

import pytest

from repro.core.tagspath import TagsPath
from repro.web.internet import ContentSite


def product_url(world, domain="uniform.example", index=0):
    store = world.internet.site(domain)
    return store.product_url(store.catalog.products[index].product_id)


class TestProxyFailures:
    def test_offline_ppc_skipped(self, world, sheriff, es_user, es_peers):
        """A peer that left mid-request just means one fewer point."""
        gone = es_peers[0]
        sheriff.overlay.set_online(gone.peer_id, False)
        result = es_user.check_price(product_url(world))
        assert all(r.proxy_id != gone.peer_id for r in result.rows)
        assert result.valid_rows()

    def test_slow_ipc_timed_out(self, world, sheriff, es_user, es_peers):
        """IPCs above the slowdown budget model the 2-minute kill."""
        lagger = sheriff.ipcs[0]
        lagger.slowdown = 10.0
        try:
            result = es_user.check_price(product_url(world))
            assert all(r.proxy_id != lagger.ipc_id for r in result.rows)
        finally:
            lagger.slowdown = 1.0

    def test_ppc_error_reply_skipped(self, world, sheriff, es_user, es_peers):
        broken = es_peers[1]
        sheriff.overlay.get(broken.peer_id).handler = (
            lambda message: {"error": "boom"}
        )
        result = es_user.check_price(product_url(world))
        assert all(r.proxy_id != broken.peer_id for r in result.rows)


class TestExtractionFailures:
    def test_price_not_found_yields_error_row(self, world, sheriff, es_user):
        """A Tags Path that matches nothing produces an error row, not a
        crash — the job still completes."""
        from repro.core.measurement import PriceCheckJob

        server = sheriff.measurement_server("ms-0")
        url = product_url(world)
        response = es_user.browser.visit(url)
        ticket, ppcs = sheriff.coordinator.new_request(
            es_user.peer_id, url, es_user.browser.location
        )
        bogus_path = TagsPath(entries=("html", "body"), target="span.nope")
        job = PriceCheckJob(
            job_id=ticket.job_id, url=url, tags_path=bogus_path,
            requested_currency="EUR", initiator_peer_id=es_user.peer_id,
            initiator_html=response.html,
            initiator_location=es_user.browser.location,
            initiator_os="Linux", initiator_browser="Firefox",
            ppc_ids=ppcs,
        )
        result = server.result(server.submit(job))
        assert result.rows
        assert all(r.error == "price not found on page" for r in result.rows)
        assert result.valid_rows() == []
        assert sheriff.distributor.pending_jobs == 0

    def test_job_counter_released_on_selection_failure(
        self, world, sheriff, es_user
    ):
        world.internet.register(ContentSite("nopage.example"))
        sheriff.whitelist.add("nopage.example")
        from repro.core.addon import PriceSelectionError

        with pytest.raises(PriceSelectionError):
            es_user.check_price("http://nopage.example/product/x")
        assert sheriff.distributor.pending_jobs == 0


class TestResultConsistency:
    def test_all_rows_same_job(self, world, sheriff, es_user, es_peers):
        result = es_user.check_price(product_url(world))
        stored = sheriff.db.sp_responses_for_job(result.job_id)
        assert {r["job_id"] for r in stored} == {result.job_id}

    def test_diffstore_restores_proxy_pages(self, world, sheriff, es_user,
                                            es_peers):
        result = es_user.check_price(product_url(world))
        ipc_row = next(r for r in result.rows if r.kind == "IPC")
        restored = sheriff.diffstore.restore(result.job_id, ipc_row.proxy_id)
        assert "<html>" in restored
        assert result.domain in restored

    def test_line_index_released_after_fanout(self, world, sheriff, es_user,
                                              es_peers):
        """Only the running fan-out holds a reference line index."""
        es_user.check_price(product_url(world))
        assert sheriff.diffstore.diff_count() > 0
        assert sheriff.diffstore._active is None

    def test_simultaneous_fetches(self, world, sheriff, es_user, es_peers):
        """All measurement points observe the same simulated instant —
        the paper's temporal-variation control."""
        before = world.clock.now
        result = es_user.check_price(product_url(world))
        assert result.time == before
