"""Coordinator failure paths: retry exhaustion, resolved tickets, backoff.

The happy path (assign → complete) is pinned all over the suite; these
tests pin the edges the queue tier leans on — what happens when a job's
retry budget runs dry, when a reassignment races a terminal state, and
how the backoff schedule grows between attempts.
"""

import pytest

from repro.core.coordinator import RetryBudgetExhausted
from repro.core.errors import UnknownJob
from repro.net.faults import BackoffPolicy

from .test_progressive_and_pii import product_url


def _mint_job(world, sheriff, es_user):
    url = product_url(world)
    ticket, _ = sheriff.coordinator.new_request(
        es_user.peer_id, url, es_user.browser.location
    )
    return ticket


class TestRetryExhaustion:
    def test_fail_job_after_budget_runs_dry(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        # budget is 3 assignments total; the first came with the ticket
        coordinator.reassign_job(ticket.job_id)
        coordinator.reassign_job(ticket.job_id)
        with pytest.raises(RetryBudgetExhausted):
            coordinator.reassign_job(ticket.job_id)
        record = coordinator.jobs[ticket.job_id]
        assert record.attempts == coordinator.retry_budget
        assert not record.resolved

        coordinator.fail_job(ticket.job_id, "retry budget exhausted")
        assert record.failed
        assert record.failure_reason == "retry budget exhausted"
        assert coordinator.jobs_failed == 1
        assert coordinator.pending_jobs() == 0

    def test_fail_job_is_idempotent(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "first report")
        coordinator.fail_job(ticket.job_id, "second report")
        record = coordinator.jobs[ticket.job_id]
        assert coordinator.jobs_failed == 1
        assert record.failure_reason == "first report"

    def test_late_completion_of_failed_job_is_ignored(
        self, world, sheriff, es_user
    ):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "gone")
        coordinator.job_completed(ticket.job_id)
        record = coordinator.jobs[ticket.job_id]
        assert record.failed and not record.completed

    def test_fail_job_unknown_id(self, sheriff):
        with pytest.raises(UnknownJob):
            sheriff.coordinator.fail_job("job-nope", "reason")


class TestReassignResolvedTicket:
    def test_reassign_completed_job_raises(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.job_completed(ticket.job_id)
        with pytest.raises(UnknownJob, match="already resolved"):
            coordinator.reassign_job(ticket.job_id)

    def test_reassign_failed_job_raises(self, world, sheriff, es_user):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.fail_job(ticket.job_id, "dead")
        with pytest.raises(UnknownJob, match="already resolved"):
            coordinator.reassign_job(ticket.job_id)

    def test_transfer_resolved_or_unknown_job_raises(
        self, world, sheriff, es_user
    ):
        coordinator = sheriff.coordinator
        ticket = _mint_job(world, sheriff, es_user)
        coordinator.job_completed(ticket.job_id)
        with pytest.raises(UnknownJob, match="already resolved"):
            coordinator.transfer_job(ticket.job_id, "server-01")
        with pytest.raises(UnknownJob):
            coordinator.transfer_job("job-nope", "server-01")


class TestBackoffSchedule:
    def test_delay_monotone_and_capped_without_jitter(self):
        policy = BackoffPolicy(jitter=0.0)
        delays = [policy.delay(attempt) for attempt in range(12)]
        assert delays[0] == policy.base
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert max(delays) == policy.cap
        assert delays[-1] == policy.cap

    def test_next_backoff_accounts_and_grows(self, sheriff):
        coordinator = sheriff.coordinator
        coordinator.backoff = BackoffPolicy(jitter=0.0)
        delays = [coordinator.next_backoff(attempt) for attempt in range(5)]
        assert all(a <= b for a, b in zip(delays, delays[1:]))
        assert coordinator.backoff_seconds == pytest.approx(sum(delays))

    def test_jitter_stays_within_band(self, sheriff):
        coordinator = sheriff.coordinator
        policy = coordinator.backoff
        for attempt in range(8):
            raw = min(policy.cap, policy.base * policy.factor ** attempt)
            delay = coordinator.next_backoff(attempt)
            assert raw * (1 - policy.jitter) <= delay <= raw * (1 + policy.jitter)


class TestNoServerAtFirstAssignment:
    def test_all_servers_offline_fails_the_job(self, world, sheriff, es_user):
        """The first assignment reports the job failed, as a
        reassignment does, instead of leaking NoServerAvailable."""
        from repro.core.errors import PriceCheckFailed

        coordinator = sheriff.coordinator
        distributor = coordinator.distributor
        for record in distributor.servers():
            record.online = False
        before = distributor.assignments
        with pytest.raises(PriceCheckFailed) as raised:
            es_user.check_price(product_url(world))
        job = coordinator.jobs[raised.value.job_id]
        assert job.failed and job.attempts == 0
        assert job.failure_reason == "no online Measurement server"
        assert coordinator.jobs_failed == 1
        assert coordinator.failed_jobs() == [job]
        # nothing was assigned, so nothing was released on a server
        assert distributor.assignments == before
        assert distributor.failures == 0
        assert coordinator.pending_jobs() == 0
