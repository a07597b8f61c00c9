"""Transport conformance suite: both backends, one behavioural contract.

Every test runs against :class:`SimTransport` and
:class:`SocketTransport` via the parametrized fixture — the point of
the Transport seam is that components cannot tell the backends apart,
so the contract (error taxonomy, timeout mapping, frame limits, payload
normalisation, shutdown semantics) is pinned once for both.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.net.faults import BackoffPolicy
from repro.net.protocol import FrameTooLarge
from repro.net.sim import NetworkError, NetworkTimeout
from repro.net.socket_transport import SocketTransport
from repro.net.transport import RemoteCallError, SimTransport

#: small frame limit so oversize tests don't shuffle megabytes
SMALL_FRAME = 64 * 1024


def conformance_handler(method, payload):
    if method == "echo":
        return payload
    if method == "slow":
        time.sleep(0.3)
        return "late"
    if method == "fail":
        raise ValueError("boom")
    if method == "neterr":
        raise NetworkError("synthetic outage")
    if method == "big_reply":
        return "x" * (SMALL_FRAME + 1024)
    raise KeyError(method)


@pytest.fixture(params=["sim", "socket"])
def transport(request):
    if request.param == "sim":
        t = SimTransport(max_frame_bytes=SMALL_FRAME)
    else:
        t = SocketTransport(
            max_frame_bytes=SMALL_FRAME,
            connect_timeout=1.0,
            call_timeout=10.0,
            backoff=BackoffPolicy(base=0.01, factor=2.0, cap=0.05, jitter=0.0),
            reconnect_attempts=2,
        )
    t.bind("server", conformance_handler)
    t.register_client("client")
    yield t
    t.close()


class TestCallContract:
    def test_round_trip(self, transport):
        assert transport.call("client", "server", "echo", {"n": 7}) == {"n": 7}

    def test_payload_normalized_through_codec(self, transport):
        """Tuples arrive as lists on BOTH backends — the codec, not the
        carrier, defines the data model."""
        result = transport.call(
            "client", "server", "echo", {"t": (1, 2), "rows": ({"a": (3,)},)}
        )
        assert result == {"t": [1, 2], "rows": [{"a": [3]}]}

    def test_none_payload(self, transport):
        assert transport.call("client", "server", "echo") is None

    def test_endpoints_listed(self, transport):
        names = transport.endpoints()
        assert "server" in names

    def test_unknown_dst_raises_network_error(self, transport):
        with pytest.raises(NetworkError):
            transport.call("client", "server-404", "echo", 1)

    def test_unknown_src_raises_network_error(self, transport):
        with pytest.raises(NetworkError):
            transport.call("nobody", "server", "echo", 1)


class TestErrorTaxonomy:
    def test_remote_exception_maps_to_remote_call_error(self, transport):
        with pytest.raises(RemoteCallError) as err:
            transport.call("client", "server", "fail")
        assert err.value.kind == "ValueError"
        assert "boom" in str(err.value)

    def test_remote_network_error_stays_network_error(self, transport):
        with pytest.raises(NetworkError) as err:
            transport.call("client", "server", "neterr")
        assert not isinstance(err.value, (NetworkTimeout, RemoteCallError))

    def test_timeout_maps_to_network_timeout(self, transport):
        with pytest.raises(NetworkTimeout):
            transport.call("client", "server", "slow", timeout=1e-6)

    def test_usable_after_timeout(self, transport):
        with pytest.raises(NetworkTimeout):
            transport.call("client", "server", "slow", timeout=1e-6)
        assert transport.call("client", "server", "echo", "ok") == "ok"


class TestFrameLimits:
    def test_oversized_request_rejected_before_sending(self, transport):
        with pytest.raises(FrameTooLarge):
            transport.call(
                "client", "server", "echo", {"blob": "x" * (SMALL_FRAME + 1)}
            )

    def test_oversized_reply_surfaces_as_network_error(self, transport):
        """The receiver-side limit arrives as a delivery failure, never
        a truncated result."""
        with pytest.raises(NetworkError):
            transport.call("client", "server", "big_reply")


class TestOfflinePeers:
    def test_offline_endpoint_raises_network_error(self, transport):
        transport.take_offline("server")
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)

    def test_restart_restores_service(self, transport):
        transport.take_offline("server")
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)
        transport.restart_endpoint("server")
        assert transport.call("client", "server", "echo", "back") == "back"

    def test_unbound_endpoint_unreachable(self, transport):
        transport.unbind("server")
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)


class TestConcurrency:
    def test_concurrent_calls_return_their_own_results(self, transport):
        """N threads in flight at once; every reply pairs with its call
        (the call_id multiplexing contract)."""
        results = [None] * 12
        errors = []

        def one(i):
            try:
                results[i] = transport.call("client", "server", "echo", {"i": i})
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert errors == []
        assert results == [{"i": i} for i in range(12)]


class TestShutdown:
    def test_closed_transport_refuses_calls(self, transport):
        transport.close()
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)

    def test_clean_shutdown_mid_call(self, transport):
        """close() while a call is in flight neither hangs nor corrupts:
        the straggler either completes or fails as a NetworkError, and
        the transport refuses new work afterwards."""
        outcome = {}

        def straggler():
            try:
                outcome["result"] = transport.call("client", "server", "slow")
            except NetworkError as exc:
                outcome["error"] = exc

        t = threading.Thread(target=straggler)
        t.start()
        time.sleep(0.05)
        transport.close()
        t.join(timeout=30)
        assert not t.is_alive()
        assert "result" in outcome or "error" in outcome
        with pytest.raises(NetworkError):
            transport.call("client", "server", "echo", 1)


_SILENT_SHUTDOWN = textwrap.dedent("""
    from repro.clients.ipc import DEFAULT_IPC_SITES
    from repro.core.sheriff import PriceSheriff, SheriffWorld
    from repro.workloads.stores import build_named_stores, uniform_store_specs

    world = SheriffWorld.create(seed=2017)
    specs = uniform_store_specs(1, seed=2020)
    store = build_named_stores(world, specs)[specs[0].domain]
    sheriff = PriceSheriff(world, n_measurement_servers=2,
                           ipc_sites=DEFAULT_IPC_SITES[:3], transport="socket")
    addon = sheriff.install_addon(world.make_browser("ES"))
    addon.check_price(store.product_url(store.catalog.products[0].product_id))
    sheriff.shutdown()
    print("ok")
""")


def test_socket_deployment_shutdown_writes_nothing_to_stderr():
    """Shutting a socket deployment down after real traffic leaves no
    CancelledError tracebacks from its open connections."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SILENT_SHUTDOWN],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
    assert proc.stderr == ""
