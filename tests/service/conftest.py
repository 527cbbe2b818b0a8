"""Service fixtures: a client of the shared ``server`` fixture
(``tests/conftest.py``), a killable service and a sample request."""

import threading

import pytest

from repro.campaign import ResultCache
from repro.service import ServiceClient
from repro.service.server import make_server


class FlakyService:
    """A solver service that can be killed and restarted on the same port.

    The fault-injection counterpart of the ``server`` fixture: ``kill()``
    stops the HTTP transport (subsequent requests are connection
    refusals, exactly what a crashed service looks like to a client) and
    ``start()`` brings the service back on the *same* port over the same
    on-disk cache — the scenario the circuit-breaker backend and the
    jittered client retries exist for.
    """

    def __init__(self, cache_dir) -> None:
        self.cache_dir = cache_dir
        self.port = 0                       # first start picks a free port
        self.server = None
        self._thread = None
        self.restarts = -1

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def running(self) -> bool:
        return self.server is not None

    def start(self) -> str:
        assert self.server is None, "already running"
        srv = make_server(host="127.0.0.1", port=self.port,
                          cache=ResultCache(self.cache_dir))
        self.port = srv.server_address[1]
        self.server = srv
        self._thread = threading.Thread(target=srv.serve_forever,
                                        daemon=True)
        self._thread.start()
        self.restarts += 1
        return self.url

    def kill(self) -> None:
        srv, self.server = self.server, None
        if srv is None:
            return
        srv.shutdown()
        srv.server_close()
        srv.service.close()
        self._thread.join(timeout=5)
        self._thread = None


@pytest.fixture
def flaky_service(tmp_path):
    """A running :class:`FlakyService` (kill/restart at will)."""
    svc = FlakyService(tmp_path / "flaky-cache")
    svc.start()
    yield svc
    svc.kill()


@pytest.fixture
def client(server):
    return ServiceClient(server.url, timeout=30.0)


@pytest.fixture
def pipeline_request():
    """A polynomial (Thm 1) solve request: period of a hom pipeline."""
    return {
        "instance": {
            "kind": "instance",
            "application": {"kind": "pipeline", "works": [14, 4, 2, 4]},
            "platform": {"kind": "platform", "speeds": [1, 1, 1]},
            "allow_data_parallel": False,
        },
        "objective": "period",
    }
