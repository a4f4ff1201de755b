"""Client side of the sweep service: raw HTTP + a Runner-shaped adapter.

:class:`ServiceClient` speaks the broker's JSON API with a shared
:class:`~repro.runner.retry.RetryPolicy` reconnect loop — a broker
restart mid-call shows up as a few jittered retries, not an exception.

:class:`ServiceRunner` is the piece the rest of the codebase sees: it
quacks like :class:`repro.runner.Runner` (``run`` / ``run_job`` /
``result`` / ``events`` / ``close``), so ``Evaluation(runner=...)`` and
``repro-eval --service URL`` work unchanged and produce byte-identical
outputs — the results it returns are the same pickled objects a local
runner would have cached, fetched back through the broker's object
store and decoded through the same codec: dependency results first, in
graph order, so a payload's references resolve to them.  The broker's
per-sweep event stream is mirrored into the local
:class:`~repro.runner.events.EventLog` (``--events`` keeps working), so
cache-hit accounting is observable on the client exactly as it is
locally.

Correlation: every request carries the caller's current
:func:`repro.obs.logging.context_fields` as an ``X-Repro-Context``
header, and :class:`ServiceRunner` runs each sweep inside
``log_context(sweep_id=...)`` — so the broker's request logs, the
worker's job logs, and the client's own records all grep by the same
``sweep_id``/``job_key`` (``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
import uuid
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.logging import context_fields, get_logger, log_context
from repro.runner.cache import DECODE_ERRORS, DependencyTable, decode_payload
from repro.runner.events import EventLog
from repro.runner.graph import JobGraph
from repro.runner.jobs import Job, dependency_refs
from repro.runner.retry import RECONNECT_POLICY, RetryPolicy
from repro.service.wire import pack_graph


class ServiceError(RuntimeError):
    """The broker rejected a request, or a sweep finished with failures."""


class ServiceClient:
    """Thin JSON-over-HTTP wrapper for one broker."""

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        max_retries: int = 5,
    ):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self.retry = retry or RECONNECT_POLICY
        self.max_retries = max_retries

    # -- transport ------------------------------------------------------------

    def request_bytes(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        allow_404: bool = False,
    ) -> Optional[bytes]:
        """One HTTP round trip with reconnect retries.

        Connection-level faults (broker restarting, socket resets) retry
        with jittered backoff; HTTP-level errors surface immediately —
        the broker answered, it just said no.
        """
        data = (
            json.dumps(payload).encode("utf-8") if payload is not None else None
        )
        headers: Dict[str, str] = (
            {"Content-Type": "application/json"} if data else {}
        )
        context = {
            k: v
            for k, v in context_fields().items()
            if isinstance(v, (str, int, float, bool))
        }
        if context:
            # Propagate correlation IDs (sweep_id/job_key/worker_id) so
            # the broker's request logs join with ours.  Single header
            # line: keep it bounded and newline-free.
            header = json.dumps(context, default=str)[:2048]
            if "\n" not in header:
                headers["X-Repro-Context"] = header
        attempt = 0
        while True:
            request = urllib.request.Request(
                f"{self.url}{path}",
                data=data,
                method=method,
                headers=headers,
            )
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    return response.read()
            except urllib.error.HTTPError as exc:
                if exc.code == 404 and allow_404:
                    return None
                try:
                    detail = json.loads(exc.read() or b"{}").get("error", "")
                except (json.JSONDecodeError, OSError):
                    detail = ""
                raise ServiceError(
                    f"{method} {path}: HTTP {exc.code} {detail}".strip()
                ) from exc
            except (urllib.error.URLError, ConnectionError, OSError) as exc:
                attempt += 1
                if attempt > self.max_retries:
                    raise ServiceError(
                        f"broker unreachable at {self.url} after "
                        f"{attempt} attempt(s): {exc!r}"
                    ) from exc
                self.retry.sleep(attempt, token=f"{self.url}{path}")

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        body = self.request_bytes(method, path, payload)
        return json.loads(body or b"{}")

    # -- API ------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self.request("GET", "/healthz")

    def submit(self, jobs: Iterable[Job]) -> Dict[str, Any]:
        """Submit the full dependency closure of ``jobs``; return summary."""
        graph = JobGraph(jobs)
        return self.request("POST", "/sweeps", pack_graph(graph.jobs))

    def status(self, sweep_id: str) -> Dict[str, Any]:
        return self.request("GET", f"/sweeps/{sweep_id}")

    def events(self, sweep_id: str, since: int = 0) -> List[Dict[str, Any]]:
        body = self.request_bytes(
            "GET", f"/sweeps/{sweep_id}/events?since={since}"
        )
        records = []
        for line in (body or b"").splitlines():
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
        return records

    def lease(self, worker: str) -> Optional[Dict[str, Any]]:
        return self.request("POST", "/worker/lease", {"worker": worker}).get(
            "job"
        )

    def complete(
        self,
        worker: str,
        key: str,
        ok: bool,
        cached: bool = False,
        wall_time: float = 0.0,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        return self.request(
            "POST",
            "/worker/complete",
            {
                "worker": worker,
                "key": key,
                "ok": ok,
                "cached": cached,
                "wall_time": wall_time,
                "error": error,
            },
        )

    def heartbeat(
        self,
        worker: str,
        keys: List[str],
        stats: Optional[Dict[str, Any]] = None,
    ) -> int:
        payload: Dict[str, Any] = {"worker": worker, "keys": keys}
        if stats is not None:
            payload["stats"] = stats
        return int(
            self.request("POST", "/worker/heartbeat", payload).get(
                "extended", 0
            )
        )

    def workers(self) -> List[Dict[str, Any]]:
        """The broker's fleet view (``GET /workers``)."""
        return self.request("GET", "/workers").get("workers", [])

    def metrics_text(self) -> str:
        """The broker's Prometheus exposition (``GET /metrics``), raw."""
        body = self.request_bytes("GET", "/metrics")
        return (body or b"").decode("utf-8")

    def fetch_result_bytes(self, key: str) -> Optional[bytes]:
        return self.request_bytes("GET", f"/cache/{key}", allow_404=True)

    def cache_stats(self) -> Dict[str, Any]:
        return self.request("GET", "/cache/stats")


class ServiceRunner:
    """Runner-shaped adapter that executes job graphs on a remote broker.

    Args:
        url: broker base URL (``http://host:port``).
        events: local event log; the broker's per-sweep stream is
            mirrored into it (see :meth:`EventLog.replay`).
        poll: seconds between status polls while a sweep runs.
        timeout: overall ceiling on one ``run()`` call, ``None`` = wait
            forever.
        client: injectable :class:`ServiceClient` (tests).
    """

    def __init__(
        self,
        url: str,
        events: Optional[EventLog] = None,
        poll: float = 0.2,
        timeout: Optional[float] = None,
        client: Optional[ServiceClient] = None,
    ):
        self.client = client or ServiceClient(url)
        self.events = events if events is not None else EventLog()
        self.poll = poll
        self.timeout = timeout
        self.log = get_logger("repro.client")
        self._results: Dict[str, Any] = {}
        self._tables: Dict[str, DependencyTable] = {}

    # -- Runner protocol -------------------------------------------------------

    def run(self, jobs: Iterable[Job]) -> Dict[str, Any]:
        """Submit, await, and fetch back ``jobs`` (plus their closure)."""
        graph = JobGraph(jobs)
        t0 = time.monotonic()
        summary = self.client.submit(graph.jobs)
        sweep_id = summary["sweep_id"]
        with log_context(sweep_id=sweep_id):
            self.log.info(
                "sweep submitted",
                total=summary["total"],
                new=summary["new"],
                deduped=summary["deduped"],
            )
            self.events.emit(
                "run_start",
                total_jobs=summary["total"],
                jobs=0,
                sweep=sweep_id,
                deduped=summary["deduped"],
            )
            status = self._await(sweep_id)
            self._mirror_events(sweep_id)
            try:
                if not status.get("ok"):
                    failures = status.get("failed", [])
                    names = (
                        ", ".join(f["job"] for f in failures) or "unknown jobs"
                    )
                    self.log.error(
                        "sweep failed", failures=len(failures), jobs=names
                    )
                    raise ServiceError(
                        f"sweep {sweep_id} finished with "
                        f"{len(failures)} failed job(s): {names}"
                    )
                self._fetch_graph(graph)
                self.log.info(
                    "sweep finished",
                    seconds=round(time.monotonic() - t0, 6),
                    states=status.get("states"),
                )
                return {job.key(): self._results[job.key()] for job in graph.jobs}
            finally:
                self.events.emit(
                    "run_finish",
                    wall_time=round(time.monotonic() - t0, 6),
                    sweep=sweep_id,
                    **self.events.summary(),
                )

    def run_job(self, job: Job) -> Any:
        key = job.key()
        if key in self._results:
            return self._results[key]
        # Fast path: the result may already sit in the shared cache from
        # an earlier sweep — no need to submit a one-job sweep for it.
        try:
            self._fetch_graph(JobGraph([job]))
            return self._results[key]
        except (ServiceError, *DECODE_ERRORS):
            return self.run([job])[key]

    def result(self, job: Job) -> Any:
        return self._results[job.key()]

    def close(self) -> None:
        """Nothing to tear down — sweeps and cache live on the broker."""

    def __enter__(self) -> "ServiceRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- internals -------------------------------------------------------------

    def _await(self, sweep_id: str) -> Dict[str, Any]:
        deadline = (
            time.monotonic() + self.timeout if self.timeout is not None else None
        )
        while True:
            status = self.client.status(sweep_id)
            if status.get("done"):
                return status
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(
                    f"sweep {sweep_id} still running after {self.timeout}s: "
                    f"{status.get('states')}"
                )
            time.sleep(self.poll)

    def _mirror_events(self, sweep_id: str) -> None:
        for record in self.client.events(sweep_id):
            record.pop("seq", None)
            self.events.replay(record)

    def _fetch_graph(self, graph: JobGraph) -> None:
        for wave in graph.waves():
            for job in wave:
                self._fetch(job)

    def _fetch(self, job: Job) -> None:
        """Fetch and decode one result; its dependencies must be fetched."""
        key = job.key()
        if key in self._results:
            return
        payload = self.client.fetch_result_bytes(key)
        if payload is None:
            raise ServiceError(
                f"result for {job.job_id} ({key[:12]}…) missing from the "
                "broker cache — was it evicted mid-sweep?"
            )
        deps = {dep.key(): self._results[dep.key()] for dep in job.deps}
        self._results[key] = decode_payload(
            payload, dependency_refs(deps, self._tables)
        )


def worker_id() -> str:
    """A reasonably-unique worker identity (host + random suffix)."""
    import socket

    return f"{socket.gethostname()}-{uuid.uuid4().hex[:6]}"
