"""The server under test and the closed-loop client that loads it.

``Server`` owns one ``python -m repro serve --http 0 --workers 2
--trace-sample -1`` subprocess for the length of one workload: it
parses the announced endpoint, drains stderr on a thread so the server
can never block on the pipe, reads peak memory of the whole process
tree from ``/proc``, shuts down through the wire ``shutdown`` op, and in
every case kills what is left of the process group and then *checks*
that nothing is.  ``run_clients`` is the load: a fixed number of
keep-alive HTTP connections, each sending its next request only after
the previous reply has been read (callers of a prepared-query service
wait for their answer, hence a closed loop).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

_ENDPOINT = re.compile(r"http endpoint on http://([\d.]+):(\d+)")
_CLIENT_ERRORS = (OSError, http.client.HTTPException, ValueError)


class LeftoverProcess(RuntimeError):
    """A ``repro serve`` process outlived its workload."""


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * fraction
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


# -- /proc -------------------------------------------------------------------


def _proc_stat(pid: int) -> Optional[Tuple[int, str]]:
    """``(ppid, state)`` of a live process, else None."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]), fields[0]


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, from one scan of ``/proc``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(int(entry))
            if stat is not None:
                children.setdefault(stat[0], []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def _alive(pid: int) -> bool:
    stat = _proc_stat(pid)
    return stat is not None and stat[1] != "Z"


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Σ ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open("/proc/%d/status" % pid) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass  # exited between the scan and the read
    return total_kb / 1024.0


# -- the server --------------------------------------------------------------


class Server:
    """One ``repro serve --http`` subprocess and its process tree."""

    def __init__(self, src_dir: str, workers: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.stderr_tail: List[str] = []
        self.spawned_at = time.perf_counter()
        # Its own session, so that the fallback can kill the whole group.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--http", "0",
             "--workers", str(workers), "--trace-sample", "-1"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        self.host = ""
        self.port = 0
        self._tree: List[int] = [self.proc.pid]
        announced = threading.Event()
        self._drain = threading.Thread(
            target=self._drain_stderr, args=(announced,), daemon=True
        )
        self._drain.start()
        if not announced.wait(120.0) or not self.port:
            self.stop()
            raise RuntimeError(
                "server did not announce an http endpoint:\n%s" % "".join(self.stderr_tail)
            )
        self.announced_at = time.perf_counter()
        self._control = http.client.HTTPConnection(self.host, self.port, timeout=120.0)

    def _drain_stderr(self, announced: threading.Event) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            self.stderr_tail = self.stderr_tail[-19:] + [line]
            match = _ENDPOINT.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                announced.set()
        announced.set()  # EOF: the server died before announcing

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=120.0)

    def post(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One request on the control connection; raises unless ``ok``."""
        self._control.request("POST", "/", body=json.dumps(payload))
        response = json.loads(self._control.getresponse().read())
        if not response.get("ok"):
            raise RuntimeError("%s failed: %s" % (payload.get("op"), response))
        return response

    def get_json(self, path: str) -> Dict[str, Any]:
        self._control.request("GET", path)
        return json.loads(self._control.getresponse().read())

    def tree(self) -> List[int]:
        """The live process tree (also remembered for the leftover check)."""
        self._tree = sorted(set(self._tree) | set(process_tree(self.proc.pid)))
        return [pid for pid in self._tree if _alive(pid)]

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.tree())

    def stop(self) -> None:
        """Wire shutdown, then kill the group, then verify nothing is left."""
        try:
            if self.port and self.proc.poll() is None:
                self.tree()
                self.post({"op": "shutdown"})
                self.proc.wait(timeout=30.0)
        except _CLIENT_ERRORS + (RuntimeError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.port:
                self._control.close()
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            self.proc.wait(timeout=30.0)
            self._drain.join(timeout=10.0)
            if self.proc.stderr is not None:
                self.proc.stderr.close()
        deadline = time.monotonic() + 10.0
        leftover = [pid for pid in self._tree if _alive(pid)]
        while leftover and time.monotonic() < deadline:
            time.sleep(0.05)
            leftover = [pid for pid in leftover if _alive(pid)]
        if leftover:
            raise LeftoverProcess("repro serve left processes alive: %s" % leftover)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# -- the load ----------------------------------------------------------------

#: ``(payload, context)``: the wire request and what its check needs.
Request = Tuple[Dict[str, Any], Any]
#: ``check(context, response) -> bool``; runs off the clock.
Check = Callable[[Any, Any], bool]


class Tally:
    """What one connection saw: ok latencies, attempts, failures."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def merge(self, other: "Tally") -> None:
        self.latencies.extend(other.latencies)
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_failure = self.first_failure or other.first_failure


def exchange(
    conn: http.client.HTTPConnection, payload: Dict[str, Any]
) -> Tuple[float, Any]:
    """Send one request; ``(seconds until the body was read, response)``.

    The clock stops when the reply bytes are in hand: decoding them is
    the client's cost, not the service's.
    """
    body = json.dumps(payload)
    started = time.perf_counter()
    conn.request("POST", "/", body=body)
    raw = conn.getresponse().read()
    elapsed = time.perf_counter() - started
    return elapsed, json.loads(raw)


def client_loop(
    server: Server,
    requests: Iterator[Request],
    check: Check,
    tally: Tally,
    stop_at: Optional[float],
    after: Optional[Callable[[http.client.HTTPConnection, Any], bool]] = None,
) -> None:
    """One keep-alive connection, closed loop, until ``stop_at`` or exhaustion.

    A request that is sent counts as attempted; it counts as ok only if
    the reply arrived, parsed, and passed ``check`` — and ``after``,
    which runs once per checked reply, off the clock (``adhoc_prepare``
    closes the handle there).
    """
    conn = server.connect()
    try:
        for payload, context in requests:
            if stop_at is not None and time.perf_counter() >= stop_at:
                break
            tally.attempted += 1
            try:
                elapsed, response = exchange(conn, payload)
            except _CLIENT_ERRORS as exc:
                tally.failed += 1
                tally.first_failure = tally.first_failure or "%s: %s" % (
                    type(exc).__name__, exc)
                conn.close()
                conn = server.connect()
                continue
            if check(context, response) and (after is None or after(conn, response)):
                tally.latencies.append(elapsed)
            else:
                tally.failed += 1
                tally.first_failure = tally.first_failure or json.dumps(response)[:300]
    finally:
        conn.close()


def run_clients(
    server: Server,
    streams: Sequence[Iterator[Request]],
    check: Check,
    seconds: Optional[float],
    after: Optional[Callable[[http.client.HTTPConnection, Any], bool]] = None,
) -> Tuple[Tally, float]:
    """One thread per stream; returns the merged tally and the wall time."""
    tallies = [Tally() for _ in streams]
    started = time.perf_counter()
    stop_at = None if seconds is None else started + seconds
    with ThreadPoolExecutor(max_workers=len(streams)) as pool:
        futures = [
            pool.submit(client_loop, server, stream, check, tally, stop_at, after)
            for stream, tally in zip(streams, tallies)
        ]
        for future in futures:
            future.result()  # a bug in a client thread must fail the run
    elapsed = time.perf_counter() - started
    total = Tally()
    for tally in tallies:
        total.merge(tally)
    return total, elapsed
