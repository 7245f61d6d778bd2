"""The serve workload: start ``bpmax serve --http``, wait until it is
ready, and drive it with an open-loop load generator.

The gateway runs as its own process (``python3 -m repro serve --http``
at defaults), so its set-up time and peak RSS, with any processes it
starts, are measured from outside.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit


class GatewayError(RuntimeError):
    pass


def descendants(pid: int) -> list[int]:
    """All live descendant pids of ``pid`` (Linux ``/proc``)."""
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        for task in Path(f"/proc/{p}/task").glob("*"):
            try:
                kids = (task / "children").read_text().split()
            except OSError:
                continue
            for k in kids:
                out.append(int(k))
                todo.append(int(k))
    return out


def start_time(pid: int) -> int | None:
    """Start time of ``pid`` in clock ticks, or None once it has gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return int(stat.rsplit(")", 1)[1].split()[19])


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the peak resident sets (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            text = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in text.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024


class Conn:
    """One keep-alive connection; no retries."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parts = urlsplit(url)
        self._conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                                timeout=timeout)

    def request(self, method: str, path: str, body: dict | None = None):
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        self._conn.request(method, path, body=data, headers=headers)
        resp = self._conn.getresponse()
        payload = resp.read()
        try:
            return resp.status, json.loads(payload)
        except json.JSONDecodeError:
            return resp.status, {"raw": payload.decode(errors="replace")}

    def close(self) -> None:
        self._conn.close()


class Gateway:
    """A ``bpmax serve --http`` process, from spawn to ready to stopped."""

    def __init__(self, env: dict, warmups, ready_timeout: float = 60.0) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--http", "--port", "0"]
        self.known: dict[int, int | None] = {}  # pid -> start time
        self.stopped = False
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise GatewayError(f"gateway did not start: {line!r}")
            self.url = line.split("listening on ", 1)[1].split()[0]
            self.conn = Conn(self.url)
            self._wait_healthy(ready_timeout)
            self.ready_s = time.perf_counter() - t0
            self._warm_up(warmups)
            self.setup_s = time.perf_counter() - t0
            self.warmup_s = self.setup_s - self.ready_s
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, timeout: float) -> None:
        end = time.perf_counter() + timeout
        while time.perf_counter() < end:
            try:
                if self.conn.request("GET", "/healthz")[0] == 200:
                    return
            except (OSError, http.client.HTTPException):
                self.conn.close()
            time.sleep(0.01)
        raise GatewayError("gateway not healthy in time")

    def _warm_up(self, warmups: list[dict]) -> None:
        """One answered request of each kind, so that no cold code path
        is left for the timed window."""
        for req in warmups:
            status, body = self.conn.request("POST", "/v1/fold", req)
            if status != 200:
                raise GatewayError(f"warm-up failed: {status} {body}")

    def metrics(self) -> dict:
        return self.conn.request("GET", "/metrics")[1]

    def _remember(self) -> list[int]:
        pids = descendants(self.proc.pid)
        for pid in pids:
            self.known.setdefault(pid, start_time(pid))
        return pids

    def rss_mb(self) -> float:
        return peak_rss_mb([self.proc.pid] + self._remember())

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure nothing outlives it."""
        if self.stopped:
            return
        self.stopped = True
        conn = getattr(self, "conn", None)
        if conn is not None:
            conn.close()
        if self.proc.poll() is None:
            self._remember()
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        self.proc.stdout.close()
        for pid, started in self.known.items():
            # a worker the drain left behind, not a reused pid
            if started is not None and start_time(pid) == started:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def open_loop(url: str, requests: list[dict], rate: float,
              connections: int = 2) -> list[dict]:
    """Send ``requests`` on a fixed schedule of ``rate`` per second.

    Request ``i`` is due at ``start + i / rate``; whichever connection is
    free takes the next one, waits for its due time, and records the
    latency from the due time (so a stall also counts against the
    requests queued behind it) and how late it was sent.
    """
    lock = threading.Lock()
    nxt = iter(range(len(requests)))
    records: list[dict | None] = [None] * len(requests)
    start = time.perf_counter() + 0.05

    def worker() -> None:
        conn = Conn(url)
        try:
            while True:
                with lock:
                    i = next(nxt, None)
                if i is None:
                    return
                due = start + i / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    status, body = conn.request("POST", "/v1/fold", requests[i])
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    status, body = 0, {"error": repr(exc)}
                done = time.perf_counter()
                records[i] = {"status": status, "body": body,
                              "latency_s": done - due, "late_s": sent - due,
                              "done": done - start}
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return records
