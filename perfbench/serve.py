"""The serving workloads: a ``repro-numa serve`` child driven over TCP.

One client process, one thread.  Load goes out over two persistent
connections as an open loop: request ``i`` is due at ``i / rate`` and
is timed from that instant, so a stalled server (or a late generator)
shows up as latency.  Each over-64-KiB line goes out on its own
short-lived connection, because the server's reaction to it is to drop
the connection it arrived on.

Two workloads share the code and differ only in server flags and mix:

* ``serve_hits`` -- the reference host with its default warm set; the
  mix is warm ``predict_eq1``/``advise``/``classify``/``plan`` calls,
  ``health``/``ready``/``metrics``, and soak-style hostile lines, so
  every answer comes from tier 1 or 2 and the solver does nothing.
* ``serve_churn`` -- ``hp-blade-32n`` with ``--tier-max-staleness 0``:
  every solver-backed request is a tier-3 re-characterization, spread
  over 32 targets x 2 modes, with ``health``/``ready`` in between.
"""

from __future__ import annotations

import gc
import json
import math
import random
import selectors
import socket
import subprocess
import time
from dataclasses import dataclass, field

from common import (
    OUT,
    BenchError,
    cli_argv,
    median,
    proc_peak_rss_mb,
    program_env,
    quantile,
    stop,
)

#: JSON-RPC codes the hostile lines must come back with.
CODES = {
    "invalid_params": -32602,
    "method_not_found": -32601,
    "deadline_exceeded": -32001,
    "parse_error": -32700,
    "invalid_request": -32600,
}
#: Errors that are refusals under load, not wrong answers.
REFUSALS = ("overloaded", "deadline_exceeded", "shutting_down")
#: The server reads lines with asyncio's default 64 KiB limit.
OVERSIZE_BYTES = 64 * 1024 + 4096
#: Tier-1/2 answers stay within this share of tier 3 (docs/service.md).
TIER_TOLERANCE = 0.05
#: Keys that legitimately differ between a fast-tier and a tier-3 answer.
TIER_KEYS = ("tier", "staleness_s", "source", "fit_rel_err_bound")


@dataclass(frozen=True)
class Profile:
    """One serving workload: server flags, mix and rate ladder."""

    name: str
    global_args: tuple  # before the subcommand (``--machine``)
    serve_args: tuple
    ladder: tuple  # offered solver-backed requests/s, ascending
    # The lowest rung: on a contended 2-vCPU host the server's capacity
    # has dropped to ~1000 hits/s and ~90 solves/s, and a reference
    # step near capacity would measure queueing, not the server.
    reference_rate: float
    p99_limit_ms: float
    oversize_share: float  # of the lines in the reference step
    window: int  # in-flight requests per connection when saturated


HITS = Profile(
    name="serve_hits",
    global_args=(),
    serve_args=(),
    ladder=(500.0, 1000.0, 2000.0, 3000.0, 4000.0),
    reference_rate=500.0,
    p99_limit_ms=5.0,
    oversize_share=0.002,
    window=4,
)
CHURN = Profile(
    name="serve_churn",
    global_args=("--machine", "hp-blade-32n"),
    serve_args=("--tier-max-staleness", "0"),
    ladder=(25.0, 50.0, 100.0, 150.0, 200.0),
    reference_rate=25.0,
    p99_limit_ms=100.0,
    oversize_share=0.0,
    window=2,
)
PROFILES = {p.name: p for p in (HITS, CHURN)}


# --- the server child --------------------------------------------------------


class Server:
    """A ``repro-numa serve --port 0`` child, up until :meth:`close`."""

    def __init__(self, profile: Profile, tag: str) -> None:
        OUT.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT / f"server-{profile.name}-{tag}.log"
        self._log = open(self.log_path, "w+")
        argv = cli_argv(*profile.global_args, "serve", "--port", "0",
                        *profile.serve_args)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=program_env(), stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        try:
            self.port = self._await_port(timeout=60.0)
            self._await_ready(timeout=120.0)
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self, timeout: float) -> int:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited early; see {self.log_path}")
            self._log.seek(0)
            for line in self._log.read().splitlines():
                if line.startswith("serving ") and " on " in line:
                    return int(line.split(" on ", 1)[1].split()[0].rsplit(":", 1)[1])
            time.sleep(0.002)
        raise BenchError(f"server never bound a port; see {self.log_path}")

    def _await_ready(self, timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as sock:
            rpc = LineRPC(sock)
            while time.perf_counter() < deadline:
                if rpc.call("ready")["result"]["ready"]:
                    return
                time.sleep(0.002)
        raise BenchError("server never became ready")

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        stop(self.proc)
        self._log.close()


class LineRPC:
    """Blocking one-at-a-time JSON-RPC over a socket (set-up and scrapes)."""

    def __init__(self, sock: socket.socket) -> None:
        self.file = sock.makefile("rwb")
        self.next_id = 0

    def call(self, method: str, params: dict | None = None) -> dict:
        self.next_id += 1
        msg = {"jsonrpc": "2.0", "id": self.next_id, "method": method}
        if params is not None:
            msg["params"] = params
        self.file.write((json.dumps(msg) + "\n").encode())
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise BenchError(f"server closed the connection on {method}")
        reply = json.loads(line)
        if reply.get("id") != self.next_id:
            raise BenchError(f"{method}: reply id {reply.get('id')} != {self.next_id}")
        return reply


def scrape(port: int, method: str = "metrics", params: dict | None = None) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        reply = LineRPC(sock).call(method, params)
    if "result" not in reply:
        raise BenchError(f"{method} failed: {reply}")
    return reply["result"]


# --- the traffic -------------------------------------------------------------


@dataclass
class Req:
    """One line to send: when, on which connection, and what must return."""

    due: float  # seconds after the phase starts
    conn: int  # 0/1 persistent connection; -1 = its own connection
    rid: int
    payload: bytes
    kind: str  # hit | solve | meta | hostile | oversize
    expect: "int | None" = None  # JSON-RPC error code, None = a result
    key: "str | None" = None  # reference-answer key for result checks


def _line(rid: int, method: str, params: dict | None = None) -> bytes:
    msg = {"jsonrpc": "2.0", "id": rid, "method": method}
    if params is not None:
        msg["params"] = params
    return (json.dumps(msg, sort_keys=True, separators=(",", ":")) + "\n").encode()


class Mix:
    """Seeded request mix.  Solver-backed requests come from a fixed pool
    of distinct calls, so each can be checked against its reference."""

    def __init__(self, profile: Profile, seed: int, machine) -> None:
        self.profile = profile
        self.rng = random.Random(seed)
        nodes = list(machine.node_ids)
        rng = random.Random(seed ^ 0x5EED)
        self.pool: list[tuple[str, dict]] = []
        if profile is HITS:
            device = sorted({d.node_id for d in machine.devices.values()})
            for _ in range(48):
                target = rng.choice(device)
                mode = rng.choice(("write", "read"))
                roll = rng.randrange(70)
                if roll < 30:
                    call = ("advise", {"target": target, "mode": mode,
                                       "tasks": rng.randint(1, 8),
                                       "avoid_irq_node": rng.random() < 0.5})
                elif roll < 45:
                    streams = [rng.choice(nodes) for _ in range(rng.randint(1, 4))]
                    call = ("predict_eq1", {"target": target, "mode": mode,
                                            "streams": streams})
                elif roll < 55:
                    call = ("classify", {"target": target, "mode": mode})
                else:
                    call = ("plan", {"write_weight": round(rng.random(), 3)})
                self.pool.append(call)
        else:
            # Every (target, mode) of the host, each with one method.
            for target in nodes:
                for mode in ("write", "read"):
                    roll = rng.randrange(3)
                    if roll == 0:
                        call = ("advise", {"target": target, "mode": mode,
                                           "tasks": rng.randint(1, 16)})
                    elif roll == 1:
                        streams = [rng.choice(nodes) for _ in range(rng.randint(1, 4))]
                        call = ("predict_eq1", {"target": target, "mode": mode,
                                                "streams": streams})
                    else:
                        call = ("classify", {"target": target, "mode": mode})
                    self.pool.append(call)
            rng.shuffle(self.pool)
        self.hostile_target = self.pool[0][1].get("target", 0)
        self.next_rid = 1

    @staticmethod
    def key(method: str, params: dict) -> str:
        return json.dumps([method, params], sort_keys=True)

    def _rid(self) -> int:
        rid = self.next_rid
        self.next_rid += 1
        return rid

    def phase(self, rate: float, seconds: float, oversize_share: float) -> list[Req]:
        """An open-loop schedule of ``rate`` solver-backed requests/s."""
        rng = self.rng
        reqs: list[Req] = []
        n = max(1, int(rate * seconds))
        slot = 0
        for i in range(n):
            due = i / rate
            slot += 1
            if self.profile is CHURN:
                # health/ready between solves: one after every third one.
                self._solver_backed(reqs, due, slot)
                if i % 3 == 2:
                    slot += 1
                    method = rng.choice(("health", "ready"))
                    rid = self._rid()
                    reqs.append(Req(due + 0.5 / rate, slot % 2, rid,
                                    _line(rid, method), "meta"))
                continue
            roll = rng.randrange(100)
            if roll < 70:
                self._solver_backed(reqs, due, slot)
            elif roll < 80:
                method = rng.choice(("health", "health", "ready", "ready", "metrics"))
                rid = self._rid()
                reqs.append(Req(due, slot % 2, rid, _line(rid, method), "meta"))
            else:
                reqs.append(self._hostile(due, slot % 2, roll))
            if oversize_share and rng.random() < oversize_share:
                rid = self._rid()
                pad = "x" * OVERSIZE_BYTES
                reqs.append(Req(due, -1, rid,
                                _line(rid, "health", {"pad": pad}),
                                "oversize", CODES["invalid_request"]))
        reqs.sort(key=lambda r: r.due)
        return reqs

    def _solver_backed(self, reqs: list, due: float, slot: int) -> None:
        method, params = self.rng.choice(self.pool)
        rid = self._rid()
        kind = "hit" if self.profile is HITS else "solve"
        reqs.append(Req(due, slot % 2, rid, _line(rid, method, params), kind,
                        key=self.key(method, params)))

    def _hostile(self, due: float, conn: int, roll: int) -> Req:
        """The soak's hostile kinds, in the soak's proportions."""
        rid = self._rid()
        target = self.hostile_target
        if roll < 86:
            return Req(due, conn, rid, _line(rid, "advise", {
                "target": target, "mode": "sideways", "tasks": 0,
            }), "hostile", CODES["invalid_params"])
        if roll < 90:
            return Req(due, conn, rid, _line(rid, "evacuate"), "hostile",
                       CODES["method_not_found"])
        if roll < 95:
            return Req(due, conn, rid, _line(rid, "classify", {
                "target": target, "mode": "write", "deadline_ms": 0,
            }), "hostile", CODES["deadline_exceeded"])
        junk = ('{"jsonrpc": "2.0", "id": %d, oops\n' % rid).encode()
        return Req(due, conn, rid, junk, "hostile", CODES["parse_error"])


# --- reference answers -------------------------------------------------------


def reference_answers(machine, pool) -> dict[str, dict]:
    """A tier-3 answer for every pooled call, solved in this process.

    ``tier_max_staleness_s=0`` makes every call a genuine re-solve; the
    registry and run count are the server's defaults, so tier-3 answers
    served over the wire must equal these exactly.
    """
    from repro.service import AdvisoryBackend

    backend = AdvisoryBackend(machine, tier_max_staleness_s=0.0)
    out = {}
    for method, params in pool:
        answer = getattr(backend, method)(**params)
        if answer["tier"] != 3:
            raise BenchError(f"reference {method} answered from tier {answer['tier']}")
        out[Mix.key(method, params)] = json.loads(json.dumps(answer))
    return out


def agrees(fast, ref, tolerance: float) -> bool:
    """Numbers within ``tolerance`` (relative), everything else equal."""
    if isinstance(fast, dict) and isinstance(ref, dict):
        keys = set(fast) - set(TIER_KEYS)
        if keys != set(ref) - set(TIER_KEYS):
            return False
        return all(agrees(fast[k], ref[k], tolerance) for k in keys)
    if isinstance(fast, list) and isinstance(ref, list):
        return len(fast) == len(ref) and all(
            agrees(a, b, tolerance) for a, b in zip(fast, ref)
        )
    if isinstance(fast, float) or isinstance(ref, float):
        if isinstance(fast, bool) or isinstance(ref, bool):
            return fast == ref
        return abs(fast - ref) <= tolerance * max(abs(ref), 1e-12)
    return fast == ref


def eq1_served_rel_err(port: int, machine) -> float:
    """The paper's Eq. 1 test, answered by the running server.

    Streams (2, 2, 0, 0) read at node 7: the served class fractions and
    class membership, mapped through the simulated RDMA_READ node sweep
    as the paper does, against the simulated mixture aggregate.
    """
    from repro.bench.fio import FioRunner
    from repro.bench.jobfile import FioJob
    from repro.experiments.sweeps import operation_sweep
    from repro.rng import RngRegistry

    streams = [2, 2, 0, 0]
    served = scrape(port, "predict_eq1",
                    {"target": 7, "mode": "read", "streams": streams})
    classes = scrape(port, "classify", {"target": 7, "mode": "read"})["classes"]
    members = {str(c["rank"]): c["node_ids"] for c in classes}
    runner = FioRunner(machine, registry=RngRegistry())
    sweep = operation_sweep(runner, "rdma", "read", numjobs=4)
    predicted = sum(
        share * sum(sweep[n] for n in members[rank]) / len(members[rank])
        for rank, share in served["class_fractions"].items()
    )
    mixed = runner.run(FioJob(
        name="eq1-mixture", engine="rdma", rw="read",
        numjobs=len(streams), stream_nodes=tuple(streams),
    )).aggregate_gbps
    return abs(predicted - mixed) / mixed


# --- the load generator ------------------------------------------------------


@dataclass
class PhaseResult:
    rate: float
    seconds: float
    latency_s: dict = field(default_factory=dict)  # kind -> [s, ...]
    lag_s: list = field(default_factory=list)
    attempted: int = 0
    refused: int = 0  # typed refusals and lost replies
    oversize_sent: int = 0
    oversize_failed: int = 0
    wrong: list = field(default_factory=list)  # correctness-gate failures
    tiers: dict = field(default_factory=dict)
    # (finish time, latency) of each correct solver-backed answer
    done_lat: list = field(default_factory=list)
    started: float = 0.0
    sending_until: float = math.inf

    def _windows(self, window_s: float) -> list[list[float]]:
        """Solver-backed latencies by the whole window they finished in."""
        count = int((self.sending_until - self.started) / window_s)
        windows: list[list[float]] = [[] for _ in range(count)]
        for t, latency in self.done_lat:
            k = int((t - self.started) / window_s)
            if 0 <= k < count:
                windows[k].append(latency)
        return windows

    def best_second_p50_ms(self) -> float:
        """The lowest per-second median latency (ms) of the phase."""
        p50s = [median(w) for w in self._windows(1.0) if len(w) >= 5]
        if not p50s:
            raise BenchError("no whole second with enough answers")
        return 1e3 * min(p50s)

    def best_second_rate(self) -> float:
        """The most correct solver-backed answers in one second."""
        counts = [len(w) for w in self._windows(1.0)]
        if not counts:
            raise BenchError("phase shorter than one second")
        return float(max(counts))

    def goodput(self) -> float:
        """Correct solver-backed answers per second while sending."""
        done = [t for t, _lat in self.done_lat if t <= self.sending_until]
        if len(done) < 2 or done[-1] <= done[0]:
            raise BenchError("too few completions to rate")
        return (len(done) - 1) / (done[-1] - done[0])

    def latencies(self, kind: str) -> list:
        return self.latency_s.get(kind, [])

    def p(self, kind: str, q: float) -> float:
        """Latency quantile in ms; refused requests count as missing."""
        return quantile(self.latencies(kind), q) * 1000.0


class _Conn:
    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.buf = b""
        self.out: list[bytes] = []
        self.junk: list[int] = []  # outstanding parse-junk request indexes
        self.inflight = 0


class LoadClient:
    """Open-loop load over two persistent connections, one thread."""

    def __init__(self, port: int, references: dict, exact: bool) -> None:
        self.port = port
        self.references = references
        self.tiers_allowed: tuple = (1, 2, 3)
        self.tolerance = 0.0 if exact else TIER_TOLERANCE
        self.conns = [_Conn(self._connect()) for _ in range(2)]
        self.checked: dict[bytes, bool] = {}

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def close(self) -> None:
        for conn in self.conns:
            conn.sock.close()

    def run(self, reqs: list[Req], rate: float, seconds: float,
            drain_s: float, window: "int | None" = None) -> PhaseResult:
        """Send ``reqs`` and judge every reply.

        Open loop (``window=None``): each request goes out when due.
        Closed loop: each connection keeps ``window`` requests in
        flight and sends its next one as a reply lands, for
        ``seconds``; ``rate`` is then only a label.
        """
        res = PhaseResult(rate=rate, seconds=seconds)
        # select(2) takes microsecond timeouts; epoll rounds up to whole
        # milliseconds, which would make the generator late by design.
        sel = selectors.SelectSelector()
        for index, conn in enumerate(self.conns):
            sel.register(conn.sock, selectors.EVENT_READ, index)
            conn.inflight = 0
        queues = [[k for k, r in enumerate(reqs) if r.conn == c] for c in (0, 1)]
        heads = [0, 0]
        pending: dict[tuple[int, int], int] = {}
        due_at = [0.0] * len(reqs)
        shorts: dict[socket.socket, int] = {}
        n = len(reqs)
        i = 0
        gc.collect()
        gc.disable()  # a collection pause would read as server latency
        t0 = time.perf_counter() + 0.005
        if window is None:
            stop_sending = t0 + (reqs[-1].due if reqs else 0.0)
        else:
            stop_sending = t0 + seconds
        res.started = t0
        res.sending_until = stop_sending
        end = stop_sending + drain_s
        while True:
            now = time.perf_counter()
            due: list[int] = []
            if window is None:
                while i < n and t0 + reqs[i].due <= now:
                    due.append(i)
                    i += 1
            elif now < stop_sending:
                for c, conn in enumerate(self.conns):
                    queue = queues[c]
                    while conn.inflight < window and heads[c] < len(queue):
                        due.append(queue[heads[c]])
                        heads[c] += 1
                        conn.inflight += 1
            for k in due:
                req = reqs[k]
                due_at[k] = t0 + req.due if window is None else now
                res.lag_s.append(now - due_at[k])
                res.attempted += 1
                if req.conn < 0:
                    res.oversize_sent += 1
                    sock = self._send_short(req.payload)
                    if sock is None:
                        res.oversize_failed += 1
                    else:
                        shorts[sock] = k
                        sel.register(sock, selectors.EVENT_READ, -1)
                    continue
                conn = self.conns[req.conn]
                conn.out.append(req.payload)
                if req.expect == CODES["parse_error"]:
                    conn.junk.append(k)
                else:
                    pending[(req.conn, req.rid)] = k
            for conn in self.conns:
                if conn.out:
                    conn.sock.sendall(b"".join(conn.out))
                    conn.out.clear()
            waiting = pending or shorts or any(c.junk for c in self.conns)
            if window is None:
                if i >= n and not waiting:
                    break
            elif now >= stop_sending and not waiting:
                break
            if now > end:
                break
            if window is None and i < n:
                timeout = max(0.0, t0 + reqs[i].due - now)
            else:
                timeout = 0.02
            for key, _mask in sel.select(timeout):
                if key.data < 0:
                    self._read_short(key.fileobj, shorts, sel, res)
                else:
                    self._read(key.data, pending, reqs, due_at, res)
        gc.enable()
        lost = len(pending) + len(shorts) + sum(len(c.junk) for c in self.conns)
        res.refused += lost
        res.oversize_failed += len(shorts)
        for sock in shorts:
            sel.unregister(sock)
            sock.close()
        for conn in self.conns:
            sel.unregister(conn.sock)
        sel.close()
        if pending or any(c.junk for c in self.conns):
            # Replies still in flight would land in the next phase.
            raise BenchError(f"{lost} replies outstanding after the drain window")
        return res

    def _send_short(self, payload: bytes) -> "socket.socket | None":
        sock = self._connect()
        try:
            sock.sendall(payload)
        except OSError:
            sock.close()
            return None
        return sock

    def _read_short(self, sock, shorts, sel, res: PhaseResult) -> None:
        """An oversized line's connection: a typed error, or a drop."""
        try:
            data = sock.recv(65536)
        except OSError:
            data = b""
        ok = False
        if data:
            try:
                reply = json.loads(data.split(b"\n", 1)[0])
                ok = reply.get("error", {}).get("code") == CODES["invalid_request"]
            except ValueError:
                ok = False
        if not ok:
            res.oversize_failed += 1
        del shorts[sock]
        sel.unregister(sock)
        sock.close()

    def _read(self, ci: int, pending, reqs, due_at, res: PhaseResult) -> None:
        conn = self.conns[ci]
        data = conn.sock.recv(1 << 20)
        now = time.perf_counter()
        if not data:
            raise BenchError("server closed a load connection")
        lines = (conn.buf + data).split(b"\n")
        conn.buf = lines.pop()
        for raw in lines:
            try:
                reply = json.loads(raw)
            except ValueError:
                res.wrong.append(f"not JSON: {raw[:80]!r}")
                continue
            rid = reply.get("id")
            if rid is None:
                if not conn.junk:
                    res.wrong.append(f"unmatched null-id reply: {raw[:80]!r}")
                    continue
                index = conn.junk.pop(0)
            else:
                index = pending.pop((ci, rid), None)
                if index is None:
                    res.wrong.append(f"reply for unknown id {rid!r}")
                    continue
            conn.inflight -= 1
            req = reqs[index]
            if self._judge(req, reply, raw, res):
                res.latency_s.setdefault(req.kind, []).append(now - due_at[index])
                if req.key is not None:
                    res.done_lat.append((now, now - due_at[index]))
            else:
                res.latency_s.setdefault(req.kind, []).append(math.inf)

    def _judge(self, req: Req, reply: dict, raw: bytes, res: PhaseResult) -> bool:
        """True for a correct answer; refusals count, wrong answers gate."""
        if reply.get("jsonrpc") != "2.0":
            res.wrong.append(f"id {req.rid}: not JSON-RPC 2.0")
            return False
        error = reply.get("error")
        if error is not None and error.get("kind") in REFUSALS and (
            req.expect is None or error.get("code") != req.expect
        ):
            res.refused += 1
            return False
        if req.expect is not None:
            if error is None or error.get("code") != req.expect:
                res.wrong.append(f"id {req.rid}: expected code {req.expect}, got {raw[:120]!r}")
                return False
            return True
        if error is not None or "result" not in reply:
            res.wrong.append(f"id {req.rid}: {raw[:160]!r}")
            return False
        result = reply["result"]
        if req.key is None:
            if result.get("ready") is False:
                res.wrong.append(f"id {req.rid}: server not ready")
                return False
            return True
        tier = result.get("tier")
        res.tiers[tier] = res.tiers.get(tier, 0) + 1
        if tier not in self.tiers_allowed:
            res.wrong.append(f"id {req.rid}: tier {tier} not in {self.tiers_allowed}")
            return False
        # Identical answers repeat; judge each distinct body once.
        body = raw.split(b',"jsonrpc"', 1)[1]
        if b'"staleness_s"' in body:
            head, tail = body.split(b'"staleness_s":', 1)
            body = head + tail.split(b",", 1)[-1]
        verdict = self.checked.get(body)
        if verdict is None:
            verdict = agrees(result, self.references[req.key], self.tolerance)
            self.checked[body] = verdict
        if not verdict:
            res.wrong.append(f"id {req.rid}: answer differs from tier 3: {raw[:160]!r}")
        return verdict


# --- the workload ------------------------------------------------------------


def max_rate(steps: list[PhaseResult], kind: str, limit_ms: float) -> float:
    """Highest offered rate whose p99 meets the limit, interpolated.

    Between the last passing and the first failing step, the crossing
    is interpolated on log(p99) (a refused request counts as missing
    the limit, so a failing step's p99 may be infinite: capped at 100x
    the limit).  If every step passes, the top rate is a lower bound.
    """
    prev = None
    for step in steps:
        p99 = min(step.p(kind, 0.99), 100 * limit_ms)
        if p99 > limit_ms:
            if prev is None:
                return step.rate * limit_ms / p99
            lo_rate, lo_p99 = prev
            frac = (math.log(limit_ms) - math.log(lo_p99)) / (
                math.log(p99) - math.log(lo_p99)
            )
            return lo_rate + frac * (step.rate - lo_rate)
        prev = (step.rate, max(p99, 1e-6))
    return steps[-1].rate


def run(profile: Profile, seed: int, seconds: float, setups: int = 3) -> dict:
    """Set up ``setups`` servers (median ready time), then drive the last."""
    from repro.topology.builders import hp_blade_32n, reference_host

    machine = reference_host() if profile is HITS else hp_blade_32n()
    mix = Mix(profile, seed, machine)
    references = reference_answers(machine, mix.pool)
    setup_times = []
    for k in range(setups - 1):
        server = Server(profile, f"setup{k}")
        setup_times.append(server.setup_s)
        server.close()
    server = Server(profile, "load")
    setup_times.append(server.setup_s)
    try:
        return _drive(profile, mix, references, server, machine, seconds,
                      setup_times)
    finally:
        server.close()


def _drive(profile, mix, references, server, machine, seconds, setup_times) -> dict:
    """Warm-up, the open-loop ladder, then the closed-loop saturation.

    Of ``seconds``: 30 % at the reference rate, 5 % per other ladder
    rate (stopping at the first rate above the reference that misses
    the p99 limit) and 45 % saturated.
    """
    exact = profile is CHURN
    client = LoadClient(server.port, references, exact=exact)
    kind = "solve" if exact else "hit"
    drain_s = max(2.0, 20 * profile.p99_limit_ms / 1000)
    steps: list[PhaseResult] = []
    reference = None
    try:
        # Warm-up: first touches (plan bases, memos) land here.
        warm = client.run(mix.phase(profile.ladder[0], 1.0, 0.0),
                          profile.ladder[0], 1.0, drain_s=drain_s)
        # Past the warm-up, hits must be warm and churn must re-solve.
        client.tiers_allowed = (3,) if exact else (1, 2)
        for rate in profile.ladder:
            is_ref = rate == profile.reference_rate
            step_s = (0.3 if is_ref else 0.05) * seconds
            reqs = mix.phase(rate, step_s,
                             profile.oversize_share if is_ref else 0.0)
            step = client.run(reqs, rate, step_s, drain_s=drain_s)
            steps.append(step)
            if is_ref:
                reference = step
            elif reference is not None and (
                step.p(kind, 0.99) > profile.p99_limit_ms
            ):
                break  # higher rates only miss it by more
            time.sleep(0.2)
        sat_s = 0.45 * seconds
        # Enough lines that the closed loop never runs dry.
        reqs = mix.phase(4 * profile.ladder[-1], sat_s, 0.0)
        saturated = client.run(reqs, 0.0, sat_s, drain_s=drain_s,
                               window=profile.window)
    finally:
        client.close()
    eq1_err = eq1_served_rel_err(server.port, machine) if profile is HITS else None
    wrong = [w for s in [warm, *steps, saturated] for w in s.wrong]
    return {
        "setup_s": median(setup_times),
        "setup_samples_s": setup_times,
        "steps": steps,
        "reference": reference,
        "saturated": saturated,
        "kind": kind,
        "ladder_max_rate": max_rate(steps, kind, profile.p99_limit_ms),
        "peak_rss_mb": server.peak_rss_mb(),
        "wrong": wrong,
        "eq1_served_rel_err": eq1_err,
    }
