"""Distributed backend: wire protocol, failover, and bit-identity.

The acceptance point of the multi-host layer: the same grid estimated on
the serial, process, and localhost two-worker distributed backends must
produce *identical* rows (the chunk seed tree makes the backend a pure
wall-clock knob), a worker killed mid-run must only cost requeued chunks
(never a changed result), and the framing helpers must refuse corrupt
streams loudly.
"""

import json
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro.engine.distributed as distributed_module
from repro.engine import (
    DistributedBackend,
    ExperimentRunner,
    ProcessBackend,
    ProtocolRunner,
    RemoteTaskError,
    SerialBackend,
    get_grid,
    get_scenario,
    run_chunk,
    run_grid,
)
from repro.engine.distributed import (
    ProtocolError,
    parse_hosts,
    recv_message,
    send_message,
)
from repro.worker import handle_request, serve


def _spawn_worker():
    """A real worker subprocess announcing its ephemeral port."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    src = os.path.abspath(src)
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH")
        else src
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.worker", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = process.stdout.readline()
    match = re.match(r"listening on ([\d.]+):(\d+)", line)
    assert match, f"worker did not announce its port: {line!r}"
    return process, (match.group(1), int(match.group(2)))


@pytest.fixture()
def workers():
    """Two in-process worker servers; shut down after the test."""
    servers = [serve(), serve()]
    yield servers
    for server in servers:
        server.shutdown()
        server.server_close()


def _backend(servers, **kwargs):
    return DistributedBackend(
        [server.address for server in servers], timeout=30.0, **kwargs
    )


class TestWireProtocol:
    def test_frame_round_trip(self):
        left, right = socket.socketpair()
        payload = {"op": "task", "matrix": np.arange(12).reshape(3, 4)}
        send_message(left, payload)
        received = recv_message(right)
        assert received["op"] == "task"
        assert np.array_equal(received["matrix"], payload["matrix"])
        left.close()
        assert recv_message(right) is None  # clean EOF at a boundary
        right.close()

    def test_oversize_frame_refused_before_allocation(self):
        left, right = socket.socketpair()
        left.sendall((1 << 40).to_bytes(8, "big"))
        with pytest.raises(ProtocolError, match="exceeds"):
            recv_message(right)
        left.close()
        right.close()

    def test_truncated_frame_is_a_protocol_error(self):
        left, right = socket.socketpair()
        left.sendall((100).to_bytes(8, "big") + b"short")
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(right)
        right.close()

    def test_parse_hosts(self):
        assert parse_hosts("a:1, b:2") == [("a", 1), ("b", 2)]
        assert parse_hosts(":9000") == [("127.0.0.1", 9000)]
        for bad in ("", "no-port", "host:", "host:abc"):
            with pytest.raises(ValueError):
                parse_hosts(bad)

    @pytest.mark.parametrize("index", [0, 3])
    def test_pickled_chunk_task_replays_the_spawned_seed(self, index):
        """A chunk crosses the wire as a task whose ``SeedSequence``
        child is pickled inside ``args``: the worker's hit count equals
        a local ``run_chunk`` on the child the runner spawns."""
        scenario = get_scenario("iid-settlement", depth=15)
        estimator = ExperimentRunner(scenario).estimator
        child = np.random.SeedSequence(42, spawn_key=(index,))
        message = {
            "op": "task",
            "function": run_chunk,
            "args": (scenario, estimator, 256, child),
        }
        reply = handle_request(pickle.loads(pickle.dumps(message)))
        assert reply == {
            "ok": True,
            "result": run_chunk(scenario, estimator, 256, child),
        }

    def test_chunk_reply_is_the_plain_hit_count(self):
        scenario = get_scenario("iid-settlement", depth=15)
        estimator = ExperimentRunner(scenario).estimator
        child = np.random.SeedSequence(8).spawn(2)[1]
        reply = handle_request(
            {
                "op": "task",
                "function": run_chunk,
                "args": (scenario, estimator, 256, child),
            }
        )
        assert reply == {
            "ok": True,
            "result": run_chunk(scenario, estimator, 256, child),
        }
        assert type(reply["result"]) is int

    @pytest.mark.parametrize(
        "result",
        [513, 0.5, (51.0, 51.0, 512)],  # out of range, fractional, v3 triple
    )
    def test_runner_rejects_a_worker_reply_that_is_not_a_hit_count(
        self, workers, monkeypatch, result
    ):
        """A reply crossing the wire is checked before it is added or
        ledgered: a broken or foreign worker fails the run loudly."""
        import repro.worker as worker_module

        real = worker_module.handle_request

        def corrupted(request):
            reply = real(request)
            if request.get("function") is run_chunk:
                reply = {"ok": True, "result": result}
            return reply

        monkeypatch.setattr(worker_module, "handle_request", corrupted)
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=15), chunk_size=512
        )
        with _backend(workers) as remote:
            with pytest.raises(ValueError, match="not a hit count"):
                runner.run(1_024, seed=4, backend=remote)

    def test_unknown_op_is_reported_not_raised(self):
        reply = handle_request({"op": "frobnicate"})
        assert reply["ok"] is False
        assert "frobnicate" in reply["error"]

    @pytest.mark.parametrize("op", ["chunk", "ping", "shutdown"])
    def test_task_is_the_only_op(self, op):
        reply = handle_request({"op": op})
        assert reply == {"ok": False, "error": f"unknown op {op!r}"}

    def test_unknown_op_counts_as_an_error_not_a_served_task(self, workers):
        with socket.create_connection(workers[0].address, timeout=30) as sock:
            send_message(sock, {"op": "ping"})
            reply = recv_message(sock)
        assert reply["ok"] is False
        assert reply["stats"]["served"] == {"task": 0}
        assert reply["stats"]["errors"] == 1


class TestBitIdentity:
    """Serial ≡ process ≡ distributed, estimate for estimate."""

    def test_runner_identical_across_all_backends(self, workers):
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=20), chunk_size=1024
        )
        serial = runner.run(10_000, seed=42, backend=SerialBackend())
        with ProcessBackend(2) as pool:
            process = runner.run(10_000, seed=42, backend=pool)
        with _backend(workers) as remote:
            distributed = runner.run(10_000, seed=42, backend=remote)
        assert serial == process == distributed

    def test_grid_identical_across_all_backends(self, workers):
        grid = get_grid("stake")
        serial = run_grid(grid, trials=4096)
        with ProcessBackend(2) as pool:
            process = run_grid(grid, trials=4096, backend=pool)
        with _backend(workers) as remote:
            distributed = run_grid(grid, trials=4096, backend=remote)
        assert serial == process == distributed

    def test_generic_tasks_round_trip(self, workers):
        with _backend(workers) as remote:
            futures = [remote.submit_task(divmod, n, 3) for n in range(7)]
            assert [f.result() for f in futures] == [
                divmod(n, 3) for n in range(7)
            ]

    def test_remote_errors_surface_without_retry(self, workers):
        with _backend(workers) as remote:
            future = remote.submit_task(int, "not a number")
            with pytest.raises(RemoteTaskError, match="ValueError"):
                future.result()


class TestSweepReportsItsBackend:
    """The sweep's summary line and its ``--out`` record give the width
    of the backend that ran: 1 serially, the pool size, the host count."""

    @pytest.mark.parametrize(
        "name,width", [("serial", 1), ("process", 2), ("distributed", 2)]
    )
    def test_width_of_the_backend_that_ran(
        self, request, tmp_path, capsys, monkeypatch, name, width
    ):
        from repro.sweep import main

        monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
        flags = {"serial": [], "process": ["--workers", "2"]}.get(name)
        if name == "distributed":
            servers = request.getfixturevalue("workers")
            hosts = ",".join("%s:%d" % server.address for server in servers)
            flags = ["--hosts", hosts]
        out = tmp_path / "rows.json"
        argv = ["stake", "--trials", "64", "--out", str(out), *flags]
        assert main(argv) == 0
        summary = f"(backend={name}, workers={width}, "
        assert summary in capsys.readouterr().out
        assert json.loads(out.read_text())["workers"] == width


class TestFailover:
    def _spawn_worker(self):
        return _spawn_worker()

    def test_worker_killed_mid_run_requeues_onto_survivor(
        self, caplog, monkeypatch
    ):
        scenario = get_scenario("iid-settlement", depth=20)
        runner = ExperimentRunner(scenario, chunk_size=512)
        serial = runner.run(10_240, seed=7, backend=SerialBackend())

        victim, victim_address = self._spawn_worker()
        survivor, survivor_address = self._spawn_worker()
        # The victim must die holding a chunk: killed before the backend
        # connects, it is retired as unreachable and nothing requeues.
        # Stopped, it still accepts connections (the kernel's backlog)
        # but cannot answer, so a chunk sent to it stays in flight.
        victim_holds_chunk = threading.Event()

        def send_and_flag(sock, message):
            send_message(sock, message)
            if (
                message.get("op") == "task"
                and sock.getpeername()[:2] == victim_address
            ):
                victim_holds_chunk.set()

        monkeypatch.setattr(distributed_module, "send_message", send_and_flag)
        victim.send_signal(signal.SIGSTOP)
        try:
            backend = DistributedBackend(
                [victim_address, survivor_address], timeout=30.0
            )
            with backend, caplog.at_level(
                "WARNING", logger="repro.engine.distributed"
            ):
                pending = runner.submit(10_240, seed=7, backend=backend)
                assert victim_holds_chunk.wait(timeout=30)
                victim.kill()  # hard kill: the in-flight chunk requeues
                distributed = pending.result()
            assert distributed == serial
            # The requeue names the host (and, once a stats frame has
            # arrived, the worker id behind it) that dropped the chunk.
            victim_key = f"{victim_address[0]}:{victim_address[1]}"
            requeues = [
                record.getMessage()
                for record in caplog.records
                if "requeueing" in record.getMessage()
            ]
            assert any(victim_key in message for message in requeues)
        finally:
            for process in (victim, survivor):
                process.kill()
                process.wait(timeout=10)

    def test_stats_frames_attribute_chunks_to_workers(self, workers):
        scenario = get_scenario("iid-settlement", depth=15)
        runner = ExperimentRunner(scenario, chunk_size=512)
        with _backend(workers) as remote:
            runner.run(4_096, seed=11, backend=remote)
            stats = dict(remote.worker_stats)
        # The backend is pull-based: one host may take every chunk and
        # the other none, and a host that served nothing sends no frame.
        servers = {
            f"{server.address[0]}:{server.address[1]}": server
            for server in workers
        }
        assert stats and set(stats) <= set(servers)
        served = 0
        for key, frame in stats.items():
            assert frame["worker"] == servers[key].worker_id
            assert frame["uptime"] > 0
            served += frame["served"]["task"]
        assert served == 8  # 4096 trials / 512 chunk, across the hosts

    def test_reply_without_stats_frame_is_malformed(self):
        """Every worker reply carries a stats frame.  A peer answering
        without one is broken: its item is requeued like a transport
        failure and fails after ``max_failures``."""
        listener = socket.create_server(("127.0.0.1", 0))

        def answer_without_frame():
            while True:
                try:
                    connection, _ = listener.accept()
                except OSError:
                    return
                with connection:
                    try:
                        while True:
                            recv_message(connection)
                            send_message(connection, {"ok": True, "result": 0})
                    except (OSError, ProtocolError):
                        pass

        threading.Thread(target=answer_without_frame, daemon=True).start()
        backend = DistributedBackend(
            [listener.getsockname()[:2]], timeout=5.0, max_failures=2
        )
        try:
            with pytest.raises(ConnectionError, match="malformed worker reply"):
                backend.submit_task(abs, -1).result(timeout=30)
        finally:
            backend.close()
            listener.shutdown(socket.SHUT_RDWR)
            listener.close()

    def test_all_workers_lost_fails_loudly(self):
        process, address = self._spawn_worker()
        process.kill()
        process.wait(timeout=10)
        backend = DistributedBackend(
            [address], timeout=5.0, reconnect_attempts=2, backoff_base=0.01
        )
        runner = ExperimentRunner(
            get_scenario("iid-settlement", depth=10), chunk_size=512
        )
        with pytest.raises(ConnectionError):
            runner.run(1_024, seed=1, backend=backend)
        backend.close()

    def test_graceful_shutdown_on_sigterm(self):
        process, _address = self._spawn_worker()
        process.terminate()
        assert process.wait(timeout=10) == 0
        assert "worker shut down" in process.stdout.read()

    def test_stats_interval_flag_is_gone(self, capsys):
        # Stats ride on every reply; there is no periodic stats log.
        import repro.worker as worker_module

        with pytest.raises(SystemExit) as exit_info:
            worker_module.main(["--stats-interval", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestProtocolWanConformance:
    """ISSUE 7 satellite 3: the continuous-time protocol workload obeys
    the same backend contract as analytical chunks — serial ≡ process ≡
    distributed on a ``protocol_wan`` grid point, and a worker
    hard-killed mid-run never changes a protocol estimate."""

    #: One non-degenerate point of the registered grid (relay topology
    #: plus live jitter), filtered with the full grid's seeds so the
    #: rows agree with a full run.
    POINT = {
        "topology": ("ring",),
        "latency": (0.25,),
        "jitter_scale": (0.5,),
    }

    def test_wan_point_identical_across_all_backends(self, workers):
        grid = get_grid("protocol_wan")
        serial = run_grid(grid, trials=8, only=self.POINT)
        with ProcessBackend(2) as pool:
            process = run_grid(grid, trials=8, only=self.POINT, backend=pool)
        with _backend(workers) as remote:
            distributed = run_grid(
                grid, trials=8, only=self.POINT, backend=remote
            )
        assert serial == process == distributed
        assert serial[0]["trials"] == 8

    def test_worker_killed_mid_protocol_run_requeues_onto_survivor(self):
        scenario = get_scenario(
            "protocol-wan", total_slots=30, target_slot=5, depth=4
        )
        runner = ProtocolRunner(scenario, chunk_size=4)
        serial = runner.run(16, seed=77, backend=SerialBackend())

        victim, victim_address = _spawn_worker()
        survivor, survivor_address = _spawn_worker()
        try:
            backend = DistributedBackend(
                [victim_address, survivor_address], timeout=60.0
            )
            with backend:
                pending = runner.submit(16, seed=77, backend=backend)
                victim.kill()  # in-flight simulation chunks must requeue
                distributed = pending.result()
            assert distributed == serial
        finally:
            for process in (victim, survivor):
                process.kill()
                process.wait(timeout=10)
