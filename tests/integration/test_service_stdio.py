"""Client + server in-process over the stdio transport, and the serve CLI."""

import io
import json

import pytest

from repro.cli.main import main
from repro.rng import RngRegistry
from repro.service import (
    AdvisoryBackend,
    PlacementService,
    serve_stdio,
)


def request(req_id, method, params=None):
    msg = {"jsonrpc": "2.0", "id": req_id, "method": method}
    if params is not None:
        msg["params"] = params
    return json.dumps(msg)


class StdioClient:
    """Drive a PlacementService exactly like a subprocess would."""

    def __init__(self, service):
        self.service = service

    def call(self, *lines):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        answered = serve_stdio(self.service, stdin=stdin, stdout=stdout)
        replies = [json.loads(l) for l in stdout.getvalue().splitlines()]
        assert answered == len(replies)
        return replies


@pytest.fixture(scope="module")
def client(host):
    backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
    service = PlacementService(backend)
    backend.warm((7,))
    return StdioClient(service)


class TestStdioSession:
    def test_full_session_one_reply_per_line(self, client):
        replies = client.call(
            request(1, "ready"),
            request(2, "classify", {"target": 7}),
            request(3, "advise", {"target": 7, "tasks": 4,
                                  "avoid_irq_node": True}),
            request(4, "predict_eq1", {"target": 7, "streams": [0, 1, 6]}),
            request(5, "plan", {"write_weight": 0.6}),
            request(6, "health"),
        )
        assert [r["id"] for r in replies] == [1, 2, 3, 4, 5, 6]
        assert all("result" in r for r in replies)
        assert replies[2]["result"]["stream_nodes"]
        assert replies[5]["result"]["requests"] == 6

    def test_errors_are_inline_not_fatal(self, client):
        replies = client.call(
            request(1, "advise", {"target": 7, "tasks": 4}),
            "this is not json",
            request(3, "advise", {"target": 999, "tasks": 1}),
            request(4, "nope"),
            request(5, "health"),
        )
        assert len(replies) == 5
        kinds = [r["error"]["kind"] for r in replies if "error" in r]
        assert kinds == ["parse_error", "invalid_params", "method_not_found"]
        assert "result" in replies[-1]

    def test_responses_identical_across_sessions(self, host):
        from repro.service.soak import LogicalClock

        def session():
            backend = AdvisoryBackend(host, registry=RngRegistry(), runs=3)
            # Staleness tags tick on the service clock; a logical clock
            # makes the stream a pure function of the requests.
            service = PlacementService(backend, clock=LogicalClock())
            backend.warm((7,))
            return StdioClient(service).call(
                request(1, "classify", {"target": 7, "mode": "read"}),
                request(2, "advise", {"target": 7, "tasks": 8}),
            )

        assert session() == session()

    def test_blank_lines_are_skipped(self, client):
        stdin = io.StringIO("\n\n" + request(1, "ready") + "\n\n")
        stdout = io.StringIO()
        assert serve_stdio(client.service, stdin=stdin, stdout=stdout) == 1


class TestServeCli:
    def test_stdio_cli_round_trip(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(request(1, "health") + "\n")
        )
        rc = main(["serve", "--stdio", "--runs", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        payload = json.loads(out.splitlines()[-1])
        assert payload["result"]["status"] == "ok"

    def test_soak_cli_exits_zero_on_recovery(self, capsys):
        rc = main(["serve", "--soak", "--requests", "60", "--runs", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "recovered=true" in out

    def test_soak_cli_json(self, capsys):
        rc = main(["serve", "--soak", "--requests", "60", "--runs", "3",
                   "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["answered"] == payload["requests"] == 60

    def test_converge_and_no_fault_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--soak", "--converge", "--no-fault"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "not allowed with argument" in err

    def test_machine_file_round_trip(self, tmp_path, monkeypatch, capsys, host):
        from repro.topology.serialize import machine_to_dict

        path = tmp_path / "machine.json"
        path.write_text(json.dumps(machine_to_dict(host)), encoding="utf-8")
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(request(1, "ready") + "\n")
        )
        rc = main(["serve", "--stdio", "--runs", "3",
                   "--machine-file", str(path)])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert payload["result"]["ready"] is True

    def test_malformed_machine_file_renders_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        description = {
            "format_version": 1, "name": "x",
            "params": {}, "nodes": [{"node_id": "zero"}],
            "packages": [], "links": [],
        }
        path.write_text(json.dumps(description), encoding="utf-8")
        rc = main(["serve", "--stdio", "--machine-file", str(path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_unreadable_machine_file_renders_cleanly(self, tmp_path, capsys):
        rc = main(["serve", "--stdio",
                   "--machine-file", str(tmp_path / "missing.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "missing.json" in err
