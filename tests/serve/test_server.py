"""Real-TCP integration: ServerThread, keep-alive, protocol errors,
the load generator, and agreement with the ``repro`` CLI."""

import http.client
import json
import socket

import pytest

from repro.cli import build_parser, main
from repro.serve import RequestPool, ServerThread, create_app

from tests.serve.helpers import small_solve_body


@pytest.fixture(scope="module")
def server():
    app = create_app()
    with ServerThread(app) as running:
        yield running


def _request(conn, method, path, payload=None):
    body = None if payload is None else json.dumps(payload)
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


class TestTcp:
    def test_healthz_over_real_socket(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            status, body = _request(conn, "GET", "/healthz")
        finally:
            conn.close()
        assert status == 200
        assert body["status"] == "ok"

    def test_keep_alive_reuses_one_connection(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            first = _request(conn, "POST", "/solve", small_solve_body())
            second = _request(conn, "GET", "/stats")
            third = _request(conn, "POST", "/solve", small_solve_body())
        finally:
            conn.close()
        assert first[0] == second[0] == third[0] == 200
        # The repeat request on the same connection hit the warm pool.
        assert third[1]["results"][0]["pool"]["hit"] is True

    def test_garbage_request_gets_a_400(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(b"NOT A REQUEST LINE\r\n\r\n")
            raw = sock.recv(4096)
        assert raw.startswith(b"HTTP/1.1 400")

    def test_chunked_bodies_are_501(self, server):
        with socket.create_connection(
            (server.host, server.port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /solve HTTP/1.1\r\n"
                b"Host: x\r\n"
                b"Transfer-Encoding: chunked\r\n"
                b"\r\n"
            )
            raw = sock.recv(4096)
        assert raw.startswith(b"HTTP/1.1 501")

    def test_request_pool_load_generator(self, server):
        pool = RequestPool(server.host, server.port, clients=2)
        report = pool.run(
            [("POST", "/solve", small_solve_body())] * 4
            + [("GET", "/healthz", None)] * 2
        )
        assert report.requests == 6
        assert report.errors == 0
        assert all(status == 200 for status, _ in report.responses)
        summary = report.as_dict()
        assert summary["throughput_rps"] > 0
        assert (
            summary["latency_ms"]["p50"]
            <= summary["latency_ms"]["p95"]
            <= summary["latency_ms"]["p99"]
            <= summary["latency_ms"]["max"]
        )


class TestCliAgreement:
    def test_served_solve_matches_cli_to_1e9(self, server, tmp_path, capsys):
        """POST /solve on the deployment the CLI found must report the
        same peak temperature to within 1e-9 K (in fact bit-identical:
        both paths run the same solve on the same assembled system)."""
        out = tmp_path / "alpha.json"
        assert main(["solve", "--benchmark", "alpha", "--json", str(out)]) == 0
        capsys.readouterr()
        cli = json.loads(out.read_text())

        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            status, body = _request(conn, "POST", "/solve", {
                "benchmark": "alpha",
                "tec_tiles": cli["tec_tiles"],
                "current_a": cli["current_a"],
            })
        finally:
            conn.close()
        assert status == 200
        served = body["results"][0]["values"]
        assert abs(served["peak_c"] - cli["peak_c"]) <= 1e-9
        assert abs(served["p_tec_w"] - cli["tec_power_w"]) <= 1e-9

    def test_served_rom_transient_matches_cli_to_certified(
        self, server, tmp_path, capsys
    ):
        """POST /transient with the certified ROM must agree with
        ``repro transient --json`` over real TCP to within the sum of
        the two certified error bounds (each trace is within its own
        bound of the same full-order truth)."""
        out = tmp_path / "transient.json"
        argv = ["transient", "--benchmark", "hc08", "--tiles", "5", "6",
                "--current", "0.5", "--dt", "0.01", "--steps", "20",
                "--rom", "always", "--json", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        cli = json.loads(out.read_text())
        assert cli["rom"] is not None

        conn = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:
            status, body = _request(conn, "POST", "/transient", {
                "benchmark": "hc08",
                "tec_tiles": [5, 6],
                "current_a": 0.5,
                "dt": 0.01,
                "steps": 20,
                "rom": "always",
            })
        finally:
            conn.close()
        assert status == 200
        served = body["values"]
        assert served["rom_active"] is True
        allowance = (
            served["rom_certified_error_k"]
            + cli["rom"]["certified_error_k"]
            + 1e-9
        )
        assert abs(served["final_peak_c"] - cli["peak_trace_c"][-1]) <= allowance
        assert abs(served["max_peak_c"] - cli["max_peak_c"]) <= allowance


class TestServeCli:
    def test_parser_accepts_serve_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--pool-size", "4",
            "--batch-max", "16", "--threads", "2", "--workers", "3",
        ])
        assert args.command == "serve"
        assert (args.pool_size, args.batch_max, args.workers) == (4, 16, 3)

    def test_batch_window_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--batch-window", "0.01"])
        assert excinfo.value.code == 2
        assert "--batch-window" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_nonpositive_workers_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--workers", value])
        assert excinfo.value.code == 2
        assert "--workers must be a positive integer" in capsys.readouterr().err

    def test_bad_pool_size_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--pool-size", "-1"])
        assert "repro serve: error" in str(excinfo.value)
