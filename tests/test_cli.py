"""CLI end-to-end flows in temporary directories."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def tiny_binary(tmp_path_factory):
    db = tmp_path_factory.mktemp("cli") / "db"
    assert main(["synth", "--preset", "tiny", "--binary-dir", str(db)]) == 0
    return db


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synth_defaults(self):
        args = build_parser().parse_args(["synth", "--binary-dir", "x"])
        assert args.preset == "small"


class TestSynth:
    def test_needs_an_output(self, capsys):
        assert main(["synth", "--preset", "tiny"]) == 2

    def test_binary_output(self, tiny_binary):
        assert (tiny_binary / "manifest.json").exists()

    def test_raw_output_with_corruption(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        # A tiny preset writes the full 2015-2019 window; keep the chunking
        # coarse so this stays fast.
        rc = main(
            [
                "synth", "--preset", "tiny", "--raw-dir", str(raw),
                "--chunk-days", "30", "--corrupt",
            ]
        )
        assert rc == 0
        assert (raw / "masterfilelist.txt").exists()
        # Progress reporting goes through logging to stderr, not stdout.
        captured = capsys.readouterr()
        assert "planted defects" in captured.err
        assert "planted defects" not in captured.out

    def test_quiet_suppresses_progress(self, tmp_path, capsys):
        db = tmp_path / "db"
        assert main(["-q", "synth", "--preset", "tiny", "--binary-dir", str(db)]) == 0
        captured = capsys.readouterr()
        assert "generated" not in captured.err


class TestQueries:
    def test_stats(self, tiny_binary, capsys):
        assert main(["stats", str(tiny_binary)]) == 0
        assert "Capture intervals" in capsys.readouterr().out

    def test_tables(self, tiny_binary, capsys):
        assert main(["tables", str(tiny_binary)]) == 0
        out = capsys.readouterr().out
        assert "Table VIII" in out

    def test_scaling_with_model(self, tiny_binary, capsys):
        assert main(["scaling", str(tiny_binary), "--threads", "1", "2", "--model"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert " 64 " in out  # model extrapolation rows

    def test_explain(self, tiny_binary, capsys):
        assert main(["explain", str(tiny_binary), "--where", "Delay > 96"]) == 0
        out = capsys.readouterr().out
        assert "zone-map pruning" in out
        assert "result cache" in out

    def test_explain_run_reports_count(self, tiny_binary, capsys):
        rc = main(
            ["explain", str(tiny_binary), "--where", "Delay > 96",
             "--where", "Confidence >= 80", "--run"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "count = " in out
        assert "chunks pruned" in out

    def test_explain_isin_and_time_range(self, tiny_binary, capsys):
        rc = main(
            ["explain", str(tiny_binary), "--where", "SourceId in 1,2,3",
             "--time-range", "100", "200", "--run"]
        )
        assert rc == 0
        assert "count = " in capsys.readouterr().out

    def test_explain_bad_predicate(self, tiny_binary):
        assert main(["explain", str(tiny_binary), "--where", "Delay ~ 96"]) == 2


class TestAnalyses:
    def test_wildfires(self, tiny_binary, capsys):
        assert (
            main(["wildfires", str(tiny_binary), "--window", "96",
                  "--min-sources", "20"])
            == 0
        )
        out = capsys.readouterr().out
        assert "wildfire" in out.lower()
        assert "https://" in out

    def test_cluster(self, tiny_binary, capsys):
        assert main(["cluster", str(tiny_binary), "--top", "30"]) == 0
        out = capsys.readouterr().out
        assert "clusters among the top 30" in out
        assert "cluster 1" in out


class TestConvertCommand:
    def test_synth_convert_stats_flow(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        assert (
            main(["synth", "--preset", "tiny", "--raw-dir", str(raw),
                  "--chunk-days", "60"])
            == 0
        )
        db = tmp_path / "db"
        assert main(["convert", str(raw), str(db), "--compress"]) == 0
        out = capsys.readouterr().out
        assert "Problems found" in out
        assert main(["stats", str(db)]) == 0
        assert "Articles" in capsys.readouterr().out


class TestSplitCommand:
    def test_split_of_a_compressed_conversion_verifies(self, tmp_path, capsys):
        raw, db, out = tmp_path / "raw", tmp_path / "db", tmp_path / "shards"
        assert (
            main(["synth", "--preset", "tiny", "--raw-dir", str(raw),
                  "--chunk-days", "60"])
            == 0
        )
        assert main(["convert", str(raw), str(db), "--compress"]) == 0
        capsys.readouterr()
        assert main(["split", str(db), str(out), "--shards", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            str(out / f"shard{i}") for i in range(3)
        ]
        for i in range(3):
            assert main(["verify", str(out / f"shard{i}")]) == 0


class TestProfileCommand:
    def test_profile_emits_scan_aggregate_reduce_spans(self, tiny_binary, capsys):
        import json

        import repro.obs as obs

        obs.reset()
        try:
            assert main(["profile", str(tiny_binary), "--threads", "2"]) == 0
            doc = json.loads(capsys.readouterr().out)
        finally:
            obs.disable()
            obs.reset()
        names = {s["name"] for s in doc["spans"]}
        assert {"query.scan", "query.aggregate", "query.reduce"} <= names
        assert doc["profile"]["n_rows"] > 0
        assert doc["profile"]["n_chunks"] >= 1
        assert doc["chrome_trace"], "chrome trace event list must be non-empty"
        assert all("ts" in ev and "dur" in ev for ev in doc["chrome_trace"])

    def test_profile_trace_out_file(self, tiny_binary, tmp_path):
        import json

        import repro.obs as obs

        out = tmp_path / "trace.json"
        obs.reset()
        try:
            rc = main(
                ["profile", str(tiny_binary), "--trace-out", str(out), "--chrome"]
            )
        finally:
            obs.disable()
            obs.reset()
        assert rc == 0
        events = json.loads(out.read_text())
        assert isinstance(events, list) and events

    def test_metrics_out_registry_dump(self, tiny_binary, tmp_path):
        import json

        import repro.obs as obs

        out = tmp_path / "metrics.json"
        obs.reset()
        try:
            rc = main(["profile", str(tiny_binary), "--metrics-out", str(out),
                       "--trace-out", str(tmp_path / "t.json")])
        finally:
            obs.disable()
            obs.reset()
        assert rc == 0
        doc = json.loads(out.read_text())
        series = doc["metrics"]
        # The acceptance bar: a profiled query run yields a registry dump
        # with at least 8 distinct series.
        assert len(series) >= 8
        names = {m["name"] for m in series}
        assert "rows_scanned_total" in names
        assert "executor_chunks_total" in names
        assert "worker_busy_seconds_total" in names
        assert "storage_columns_read_total" in names

    def test_metrics_out_prometheus_text(self, tiny_binary, tmp_path):
        import repro.obs as obs

        out = tmp_path / "metrics.prom"
        obs.reset()
        try:
            rc = main(["scaling", str(tiny_binary), "--threads", "1", "2",
                       "--metrics-out", str(out)])
        finally:
            obs.disable()
            obs.reset()
        assert rc == 0
        text = out.read_text()
        assert "# TYPE repro_rows_scanned_total counter" in text
        assert "repro_chunk_seconds_bucket" in text


class TestServeCommands:
    def test_serve_end_to_end_with_sigint(self, tiny_binary, tmp_path):
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop("REPRO_FAULTS", None)
        metrics = tmp_path / "serve.prom"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tiny_binary),
             "--port", "0", "--workers", "2", "--metrics-out", str(metrics)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            m = re.match(r"listening on ([\d.]+):(\d+)", line)
            assert m, f"unexpected banner: {line!r}"
            host, port = m.group(1), int(m.group(2))

            from repro.serve import ServeClient

            with ServeClient(host, port) as client:
                assert client.ping()
                resp = client.query(table="mentions", op="count")
                assert resp["status"] == "ok" and resp["value"] > 0
                grouped = client.query(
                    table="mentions", op="count", group_by="Quarter"
                )
                assert grouped["status"] == "ok"
                assert sum(grouped["value"]) == resp["value"]
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)
        # --metrics-out wrote the registry on clean shutdown.
        text = metrics.read_text()
        assert "repro_serve_requests_total" in text

    def test_serve_ops_plane_and_sigusr1_dump(self, tiny_binary, tmp_path):
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop("REPRO_FAULTS", None)
        dump = tmp_path / "flight.json"
        env["REPRO_FLIGHT_DUMP"] = str(dump)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tiny_binary),
             "--port", "0", "--ops-port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            m = re.match(r"listening on ([\d.]+):(\d+)", banner)
            assert m, f"unexpected banner: {banner!r}"
            host, port = m.group(1), int(m.group(2))
            ops_line = proc.stdout.readline()
            m = re.match(r"ops on ([\d.]+):(\d+)", ops_line)
            assert m, f"unexpected ops banner: {ops_line!r}"
            ops_port = int(m.group(2))

            from repro.serve import ServeClient

            with ServeClient(host, port) as client:
                assert client.query(table="mentions", op="count")["status"] == "ok"

            base = f"http://{host}:{ops_port}"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10.0) as r:
                assert r.status == 200
                assert r.headers["Content-Type"].startswith("text/plain")
                text = r.read().decode()
            assert "repro_serve_requests_total" in text
            assert "repro_slo_burn_rate" in text
            with urllib.request.urlopen(f"{base}/healthz", timeout=10.0) as r:
                assert json.loads(r.read())["status"] == "ok"
            with urllib.request.urlopen(f"{base}/readyz", timeout=10.0) as r:
                assert json.loads(r.read())["ready"] is True
            with urllib.request.urlopen(f"{base}/varz", timeout=10.0) as r:
                assert json.loads(r.read())["service"]["ok"] >= 1

            proc.send_signal(signal.SIGUSR1)
            deadline = time.monotonic() + 10.0
            while not dump.exists() and time.monotonic() < deadline:
                time.sleep(0.05)
            doc = json.loads(dump.read_text())
            assert doc["kind"] == "flight_dump"
            assert "signal" in doc["reason"]

            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_serve_views_fresh_before_listening(self, tiny_binary, tmp_path):
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        from pathlib import Path

        import repro
        from repro.serve import ServeClient
        from repro.views import ViewCatalog, ViewDefinition

        views = tmp_path / "views"
        ViewCatalog(views).create(ViewDefinition(name="total", op="count"))
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tiny_binary),
             "--port", "0", "--ops-port", "0", "--workers", "2",
             "--views", str(views)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            banner = proc.stdout.readline()
            m = re.match(r"listening on ([\d.]+):(\d+)", banner)
            assert m, f"unexpected banner: {banner!r}"
            host, port = m.group(1), int(m.group(2))
            ops_line = proc.stdout.readline()
            m = re.match(r"ops on ([\d.]+):(\d+)", ops_line)
            assert m, f"unexpected ops banner: {ops_line!r}"
            ops_port = int(m.group(2))

            with ServeClient(host, port) as client:
                # The first request: the views were refreshed before the
                # server listened, so no waiting for them.
                resp = client.query(table="mentions", op="count")
                assert resp["status"] == "ok"
                assert resp["stats"]["source"] == "view"
            url = f"http://{host}:{ops_port}/metrics"
            with urllib.request.urlopen(url, timeout=10.0) as r:
                text = r.read().decode()
            assert 'repro_view_staleness_s{view="total"}' in text

            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30.0) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10.0)

    def test_shard_serve_survives_sigusr1(self, tiny_binary, tmp_path):
        """``shard-serve`` shares ``serve``'s front end, flight dump
        included: SIGUSR1 writes the dump instead of killing the router."""
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import time

        from pathlib import Path

        import repro
        from repro.engine import GdeltStore
        from repro.serve import QueryService, ServeClient, ServeServer

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        env.pop("REPRO_FAULTS", None)
        dump = tmp_path / "flight.json"
        env["REPRO_FLIGHT_DUMP"] = str(dump)
        with QueryService(GdeltStore.open(tiny_binary), workers=1) as svc, \
                ServeServer(svc) as backend:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "shard-serve",
                 "--backend", f"{backend.host}:{backend.port}", "--port", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env,
            )
            try:
                banner = proc.stdout.readline()
                m = re.match(r"listening on ([\d.]+):(\d+)", banner)
                assert m, f"unexpected banner: {banner!r}"
                proc.send_signal(signal.SIGUSR1)
                deadline = time.monotonic() + 10.0
                while not dump.exists() and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert proc.poll() is None, "SIGUSR1 killed the router"
                assert json.loads(dump.read_text())["kind"] == "flight_dump"
                with ServeClient(m.group(1), int(m.group(2))) as client:
                    assert client.query(table="mentions", op="count")["status"] == "ok"
                proc.send_signal(signal.SIGINT)
                assert proc.wait(timeout=30.0) == 0
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10.0)


class TestVerifyCommand:
    """Exit codes and messages of ``repro-gdelt verify``."""

    def test_clean_dataset_is_ok(self, tiny_binary, capsys):
        assert main(["verify", str(tiny_binary)]) == 0
        out = capsys.readouterr().out
        assert "OK: all files present" in out

    def test_missing_dataset_fails_with_manifest_issue(self, tmp_path, capsys):
        rc = main(["verify", str(tmp_path / "nowhere")])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "manifest.json missing" in out

    def test_corrupt_column_fails_with_crc_issue(
        self, tiny_binary, tmp_path, capsys
    ):
        import shutil

        from repro.storage.format import column_path

        db = tmp_path / "db"
        shutil.copytree(tiny_binary, db)
        victim = column_path(db, "mentions", "Confidence")
        raw = bytearray(victim.read_bytes())
        raw[0] ^= 0xFF
        victim.write_bytes(bytes(raw))
        rc = main(["verify", str(db)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "crc" in out
        assert "Confidence" in out

    def test_json_report_shape_on_truncation(self, tiny_binary, tmp_path, capsys):
        import json as _json
        import shutil

        from repro.storage.format import column_path

        db = tmp_path / "db"
        shutil.copytree(tiny_binary, db)
        victim = column_path(db, "mentions", "Delay")
        victim.write_bytes(victim.read_bytes()[:-8])
        rc = main(["verify", str(db), "--json"])
        assert rc == 1
        doc = _json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert any(issue["kind"] == "size" for issue in doc["issues"])


#: Every subcommand whose positional argument is a dataset directory
#: ({db}); {tmp} is the test's scratch directory.
_ON_A_DATASET = {
    "stats": ["stats", "{db}"],
    "tables": ["tables", "{db}"],
    "scaling": ["scaling", "{db}", "--threads", "1"],
    "profile": ["profile", "{db}"],
    "wildfires": ["wildfires", "{db}"],
    "cluster": ["cluster", "{db}"],
    "explain": ["explain", "{db}"],
    "serve": ["serve", "{db}", "--port", "0"],
    "split": ["split", "{db}", "{tmp}/shards"],
    "view-refresh": ["view", "refresh", "{tmp}/views", "{db}"],
}


class TestMissingDataset:
    """A DATASET that is not a dataset: exit 2 and a message, no traceback."""

    @pytest.mark.parametrize(
        "template", list(_ON_A_DATASET.values()), ids=list(_ON_A_DATASET)
    )
    def test_exit_2_with_one_stderr_line(self, template, tmp_path, capsys):
        import signal

        import repro.obs as obs

        argv = [a.format(db=tmp_path / "nope", tmp=tmp_path) for a in template]
        sigusr1 = signal.getsignal(signal.SIGUSR1)  # `serve` installs a dump
        try:
            rc = main(argv)
        finally:
            signal.signal(signal.SIGUSR1, sigusr1)
            obs.disable()  # `profile` enables observability before opening
            obs.reset()
        assert rc == 2
        err = capsys.readouterr().err
        assert "not a dataset" in err
        assert "Traceback" not in err


class TestViewCommandErrors:
    """``repro-gdelt view`` maps user errors to exit code 2 + stderr."""

    def test_create_invalid_definition(self, tmp_path, capsys):
        rc = main(["view", "create", str(tmp_path / "views"), "bad name!"])
        assert rc == 2
        assert capsys.readouterr().err  # reason reaches stderr

    def test_drop_unknown_view(self, tmp_path, capsys):
        rc = main(["view", "drop", str(tmp_path / "views"), "ghost"])
        assert rc == 2
        assert "ghost" in capsys.readouterr().err
