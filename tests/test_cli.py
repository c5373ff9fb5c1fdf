"""Tests for the ``python -m repro`` command-line interface."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main
from tests.conftest import CLOSES_WHAT_IT_OPENS


class TestDemo:
    def test_demo_prints_measurements(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "collected" in out
        assert "TCP" in out and "DNS" in out
        assert "com.example.app" in out

    def test_demo_trace_writes_jsonl_and_prints_budget(self, tmp_path,
                                                       capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(["demo", "--trace", path]) == 0
        out = capsys.readouterr().out
        assert "Per-stage sim-time budget" in out
        assert "tcp.connect" in out
        spans = [json.loads(line) for line in open(path)]
        assert spans
        assert {span["name"] for span in spans} >= {
            "tun_reader.read", "main_worker.loop", "tcp.connect"}

    def test_demo_metrics_writes_snapshot(self, tmp_path, capsys):
        path = str(tmp_path / "metrics.json")
        assert main(["demo", "--metrics", path]) == 0
        snapshot = json.load(open(path))
        assert snapshot["relay.syn_packets"]["value"] == 5
        assert snapshot["tcp.connect_rtt_ms"]["count"] == 5


class TestMetrics:
    def test_metrics_prints_canonical_json(self, capsys):
        assert main(["metrics"]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["relay.syn_packets"]["type"] == "counter"
        assert snapshot["udp_relay.dns_measured"]["value"] == 5

    def test_metrics_identical_in_process(self, capsys):
        main(["metrics"])
        first = capsys.readouterr().out
        main(["metrics"])
        assert capsys.readouterr().out == first

    def test_metrics_byte_identical_across_hash_seeds(self):
        """The acceptance bar: same seed, different PYTHONHASHSEED ->
        byte-identical snapshots."""
        outputs = []
        for hash_seed in ("0", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), "..", "src")]
                + env.get("PYTHONPATH", "").split(os.pathsep))
            result = subprocess.run(
                [sys.executable, "-m", "repro", "metrics"],
                capture_output=True, env=env, check=True)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]


class TestObsReport:
    def test_obsreport_renders_saved_trace(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main(["demo", "--trace", path])
        capsys.readouterr()
        assert main(["obsreport", path]) == 0
        out = capsys.readouterr().out
        assert "Per-stage sim-time budget" in out
        assert "self ms" in out

    def test_obsreport_missing_file_fails_cleanly(self, tmp_path,
                                                  capsys):
        assert main(["obsreport", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read trace" in capsys.readouterr().err


class TestCrowd:
    def test_crowd_prints_statistics(self, capsys):
        assert main(["crowd", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "devices" in out
        assert "app-RTT medians" in out
        assert "DNS medians" in out

    def test_crowd_export_jsonl(self, tmp_path, capsys):
        path = str(tmp_path / "out.jsonl")
        assert main(["crowd", "--scale", "0.002", "--export",
                     path]) == 0
        from repro.core import load_jsonl
        store = load_jsonl(path)
        assert len(store) > 100

    def test_crowd_export_csv(self, tmp_path, capsys):
        path = str(tmp_path / "out.csv")
        assert main(["crowd", "--scale", "0.002", "--export",
                     path]) == 0
        from repro.core import load_csv
        store = load_csv(path)
        assert len(store) > 100

    def test_crowd_export_csv_from_shards(self, tmp_path, capsys):
        path = str(tmp_path / "out.csv")
        assert main(["crowd", "--scale", "0.002", "--workers", "2",
                     "--export", path]) == 0
        from repro.core import load_csv
        assert len(load_csv(path)) > 100

    @pytest.mark.parametrize("seed", ["5", "7"])
    def test_crowd_prints_the_same_from_every_source(self, tmp_path,
                                                     capsys, seed):
        from repro.obs import reset_default
        printed = []
        for source in ([], ["--shard-dir", str(tmp_path / "D")],
                       ["--workers", "2"]):
            reset_default()
            assert main(["crowd", "--scale", "0.002", "--seed", seed,
                         "--metrics"] + source) == 0
            out, _, metrics = capsys.readouterr().out.partition(
                "campaign metrics:\n")
            lines = [line for line in out.splitlines()
                     if not line.startswith(("generated ", "shard dir:",
                                             "dataset sha256:"))]
            assert lines[0].startswith("total ")
            assert json.loads(metrics)["crowd.records_generated"][
                "value"] == int(lines[0].split()[1])
            printed.append(lines)
        reset_default()
        assert printed[0] == printed[1] == printed[2]

    def test_only_a_given_shard_dir_outlives_the_command(
            self, tmp_path, monkeypatch, capsys):
        import tempfile
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert main(["crowd", "--scale", "0.002", "--workers", "2"]) == 0
        assert main(["serve", "--scale", "0.002"]) == 0
        assert main(["crowd", "--scale", "0.002", "--shard-dir",
                     str(tmp_path / "kept")]) == 0
        assert os.listdir(tmp_path) == ["kept"]
        assert os.listdir(tmp_path / "kept")

    def test_crowd_metrics_prints_registry(self, capsys):
        from repro.obs import reset_default
        reset_default()
        assert main(["crowd", "--scale", "0.002", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "campaign metrics:" in out
        assert '"crowd.records_generated"' in out
        reset_default()

    def test_crowd_deterministic_seed(self, tmp_path, capsys):
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        main(["crowd", "--scale", "0.002", "--seed", "5",
              "--export", a])
        main(["crowd", "--scale", "0.002", "--seed", "5",
              "--export", b])
        assert open(a).read() == open(b).read()


class TestChaos:
    def test_chaos_list_enumerates_scenarios(self, capsys):
        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("bursty_lte", "dns_outage", "vpn_flap",
                     "backend_crash"):
            assert name in out

    def test_chaos_runs_scenario_with_artifacts(self, tmp_path,
                                                capsys):
        ledger = str(tmp_path / "ledger.json")
        export = str(tmp_path / "dataset.jsonl")
        assert main(["chaos", "--scenario", "dns_outage", "--seed", "5",
                     "--shard-dir", str(tmp_path / "shards"),
                     "--ledger", ledger, "--export", export]) == 0
        out = capsys.readouterr().out
        assert "dataset sha256:" in out
        assert "recall 1.00" in out
        entries = json.load(open(ledger))["entries"]
        assert entries[0]["event_id"] == "e-dns"
        assert entries[0]["activations"] == 2
        assert sum(1 for _line in open(export)) > 0

    def test_chaos_requires_scenario(self, capsys):
        assert main(["chaos"]) == 2
        assert main(["chaos", "--scenario", "volcano"]) == 2


class TestCluster:
    def test_five_nodes_print_the_three_node_digests(
            self, tmp_path, capsys, chaos_world):
        """The node count is a deployment choice: five collectors
        measure the same dataset and merge the same global rollup as
        the scenario's default three, and that rollup is the
        single-collector reference."""
        assert main(["cluster", "--scenario", "collector_failover",
                     "--seed", "7", "--nodes", "5",
                     "--shard-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recall 1.00" in out
        printed = dict(line.split(" sha256: ")
                       for line in out.splitlines() if " sha256: " in line)
        three = chaos_world("collector_failover")
        assert printed["dataset"].strip() == three.digest()
        assert printed["global rollup"].strip() \
            == printed["reference rollup"].strip() \
            == three.rollup_digest()


#: The three commands that open an existing store, by path.
_STORE_READERS = (lambda path: ["query", path, "summary"],
                  lambda path: ["store", "inspect", path],
                  lambda path: ["store", "compact", path])


class TestQuery:
    @pytest.fixture()
    def data_dir(self, tmp_path):
        from repro.core.records import MeasurementRecord
        from repro.store import StoreConfig, StoreEngine
        engine = StoreEngine(
            str(tmp_path / "store"),
            config=StoreConfig(flush_threshold_records=40,
                               segment_block_rows=8))
        engine.append_records([
            MeasurementRecord(
                kind="DNS" if i % 7 == 0 else "TCP",
                rtt_ms=20.0 + i % 30,
                timestamp_ms=(i % 3) * 28 * 24 * 3600 * 1000.0,
                app_package="com.app.%02d" % (i % 12),
                app_uid=10001, dst_ip="203.0.113.1", dst_port=443,
                domain="d%d.example" % (i % 3),
                network_type="LTE" if i % 2 == 0 else "WIFI",
                operator="Op%d" % ((i // 5) % 3), country="US",
                device_id="dev-1")
            for i in range(160)])
        engine.close()
        return str(tmp_path / "store")

    def test_query_views_render(self, data_dir, capsys):
        for view in ("summary", "apps", "networks", "windows",
                     "cases"):
            assert main(["query", data_dir, view]) == 0
            json.loads(capsys.readouterr().out)

    def test_store_inspect_prints_schema_and_stored_order(
            self, data_dir, capsys):
        assert main(["store", "inspect", data_dir]) == 0
        out = capsys.readouterr().out
        segments = [line for line in out.splitlines()
                    if line.lstrip().startswith("seq ")]
        assert len(segments) == 4
        assert all(line.endswith("schema 5") for line in segments)
        tables = [line.split() for line in out.splitlines()
                  if " parts " in line]
        orders = {fields[0]: fields[2] for fields in tables}
        assert orders == {
            "network": "operator,window,network_type,kind",
            "app": "app_package,window,kind",
            "lte_domain": "domain,operator"}
        # The zone-map range beside it leads with the subject.
        ranges = {fields[0]: fields[7] for fields in tables}
        assert ranges["app"].startswith("com.app.00|")
        assert ranges["network"].startswith("Op0|")

    def test_other_schema_store_is_refused_not_emptied(
            self, data_dir, capsys):
        """Query and inspect both stop at a segment of a schema this
        build does not read -- the last one's, rows as varints, or a
        later one's -- name it, and leave every byte where it is."""
        import os

        from tests.conftest import tree_bytes
        from tests.test_store_segments import _rewrite_footer
        name = sorted(os.listdir(os.path.join(data_dir, "segments")))[0]
        path = os.path.join(data_dir, "segments", name)
        for schema in (4, 6):
            _rewrite_footer(
                path, lambda footer: footer.update(schema=schema))
            before = tree_bytes(data_dir)
            for argv in (["store", "inspect", data_dir],
                         ["query", data_dir, "summary"]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert path in err and "schema %d " % schema in err
            assert tree_bytes(data_dir) == before
        assert not os.path.exists(os.path.join(data_dir, "quarantine"))

    def test_other_schema_checkpoint_is_refused(self, data_dir, capsys):
        """The same exit at a checkpoint of the schema before this
        one (rows as varints): not torn, not quarantined, not skipped
        for a longer WAL replay."""
        import os

        from repro.core.records import MeasurementRecord
        from repro.store import StoreEngine
        from tests.conftest import tree_bytes
        from tests.test_store_checkpoint import _restamp_checkpoint
        engine = StoreEngine(data_dir)
        engine.append_records([MeasurementRecord(
            kind="TCP", rtt_ms=20.0, timestamp_ms=0.0,
            app_package="com.app.00", operator="Op0",
            network_type="WIFI", device_id="dev-1")])
        # The load ends in the checkpoint that commits it.
        path = engine._checkpoint_path(engine.checkpoint_names()[-1])
        engine.close()
        _restamp_checkpoint(path, 2)
        before = tree_bytes(data_dir)
        for argv in (["store", "inspect", data_dir],
                     ["query", data_dir, "summary"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert path in err and "schema 2 " in err
        assert tree_bytes(data_dir) == before

    def test_other_generation_wal_and_manifest_are_refused(
            self, data_dir, capsys):
        """The same exit for the two forms the gate did not reach: a
        WAL under another generation's magic (inspect used to print
        "torn tail truncated" over an emptied file) and a manifest of
        another schema."""
        import os

        from repro.store import StoreEngine
        engine = StoreEngine(data_dir)
        engine.log_batch("dev-1", 0, 0, [], lines=[])
        engine.close()
        wal = engine._wal_path()
        frames = open(wal, "rb").read()
        assert len(frames) > 8
        manifest = os.path.join(data_dir, "MANIFEST.json")
        published = open(manifest).read()
        for path, other, told in (
                (wal, b"MOPWAL0\n" + frames[8:], "MOPWAL0"),
                (manifest,
                 published.replace('"schema":3', '"schema":2').encode(),
                 "schema 2 ")):
            sound = open(path, "rb").read()
            open(path, "wb").write(other)
            for argv in (["store", "inspect", data_dir],
                         ["query", data_dir, "summary"]):
                assert main(argv) == 2
                err = capsys.readouterr().err
                assert path in err and told in err
            assert open(path, "rb").read() == other
            open(path, "wb").write(sound)
        assert main(["store", "inspect", data_dir]) == 0

    def test_other_schema_state_file_is_refused(self, tmp_path, capsys):
        """A JSON state file, which older builds' ``serve --state``
        wrote (schema 3 or any other), is not a store: every reader
        exits 2 naming it and leaves it as it was."""
        from repro.backend.rollups import RollupStore
        state = tmp_path / "state.json"
        state.write_text(RollupStore().to_json() + "\n")
        for argv in _STORE_READERS:
            assert main(argv(str(state))) == 2
            assert "%s holds no store" % state in capsys.readouterr().err
        assert state.read_text() == RollupStore().to_json() + "\n"
        assert sorted(os.listdir(tmp_path)) == ["state.json"]

    def test_empty_or_missing_dir_is_refused_and_left_alone(
            self, tmp_path, capsys):
        """Opening a store creates one, so no reader opens a path
        that holds none: the empty directory gains no ``wal.log`` or
        ``segments/``, the missing path is not created."""
        empty, missing = tmp_path / "empty", tmp_path / "missing"
        empty.mkdir()
        for path in (empty, missing):
            for argv in _STORE_READERS:
                assert main(argv(str(path))) == 2
                assert "%s holds no store" % path \
                    in capsys.readouterr().err
        assert os.listdir(empty) == [] and not missing.exists()

    def test_wal_only_store_still_queries(self, tmp_path, capsys):
        """A store closed before its first flush is a WAL file and
        nothing else; that is a store."""
        from repro.core.records import MeasurementRecord
        from repro.store import StoreEngine
        path = str(tmp_path / "store")
        engine = StoreEngine(path)
        engine.log_batch("dev-1", 0, 1, [MeasurementRecord(
            kind="TCP", rtt_ms=20.0, timestamp_ms=0.0,
            app_package="com.app.00")])
        engine.close()
        assert not os.path.exists(os.path.join(path, "MANIFEST.json"))
        assert main(["query", path, "summary"]) == 0
        assert json.loads(capsys.readouterr().out)["records"] == 1

    def test_query_panel_and_table_views(self, data_dir, capsys):
        assert main(["query", data_dir, "panel", "--app",
                     "com.app.01"]) == 0
        panel = json.loads(capsys.readouterr().out)
        assert panel["panel"] == "app" and panel["windows"]
        assert main(["query", data_dir, "panel", "--operator",
                     "Op1"]) == 0
        panel = json.loads(capsys.readouterr().out)
        assert panel["panel"] == "network"
        assert main(["query", data_dir, "table", "--name", "network",
                     "--top", "5"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["table"] == "network"
        assert len(table["rows"]) <= 5

    def test_query_panel_modality_sections(self, tmp_path, capsys):
        """An app panel over modality rollups gains throughput,
        energy and AoI columns (docs/MODALITIES.md); an RTT-only
        panel answers them as null."""
        from repro.core.records import MeasurementRecord
        from repro.store import StoreConfig, StoreEngine
        engine = StoreEngine(
            str(tmp_path / "store"),
            config=StoreConfig(flush_threshold_records=40,
                               segment_block_rows=8))
        records = [MeasurementRecord(
            kind="TCP", rtt_ms=25.0 + i, timestamp_ms=1000.0 * i,
            app_package="com.app.mod") for i in range(20)]
        records += [
            MeasurementRecord(kind="TPUT_UP", rtt_ms=120.0,
                              timestamp_ms=0.0,
                              app_package="com.app.mod"),
            MeasurementRecord(kind="TPUT_DOWN", rtt_ms=480.0,
                              timestamp_ms=0.0,
                              app_package="com.app.mod"),
            MeasurementRecord(kind="ENERGY", rtt_ms=55.0,
                              timestamp_ms=0.0,
                              app_package="com.app.mod"),
            MeasurementRecord(kind="AOI", rtt_ms=2500.0,
                              timestamp_ms=0.0, device_id="dev-1"),
        ]
        records += [MeasurementRecord(
            kind="TCP", rtt_ms=30.0 + i, timestamp_ms=1000.0 * i,
            app_package="com.app.rtt") for i in range(20)]
        engine.append_records(records)
        data_dir = str(tmp_path / "store")
        assert main(["query", data_dir, "panel", "--app",
                     "com.app.mod"]) == 0
        panel = json.loads(capsys.readouterr().out)
        assert panel["throughput"]["up"]["count"] == 1
        assert panel["throughput"]["down"]["count"] == 1
        assert panel["energy"]["count"] == 1
        assert panel["aoi"]["count"] == 1
        assert main(["query", data_dir, "panel", "--app",
                     "com.app.rtt"]) == 0
        panel = json.loads(capsys.readouterr().out)
        assert panel["windows"]
        assert panel["throughput"] == {"up": None, "down": None}
        assert panel["energy"] is None
        # AoI is fleet staleness per window, not per app: the windows
        # com.app.rtt was active in do carry the device's samples.
        assert panel["aoi"]["count"] == 1
        assert main(["query", data_dir, "table", "--name",
                     "app_throughput"]) == 0
        table = json.loads(capsys.readouterr().out)
        assert table["table"] == "app_throughput"
        assert len(table["rows"]) == 2
        # Modality tables decode through the log grid with their own
        # unit suffix, not the linear RTT grid (docs/QUERY.md).
        assert all("median_kb_s" in row and "median_ms" not in row
                   for row in table["rows"])
        down = next(row for row in table["rows"]
                    if row["key"][2] == "TPUT_DOWN")
        assert down["median_kb_s"] == pytest.approx(480.0, rel=0.01)
        assert main(["query", data_dir, "table", "--name",
                     "app_energy"]) == 0
        energy = json.loads(capsys.readouterr().out)
        assert energy["rows"][0]["median_mj"] == \
            pytest.approx(55.0, rel=0.01)

    def test_query_dashboard_deterministic(self, data_dir, capsys):
        assert main(["query", data_dir, "dashboard", "--panels", "16",
                     "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["query", data_dir, "dashboard", "--panels", "16",
                     "--seed", "7"]) == 0
        assert capsys.readouterr().out == first
        report = json.loads(first)
        assert report["panels"] == 16
        assert "latency_ms" not in report
        # The same bytes under any PYTHONHASHSEED: the CI matrix runs
        # this under two.
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "83fe4deaa856a6e52daff09de5d13ffe"
            "14ec3fda2c3ae9a005e3ff425f9a379c")

    def test_query_top_must_be_positive(self, data_dir, capsys):
        for bad in ("0", "-3"):
            assert main(["query", data_dir, "apps", "--top", bad]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "--top" in err

    def test_query_unknown_table_name_rejected(self, data_dir, capsys):
        assert main(["query", data_dir, "table", "--name",
                     "nope"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "app" in err and "network" in err
        assert main(["query", data_dir, "table"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_panel_needs_exactly_one_subject(self, data_dir,
                                                   capsys):
        assert main(["query", data_dir, "panel"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["query", data_dir, "panel", "--app", "a",
                     "--operator", "b"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_negative_knobs_rejected(self, data_dir, capsys):
        assert main(["query", data_dir, "dashboard", "--panels",
                     "-1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["query", data_dir, "summary", "--cache-mb",
                     "-1"]) == 2
        assert "error:" in capsys.readouterr().err


class TestClosesWhatItOpens:
    """Every engine, view and segment reader a command opens, it
    closes: a file left open fails the test."""

    pytestmark = CLOSES_WHAT_IT_OPENS

    def test_serve_then_store_and_query_commands(self, tmp_path, capsys):
        data_dir = str(tmp_path / "store")
        assert main(["serve", "--scale", "0.002", "--data-dir",
                     data_dir]) == 0
        assert "stored 1 segment(s)" in capsys.readouterr().out
        for action in ("inspect", "compact"):
            assert main(["store", action, data_dir]) == 0
            assert "  seq " in capsys.readouterr().out
        assert main(["query", data_dir, "summary"]) == 0
        assert json.loads(capsys.readouterr().out)["records"] > 0


class TestArgs:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
