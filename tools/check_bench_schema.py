#!/usr/bin/env python3
"""Schema check for the repo's bench JSON artifacts.

Validates two document shapes (CI fails on drift so downstream
dashboards and the cross-version determinism oracle never ingest a
silently reshaped file):

  * wile-telemetry-v1 (src/telemetry/export.hpp) — whole-sim telemetry
    snapshots exported by ScenarioBuilder scenarios;
  * the scale_fleet runs table (BENCH_scale_fleet*.json);
  * the ablate_harvesting feasibility frontier
    (BENCH_ablate_harvesting*.json) — distance vs. report rate, which
    must be monotone and carry a matching determinism oracle;
  * the chaos_soak campaign summary (BENCH_chaos_soak*.json) — the
    randomized fault-campaign soak, which must report zero invariant
    violations and a passing same-seed determinism oracle;
  * the ingest_throughput verdict (BENCH_ingest_throughput*.json) —
    batched gateway drain vs the pre-refactor single-send pipeline,
    which must hold the >= 3x sustained-frames/s speedup, dispatch
    no-regression, and a passing dual-run determinism oracle;
  * the ablate_wur contention study (BENCH_ablate_wur*.json) — the
    massive-IoT energy/latency/delivery frontier across the three
    transmission modes (wile_beacon / ble / wur), which must cover all
    three modes up to >= 1000 contending stations, stay monotone
    (delivery ratio non-increasing with station count, per mode), show
    a uW-class WUR listen draw, and pass the dual-run oracle.

Usage: check_bench_schema.py FILE [FILE...]
Exit 0 when every file validates; 1 with per-file diagnostics otherwise.
"""
import json
import sys

TELEMETRY_SCHEMA = "wile-telemetry-v1"
TELEMETRY_REQUIRED = ["schema", "bench", "sim_time_us", "meta", "aggregates",
                      "histograms", "nodes", "samples", "trace"]
# Aggregates every scenario must export (the builder binds these before
# any per-node metric).
TELEMETRY_REQUIRED_AGGREGATES = [
    "scheduler.events_run",
    "medium.transmissions",
    "medium.deliveries",
    "fleet.messages",
]
# Per-node series the acceptance criteria pin: TX, RX and energy.
NODE_SENDER_REQUIRED = ["sender.tx.beacons", "sender.tx.airtime_us",
                        "sender.cycles", "sender.energy_j"]
NODE_RECEIVER_REQUIRED = ["receiver.messages", "receiver.beacons_seen"]
HISTOGRAM_REQUIRED = ["count", "sum", "min", "max", "mean", "buckets"]

FLEET_RUN_REQUIRED = ["n", "sim_seconds", "wall_seconds", "sim_wall_ratio",
                      "events", "events_per_sec", "transmissions", "deliveries",
                      "collision_losses", "messages", "rss_peak_mb",
                      "rss_delta_mb"]
# Rows written by the sharded engine additionally carry the engine
# config and the per-node memory footprint (0/0 threads/shards marks a
# legacy serial row; old artifacts without these keys still validate).
FLEET_SHARDED_REQUIRED = ["threads", "shards", "hw_threads",
                          "rss_per_node_bytes"]
# Per-component memory census (optional: rows written before it
# existed lack these keys): timeline segment heap per node, and the
# inline size of one Sender plus its Csma.
FLEET_CENSUS_OPTIONAL = ["timeline_bytes_per_node", "sender_inline_bytes"]

HARVEST_TOP_REQUIRED = ["bench", "quick", "sim_seconds", "period_seconds",
                        "source_tx_dbm", "rectenna_efficiency", "runs",
                        "monotone_frontier", "determinism_ok"]
HARVEST_RUN_REQUIRED = ["distance_m", "harvest_uw", "cycles_run",
                        "cycles_skipped", "brown_outs", "cycles_resumed",
                        "messages", "reports_per_hour", "digest"]

CHAOS_TOP_REQUIRED = ["bench", "quick", "campaigns", "seed_base",
                      "faults_generated", "faults_armed", "violations",
                      "campaigns_with_violations", "determinism_ok",
                      "shrinks"]
# Each entry the soak writes when a campaign trips an oracle and gets
# ddmin-shrunk to a replayable repro file.
CHAOS_SHRINK_REQUIRED = ["seed", "invariant", "original_actions",
                         "minimal_actions", "runs", "repro"]

INGEST_TOP_REQUIRED = ["bench", "quick", "batch_max", "drain_senders",
                       "drain_sim_seconds", "baseline_fps", "pipeline_fps",
                       "speedup", "baseline_forwarded", "pipeline_forwarded",
                       "pipeline_batches", "n_devices", "frames",
                       "dispatch_baseline_fps", "dispatch_pipeline_fps",
                       "dispatch_speedup", "dispatch_reports",
                       "rules_eval_fps", "rules_fired", "determinism_ok"]

WUR_TOP_REQUIRED = ["bench", "quick", "sim_seconds", "period_seconds",
                    "grid_spacing_m", "wur_listen_uw", "rows",
                    "monotone_frontier", "determinism_ok"]
WUR_ROW_REQUIRED = ["mode", "stations", "expected", "delivered",
                    "delivery_ratio", "energy_per_msg_uj", "avg_device_uw",
                    "mean_latency_ms", "digest"]
WUR_MODES = ("wile_beacon", "ble", "wur")


def fail(errors, msg):
    errors.append(msg)


def check_telemetry(doc, errors):
    for key in TELEMETRY_REQUIRED:
        if key not in doc:
            fail(errors, f"missing top-level key {key!r}")
    if doc.get("schema") != TELEMETRY_SCHEMA:
        fail(errors, f"schema is {doc.get('schema')!r}, want {TELEMETRY_SCHEMA!r}")
    if errors:
        return

    aggregates = doc["aggregates"]
    if not isinstance(aggregates, dict):
        return fail(errors, "aggregates is not an object")
    for name in TELEMETRY_REQUIRED_AGGREGATES:
        if name not in aggregates:
            fail(errors, f"missing aggregate {name!r}")

    for full, hist in doc["histograms"].items():
        for key in HISTOGRAM_REQUIRED:
            if key not in hist:
                fail(errors, f"histogram {full!r} missing {key!r}")

    nodes = doc["nodes"]
    if not isinstance(nodes, list):
        return fail(errors, "nodes is not a list")
    for entry in nodes:
        if "node" not in entry or "metrics" not in entry:
            fail(errors, f"node entry missing node/metrics: {entry}")
            continue
        metrics = entry["metrics"]
        # Classify by the component prefixes present; each component that
        # appears must carry its full required set.
        if any(k.startswith("sender.") for k in metrics):
            for k in NODE_SENDER_REQUIRED:
                if k not in metrics:
                    fail(errors, f"node {entry['node']} missing {k!r}")
        if any(k.startswith("receiver.") for k in metrics):
            for k in NODE_RECEIVER_REQUIRED:
                if k not in metrics:
                    fail(errors, f"node {entry['node']} missing {k!r}")

    trace = doc["trace"]
    for key in ("recorded", "dropped"):
        if key not in trace:
            fail(errors, f"trace missing {key!r}")


def check_fleet_runs(doc, errors):
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return fail(errors, "runs missing or empty")
    threads_aware = any("threads" in run for run in runs)
    for i, run in enumerate(runs):
        for key in FLEET_RUN_REQUIRED:
            if key not in run:
                fail(errors, f"runs[{i}] missing {key!r}")
        if threads_aware:
            for key in FLEET_SHARDED_REQUIRED:
                if key not in run:
                    fail(errors, f"runs[{i}] missing {key!r}")
        for key in FLEET_CENSUS_OPTIONAL:
            value = run.get(key, 0)
            if not isinstance(value, (int, float)) or value < 0:
                fail(errors, f"runs[{i}] {key} is not a non-negative number")
        if run.get("transmissions", 0) <= 0 or run.get("messages", 0) <= 0:
            fail(errors, f"runs[{i}] has no traffic — broken run?")
    if errors or not threads_aware:
        return

    # Determinism oracle across the thread axis: rows that differ only
    # in thread count ran the exact same simulation on the exact same
    # shard layout, so their traffic counters must be identical
    # (DESIGN.md §13: results depend on shards, never threads). This
    # holds regardless of the hardware the bench ran on.
    groups = {}
    for i, run in enumerate(runs):
        if run.get("threads", 0) > 0:
            key = (run["n"], run["sim_seconds"], run["shards"])
            groups.setdefault(key, []).append((i, run))
    for (n, _, shards), members in groups.items():
        if len(members) < 2:
            continue
        oracle = ["transmissions", "deliveries", "messages", "events"]
        first_i, first = members[0]
        for i, run in members[1:]:
            for key in oracle:
                if run.get(key) != first.get(key):
                    fail(errors,
                         f"runs[{i}] {key}={run.get(key)} differs from "
                         f"runs[{first_i}] {key}={first.get(key)} at same "
                         f"(n={n}, shards={shards}) — thread count leaked "
                         "into simulation results")
        # Throughput scaling gate: only enforceable where the machine
        # can actually run the workers in parallel. On a 1-core runner
        # extra threads are pure barrier overhead; the determinism
        # oracle above is the unconditional check.
        for i, run in members[1:]:
            if run.get("n", 0) < 100_000:
                continue
            if run.get("hw_threads", 0) >= run.get("threads", 0) \
                    and run.get("threads", 0) > first.get("threads", 0):
                if run.get("events_per_sec", 0) < first.get("events_per_sec", 0):
                    fail(errors,
                         f"runs[{i}] events/sec regressed vs runs[{first_i}] "
                         f"despite more threads ({run.get('threads')} vs "
                         f"{first.get('threads')}) on hardware with "
                         f"{run.get('hw_threads')} cores")


def check_harvesting(doc, errors):
    for key in HARVEST_TOP_REQUIRED:
        if key not in doc:
            fail(errors, f"missing top-level key {key!r}")
    runs = doc.get("runs")
    if not isinstance(runs, list) or not runs:
        return fail(errors, "runs missing or empty")
    for i, run in enumerate(runs):
        for key in HARVEST_RUN_REQUIRED:
            if key not in run:
                fail(errors, f"runs[{i}] missing {key!r}")
    if errors:
        return

    # The feasibility frontier: harvest power and report rate must both
    # be non-increasing as the sender moves away from the RF source.
    for prev, cur in zip(runs, runs[1:]):
        if cur["distance_m"] <= prev["distance_m"]:
            fail(errors, "runs not sorted by increasing distance")
        if cur["harvest_uw"] > prev["harvest_uw"]:
            fail(errors, f"harvest rises at {cur['distance_m']} m")
        if cur["reports_per_hour"] > prev["reports_per_hour"]:
            fail(errors, f"report rate rises at {cur['distance_m']} m "
                         "— frontier not monotone")
    if runs[0]["reports_per_hour"] <= runs[-1]["reports_per_hour"]:
        fail(errors, "frontier is flat: nearest point does not beat farthest")
    if runs[0]["messages"] <= 0:
        fail(errors, "no traffic at the nearest distance — broken run?")
    # The bench compares two same-seed runs per distance before writing;
    # these flags are the oracle's verdict and the exit-code gate.
    if doc["monotone_frontier"] is not True:
        fail(errors, "monotone_frontier is not true")
    if doc["determinism_ok"] is not True:
        fail(errors, "determinism oracle failed: same-seed digests differ")


def check_chaos_soak(doc, errors):
    for key in CHAOS_TOP_REQUIRED:
        if key not in doc:
            fail(errors, f"missing top-level key {key!r}")
    if errors:
        return

    if doc["campaigns"] <= 0:
        fail(errors, "no campaigns run — broken soak?")
    if doc["faults_armed"] <= 0:
        fail(errors, "no faults armed — campaigns never touched the fleet?")
    if doc["faults_armed"] > doc["faults_generated"]:
        fail(errors, "faults_armed exceeds faults_generated")

    shrinks = doc["shrinks"]
    if not isinstance(shrinks, list):
        return fail(errors, "shrinks is not a list")
    for i, entry in enumerate(shrinks):
        for key in CHAOS_SHRINK_REQUIRED:
            if key not in entry:
                fail(errors, f"shrinks[{i}] missing {key!r}")
        if entry.get("minimal_actions", 0) > entry.get("original_actions", 0):
            fail(errors, f"shrinks[{i}] grew: ddmin must never add actions")

    # The gates. A violation means a graceful-degradation bug escaped the
    # invariant oracles into main; the soak's whole point is that this
    # stays at zero (the repro files in `shrinks` are the debugging
    # starting point when it does not).
    if doc["violations"] != 0:
        fail(errors, f"{doc['violations']} invariant violation(s) across "
                     f"{doc['campaigns_with_violations']} campaign(s)")
    if doc["determinism_ok"] is not True:
        fail(errors, "determinism oracle failed: same-seed campaign replay "
                     "diverged")


def check_ingest(doc, errors):
    for key in INGEST_TOP_REQUIRED:
        if key not in doc:
            fail(errors, f"missing top-level key {key!r}")
    if errors:
        return

    # The acceptance criterion (ISSUE 9): batching multiplies sustained
    # frames/s/gateway by the achieved fill against the same shipped
    # Gateway at batch_max=1. Both numbers come out of the deterministic
    # simulation, so the gate is noise-free.
    if doc["speedup"] < 3.0:
        fail(errors, f"drain speedup {doc['speedup']} below the 3x gate")
    if doc["pipeline_fps"] < 3.0 * doc["baseline_fps"]:
        fail(errors, "pipeline_fps does not clear 3x the single-send floor")
    if doc["baseline_fps"] <= 0 or doc["pipeline_forwarded"] <= 0:
        fail(errors, "no traffic drained — broken run?")
    if doc["pipeline_batches"] <= 0:
        fail(errors, "batched path sent no batches")
    # Dispatch is a wall-clock no-regression guard, not a speedup claim:
    # the flat table collapses 4 probes to 1 on rx-window frames, which
    # on big-LLC hosts nets out to parity with the legacy maps' smaller
    # footprint. 0.9 leaves margin for shared-runner noise.
    if doc["dispatch_speedup"] < 0.9:
        fail(errors, f"dispatch regressed: {doc['dispatch_speedup']}x "
                     "against the legacy three-map replica")
    if doc["dispatch_reports"] <= 0 or doc["rules_fired"] <= 0:
        fail(errors, "dispatch/rules sections saw no work — broken stream?")
    # Dual-run oracle: same seeds, same counters, same FNV-1a payload
    # digests, and identical report decisions across both dispatch paths.
    if doc["determinism_ok"] is not True:
        fail(errors, "determinism oracle failed: same-seed runs diverged")


def check_wur(doc, errors):
    for key in WUR_TOP_REQUIRED:
        if key not in doc:
            fail(errors, f"missing top-level key {key!r}")
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        return fail(errors, "rows missing or empty")
    for i, row in enumerate(rows):
        for key in WUR_ROW_REQUIRED:
            if key not in row:
                fail(errors, f"rows[{i}] missing {key!r}")
    if errors:
        return

    by_mode = {}
    for i, row in enumerate(rows):
        mode = row["mode"]
        if mode not in WUR_MODES:
            fail(errors, f"rows[{i}] has unknown mode {mode!r}")
            continue
        by_mode.setdefault(mode, []).append(row)
        if row["expected"] <= 0 or row["delivered"] <= 0:
            fail(errors, f"rows[{i}] ({mode}, n={row['stations']}) saw no "
                         "traffic — broken run?")
    for mode in WUR_MODES:
        if mode not in by_mode:
            fail(errors, f"mode {mode!r} missing from the frontier")
    if errors:
        return

    # The contention frontier per mode: delivery ratio must not *rise*
    # as stations are added (the bench allows a 2% slack for CSMA
    # scheduling noise before declaring the frontier broken), and the
    # massive-IoT claim needs at least one >= 1000-station point.
    for mode, mode_rows in by_mode.items():
        for prev, cur in zip(mode_rows, mode_rows[1:]):
            if cur["stations"] <= prev["stations"]:
                fail(errors, f"{mode} rows not sorted by station count")
            if cur["delivery_ratio"] > prev["delivery_ratio"] + 0.02:
                fail(errors, f"{mode} delivery rises at n={cur['stations']} "
                             "— frontier not monotone")
        if max(r["stations"] for r in mode_rows) < 1000:
            fail(errors, f"{mode} frontier stops short of 1000 stations")

    # The tentpole power claim: the 802.11ba companion receiver listens
    # at uW class, visible in the power accounting (not a spec constant).
    if not 0.0 < doc["wur_listen_uw"] < 1000.0:
        fail(errors, f"wur_listen_uw={doc['wur_listen_uw']} is not uW-class "
                     "(want 0 < x < 1000)")
    if doc["monotone_frontier"] is not True:
        fail(errors, "monotone_frontier is not true")
    if doc["determinism_ok"] is not True:
        fail(errors, "determinism oracle failed: same-seed digests differ")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"unreadable or invalid JSON: {e}"]

    if doc.get("schema") == TELEMETRY_SCHEMA:
        check_telemetry(doc, errors)
    elif doc.get("bench") == "scale_fleet" and "runs" in doc:
        check_fleet_runs(doc, errors)
    elif doc.get("bench") == "ablate_harvesting":
        check_harvesting(doc, errors)
    elif doc.get("bench") == "chaos_soak":
        check_chaos_soak(doc, errors)
    elif doc.get("bench") == "ingest_throughput":
        check_ingest(doc, errors)
    elif doc.get("bench") == "ablate_wur":
        check_wur(doc, errors)
    else:
        errors.append("unrecognized document: not wile-telemetry-v1, "
                      "a scale_fleet runs table, an ablate_harvesting "
                      "frontier, a chaos_soak summary, an "
                      "ingest_throughput verdict, or an ablate_wur "
                      "contention study")
    return errors


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bad = 0
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            bad += 1
            for e in errors:
                print(f"{path}: {e}", file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
