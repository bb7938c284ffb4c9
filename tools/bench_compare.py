#!/usr/bin/env python3
"""Compare a bench JSON run against a committed baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]

Both files are arrays of flat records (tools/bench_json.hh).  A
record's identity is the tuple of its non-metric fields; records are
matched by identity and their metrics compared:

  ns_per_node, ms_per_round,  lower is better; FAIL when current
  ctor_ms, reset_ms           exceeds baseline by more than the
                              threshold (default 15%; calibrated to
                              the run-to-run drift of a shared
                              single-core host -- identical binaries
                              measured minutes apart differ by up to
                              ~13% even under a best-of-N minimum
                              estimator, see bench/common.hh);
                              ctor_ms/reset_ms are the setup rows'
                              allocator bring-up times
  util_frac_of_opt            higher is better; FAIL when current
                              drops more than 1% below baseline
  warm_frac                   FAIL only above the 0.25 acceptance
                              bar (the metric is a ratio of two
                              round counts and jitters at the
                              bottom; the bar is what matters)
  rounds_per_sec              higher is better; FAIL when current
                              falls below baseline by more than
                              the perf threshold (a rate is an
                              inverted timing and drifts like one)
  bytes_per_round             lower is better; FAIL on any growth
                              past 0.1% -- cut-edge wire traffic
                              is deterministic in topology + shard
                              plan, so real growth means the
                              frames got fatter or the shard cut
                              got worse, never host noise
  frames_per_round            lower is better; FAIL on any growth
                              past 0.1% (deterministic, like
                              bytes_per_round: more frames means
                              the batch coalescing regressed)
  header_overhead_frac        lower is better; FAIL on any growth
                              past 0.1% (frame-header bytes as a
                              fraction of wire bytes; growth means
                              batches got smaller or the packer
                              started splitting needlessly)
  steady_bytes_per_round,     lower is better; FAIL on any growth
  steady_frames_per_round     past 0.1% (quiesced wire traffic is
                              deterministic -- growth means frame
                              suppression or delta coding
                              regressed)
  steady_rounds_per_sec       higher is better; FAIL below the
                              perf threshold (a rate)
  step_rounds_to_reconverge   lower is better; FAIL on ANY growth
                              (deterministic round count of the
                              warm-started budget step)

Steady rows are additionally held to absolute cross-record bars
against the dense (mode=sharded, same proto/n/shards) row of the
CURRENT run: steady_bytes_per_round must be at most
dense bytes_per_round / 8 and steady_rounds_per_sec at least 4x
dense rounds_per_sec -- the steady-state sparsity claim itself, so
a stale baseline cannot mask losing it.

wire_recovery rows are held to absolute bars of their own (see
AVAILABILITY_BAR and below), among them recovery_ms <= 10: half the
20 ms retransmit tick, so recovery must be event-driven; and
settle_rounds <= quiet_rounds + 3: the survivors are seeded at the
water level of their shares, so the reference re-caps in the
confirmation rounds, not by diffusion.

A baseline record with no current match is a FAIL (a benchmark
disappeared); new current records pass (coverage grew).  Exit code
is 1 on any failure, 0 otherwise.
"""

import argparse
import json
import sys

# Fields that carry measurements; everything else is identity.
PERF_METRICS = ("ns_per_node", "ms_per_round", "ctor_ms", "reset_ms")
OTHER_METRICS = (
    "util_frac_of_opt",
    "warm_frac",
    "peak_rss_mb",
    "rounds",
    "cold_rounds",
    "warm_rounds",
    "total_power_w",
    "observed_loss",
    "worst_residual_w",
    "quiet_rounds",
    "comp_ms",
    "comm_ms",
    "iters",
    "availability",
    "util_frac_during",
    "rounds_to_recover",
    "repairs",
    "refederations",
    "escalations",
    "nodes_failed",
    "nodes_rejoined",
    "false_positives",
    "rounds_per_sec",
    "bytes_per_round",
    "frames_per_round",
    "header_overhead_frac",
    "cut_edges",
    "cut_frac",
    "retransmits",
    "retrans_bytes",
    "duplicates",
    "edges_suppressed",
    "phase_send_ms",
    "phase_interior_ms",
    "phase_drain_ms",
    "phase_boundary_ms",
    "detection_rounds",
    "recovery_rounds",
    "recovery_ms",
    "settle_rounds",
    "stale_epoch_frames",
    "gaveup_frames",
    "converge_rounds",
    "hold_rounds",
    "steady_bytes_per_round",
    "steady_frames_per_round",
    "steady_rounds_per_sec",
    "step_rounds_to_reconverge",
    "suppressed_frames",
    "delta_frames",
    "wake_messages",
)
METRICS = set(PERF_METRICS) | set(OTHER_METRICS)

WARM_FRAC_BAR = 0.25
UTIL_FRAC_SLACK = 0.01
WIRE_BYTES_SLACK = 0.001
# Absolute bars for bench == "wire_recovery" rows (applied to the
# CURRENT run, baseline or not): recovery must deliver every
# survivor, detect within the checkpoint window, and roll back no
# deeper than the ring covers.  These mirror the bars the bench
# binary itself enforces, so a stale baseline cannot mask a
# regression.
AVAILABILITY_BAR = 0.999
DETECTION_ROUNDS_BAR = 8
RECOVERY_ROUNDS_BAR = 8
# Death confirmed -> Resume sent, in ms: half of the default 20 ms
# retransmit tick.  A survivor that waits out a tick before it sees
# the Quiesce, or dead-block surgery that goes quadratic in the
# block size again, cannot clear it.
RECOVERY_MS_BAR = 10.0
# Resume -> converged() of the reference, in rounds past the row's
# quiet_rounds: a seeded survivor only confirms its seed.
SETTLE_ROUNDS_SLACK = 3
# The steady-state sparsity claim, held against the CURRENT run's
# own dense row (see module docstring).
STEADY_BYTES_DIVISOR = 8.0
STEADY_RATE_MULTIPLE = 4.0


def identity(record):
    return tuple(
        sorted((k, v) for k, v in record.items() if k not in METRICS)
    )


def load(path):
    with open(path) as fh:
        records = json.load(fh)
    if not isinstance(records, list):
        raise SystemExit(f"{path}: expected a JSON array of records")
    table = {}
    for rec in records:
        table[identity(rec)] = rec
    return table


def describe(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional perf regression (default 0.15)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    curr = load(args.current)

    failures = []
    compared = 0
    for key, brec in sorted(base.items()):
        crec = curr.get(key)
        if crec is None:
            failures.append(f"MISSING  {describe(key)}")
            continue
        for metric in PERF_METRICS:
            if metric not in brec or metric not in crec:
                continue
            b, c = float(brec[metric]), float(crec[metric])
            compared += 1
            if b > 0.0 and c > b * (1.0 + args.threshold):
                failures.append(
                    f"PERF     {describe(key)}: {metric} "
                    f"{b:.4g} -> {c:.4g} "
                    f"(+{100.0 * (c / b - 1.0):.1f}%)"
                )
        if "util_frac_of_opt" in brec and "util_frac_of_opt" in crec:
            b = float(brec["util_frac_of_opt"])
            c = float(crec["util_frac_of_opt"])
            compared += 1
            if c < b - UTIL_FRAC_SLACK:
                failures.append(
                    f"QUALITY  {describe(key)}: util_frac_of_opt "
                    f"{b:.4f} -> {c:.4f}"
                )
        if "rounds_per_sec" in brec and "rounds_per_sec" in crec:
            b = float(brec["rounds_per_sec"])
            c = float(crec["rounds_per_sec"])
            compared += 1
            if b > 0.0 and c < b * (1.0 - args.threshold):
                failures.append(
                    f"RATE     {describe(key)}: rounds_per_sec "
                    f"{b:.4g} -> {c:.4g} "
                    f"(-{100.0 * (1.0 - c / b):.1f}%)"
                )
        if (
            "steady_rounds_per_sec" in brec
            and "steady_rounds_per_sec" in crec
        ):
            b = float(brec["steady_rounds_per_sec"])
            c = float(crec["steady_rounds_per_sec"])
            compared += 1
            if b > 0.0 and c < b * (1.0 - args.threshold):
                failures.append(
                    f"RATE     {describe(key)}: "
                    f"steady_rounds_per_sec "
                    f"{b:.4g} -> {c:.4g} "
                    f"(-{100.0 * (1.0 - c / b):.1f}%)"
                )
        if (
            "step_rounds_to_reconverge" in brec
            and "step_rounds_to_reconverge" in crec
        ):
            b = float(brec["step_rounds_to_reconverge"])
            c = float(crec["step_rounds_to_reconverge"])
            compared += 1
            if c > b:
                failures.append(
                    f"WARMSTART {describe(key)}: "
                    f"step_rounds_to_reconverge {b:.0f} -> {c:.0f}"
                )
        for metric in (
            "bytes_per_round",
            "frames_per_round",
            "header_overhead_frac",
            "steady_bytes_per_round",
            "steady_frames_per_round",
        ):
            if metric not in brec or metric not in crec:
                continue
            b = float(brec[metric])
            c = float(crec[metric])
            compared += 1
            if c > b * (1.0 + WIRE_BYTES_SLACK):
                failures.append(
                    f"WIRE     {describe(key)}: {metric} "
                    f"{b:.4g} -> {c:.4g} "
                    f"(+{100.0 * (c / b - 1.0):.1f}%)"
                )
        if "warm_frac" in crec:
            c = float(crec["warm_frac"])
            compared += 1
            if c > WARM_FRAC_BAR:
                failures.append(
                    f"WARMSTART {describe(key)}: warm_frac "
                    f"{c:.3f} > {WARM_FRAC_BAR}"
                )

    # Absolute steady-state bars: every steady row in the CURRENT
    # run must beat its own dense twin by the claimed margins,
    # matched baseline or not.
    dense_rows = {
        (crec.get("proto"), crec.get("n"), crec.get("shards")): crec
        for crec in curr.values()
        if crec.get("bench") == "wire_shard"
        and crec.get("mode") == "sharded"
    }
    for key, crec in sorted(curr.items()):
        if (
            crec.get("bench") != "wire_shard"
            or crec.get("mode") != "steady"
        ):
            continue
        dense = dense_rows.get(
            (crec.get("proto"), crec.get("n"), crec.get("shards"))
        )
        if dense is None:
            failures.append(
                f"STEADY   {describe(key)}: no dense sharded "
                f"row to compare against"
            )
            continue
        compared += 1
        sb = float(crec["steady_bytes_per_round"])
        db = float(dense["bytes_per_round"])
        if sb > db / STEADY_BYTES_DIVISOR:
            failures.append(
                f"STEADY   {describe(key)}: steady_bytes_per_round "
                f"{sb:.4g} > dense {db:.4g} / "
                f"{STEADY_BYTES_DIVISOR:.0f}"
            )
        sr = float(crec["steady_rounds_per_sec"])
        dr = float(dense["rounds_per_sec"])
        if sr < dr * STEADY_RATE_MULTIPLE:
            failures.append(
                f"STEADY   {describe(key)}: steady_rounds_per_sec "
                f"{sr:.4g} < dense {dr:.4g} x "
                f"{STEADY_RATE_MULTIPLE:.0f}"
            )

    # Absolute recovery bars: every wire_recovery row in the
    # CURRENT run must clear them, matched baseline or not.
    for key, crec in sorted(curr.items()):
        if crec.get("bench") != "wire_recovery":
            continue
        compared += 1
        if float(crec.get("availability", 1.0)) < AVAILABILITY_BAR:
            failures.append(
                f"RECOVERY {describe(key)}: availability "
                f"{float(crec['availability']):.4f} < "
                f"{AVAILABILITY_BAR}"
            )
        if float(crec.get("detection_rounds", 0)) > DETECTION_ROUNDS_BAR:
            failures.append(
                f"RECOVERY {describe(key)}: detection_rounds "
                f"{crec['detection_rounds']} > {DETECTION_ROUNDS_BAR}"
            )
        if float(crec.get("recovery_rounds", 0)) > RECOVERY_ROUNDS_BAR:
            failures.append(
                f"RECOVERY {describe(key)}: recovery_rounds "
                f"{crec['recovery_rounds']} > {RECOVERY_ROUNDS_BAR}"
            )
        if float(crec.get("recovery_ms", 0.0)) > RECOVERY_MS_BAR:
            failures.append(
                f"RECOVERY {describe(key)}: recovery_ms "
                f"{float(crec['recovery_ms']):.3g} > {RECOVERY_MS_BAR:g}"
            )
        if "settle_rounds" in crec and "quiet_rounds" in crec:
            bar = int(crec["quiet_rounds"]) + SETTLE_ROUNDS_SLACK
            settle = int(crec["settle_rounds"])
            if settle == 0 or settle > bar:
                failures.append(
                    f"RECOVERY {describe(key)}: settle_rounds "
                    f"{settle} > {bar} (0: never settled)"
                )

    grown = len(curr.keys() - base.keys())
    print(
        f"bench_compare: {len(base)} baseline records, "
        f"{compared} comparisons, {grown} new records, "
        f"{len(failures)} failure(s)"
    )
    for line in failures:
        print(f"  {line}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
