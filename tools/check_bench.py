#!/usr/bin/env python3
"""Bench-regression gate for the serve-SLO harness (DESIGN.md §15) and
the artifact load study (DESIGN.md §16).

Compares a candidate JSON-lines output against a checked-in baseline
(BENCH_serve_slo.json or BENCH_load.json) and fails when serving
latency, throughput, or artifact load time regressed beyond the
tolerance band:

    tools/check_bench.py --baseline BENCH_serve_slo.json \
        --candidate /tmp/serve_slo.json \
        [--max-p99-ratio 2.5] [--min-throughput-ratio 0.4]

    tools/check_bench.py --baseline BENCH_load.json \
        --candidate /tmp/bench_load.json [--max-load-ratio 3.0]

Replay lines are matched by their (bench, mode, run) key, so a baseline
with a "paced" and an "unthrottled" replay line gates both runs
independently. For every matched pair the gate checks:

  * candidate errors == 0,
  * candidate advise-service p99 <= baseline p99 * max-p99-ratio,
  * candidate throughput >= baseline * min-throughput-ratio (both
    events/sec and advise qps).

Load lines (bench_train_serve --load) are matched by (mode, n); each
candidate best_load_ms must stay within max-load-ratio of the baseline.

The band is deliberately wide: CI machines are noisy, and the absolute
SLO verdict emitted by loadgen itself (--slo-p99-us) covers the "is this
fast enough at all" question. This gate only catches order-of-magnitude
regressions such as an accidentally disabled index or a serialization
stall on the advise path. Only stdlib is used.
"""

import argparse
import json
import sys


def load_lines(path):
    """Parses a JSON-lines file, returning the list of parsed objects."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                out.append(json.loads(raw))
            except json.JSONDecodeError as err:
                raise SystemExit(
                    f"{path}:{lineno}: not valid JSON ({err}): {raw[:120]}"
                )
    return out


def replay_lines(lines):
    """Maps (bench, mode, run) -> line for the replay measurement lines."""
    keyed = {}
    for line in lines:
        if line.get("mode") != "replay":
            continue
        key = (line.get("bench"), line.get("mode"), line.get("run"))
        keyed[key] = line
    return keyed


def load_study_lines(lines):
    """Maps (mode, n) -> line for the artifact load measurement lines."""
    keyed = {}
    for line in lines:
        if line.get("bench") != "load":
            continue
        key = (line.get("mode"), line.get("n"))
        keyed[key] = line
    return keyed


def check_load_pair(key, base, cand, args, failures):
    """Applies the load-time ratio gate to one (mode, n) pair."""
    label = "load/" + "/".join(str(k) for k in key)
    base_ms = base.get("best_load_ms")
    cand_ms = cand.get("best_load_ms")
    if base_ms is None or cand_ms is None:
        failures.append(f"{label}: missing best_load_ms")
    elif base_ms > 0 and cand_ms > base_ms * args.max_load_ratio:
        failures.append(
            f"{label}: best_load_ms {cand_ms:.3f} > "
            f"{args.max_load_ratio:g}x baseline ({base_ms:.3f})"
        )


def check_pair(key, base, cand, args, failures):
    """Applies the tolerance band to one matched baseline/candidate pair."""
    label = "/".join(str(k) for k in key)

    errors = cand.get("errors", 0)
    if errors != 0:
        failures.append(f"{label}: candidate reports {errors} replay errors")

    base_p99 = base.get("advise_service_us", {}).get("p99")
    cand_p99 = cand.get("advise_service_us", {}).get("p99")
    if base_p99 is None or cand_p99 is None:
        failures.append(f"{label}: missing advise_service_us.p99")
    elif base_p99 > 0 and cand_p99 > base_p99 * args.max_p99_ratio:
        failures.append(
            f"{label}: advise p99 {cand_p99:.1f}us > "
            f"{args.max_p99_ratio:g}x baseline ({base_p99:.1f}us)"
        )

    for field in ("throughput_events_per_sec", "advise_qps"):
        base_v = base.get(field)
        cand_v = cand.get(field)
        if base_v is None or cand_v is None:
            failures.append(f"{label}: missing {field}")
        elif base_v > 0 and cand_v < base_v * args.min_throughput_ratio:
            failures.append(
                f"{label}: {field} {cand_v:.1f} < "
                f"{args.min_throughput_ratio:g}x baseline ({base_v:.1f})"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True)
    parser.add_argument("--candidate", required=True)
    parser.add_argument(
        "--max-p99-ratio",
        type=float,
        default=2.5,
        help="candidate p99 may be at most this multiple of the baseline",
    )
    parser.add_argument(
        "--min-throughput-ratio",
        type=float,
        default=0.4,
        help="candidate throughput must be at least this fraction of the "
        "baseline",
    )
    parser.add_argument(
        "--max-load-ratio",
        type=float,
        default=3.0,
        help="candidate artifact load time may be at most this multiple of "
        "the baseline",
    )
    args = parser.parse_args()

    baseline_raw = load_lines(args.baseline)
    candidate_raw = load_lines(args.candidate)
    baseline = replay_lines(baseline_raw)
    candidate = replay_lines(candidate_raw)
    baseline_load = load_study_lines(baseline_raw)
    candidate_load = load_study_lines(candidate_raw)
    if not baseline and not baseline_load:
        raise SystemExit(f"{args.baseline}: no measurement lines")
    if baseline and not candidate:
        raise SystemExit(f"{args.candidate}: no replay measurement lines")
    if baseline_load and not candidate_load:
        raise SystemExit(f"{args.candidate}: no load measurement lines")

    failures = []
    matched = 0
    for key, base in sorted(baseline.items()):
        cand = candidate.get(key)
        if cand is None:
            failures.append(
                "/".join(str(k) for k in key) + ": missing from candidate"
            )
            continue
        matched += 1
        check_pair(key, base, cand, args, failures)

    for key, base in sorted(
        baseline_load.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
    ):
        cand = candidate_load.get(key)
        if cand is None:
            failures.append(
                "load/" + "/".join(str(k) for k in key)
                + ": missing from candidate"
            )
            continue
        matched += 1
        check_load_pair(key, base, cand, args, failures)

    # Determinism and verdict lines are authoritative in the candidate:
    # loadgen already exits nonzero on them, but double-check here so a
    # tee'd file can be gated standalone.
    for line in candidate_raw:
        if line.get("config") == "determinism" and not line.get(
            "bitwise_identical", True
        ):
            failures.append("candidate determinism check failed")
        if line.get("config") == "verdict" and not line.get("ok", True):
            failures.append("candidate verdict line reports ok=false")

    if failures:
        print(f"check_bench: FAIL ({matched} run(s) compared)")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"check_bench: OK ({matched} run(s) within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
