#!/usr/bin/env bash
# Tier-1 verification: build and run the test suite, plain and sanitized.
#
#   ci/check.sh            # plain + ASan/UBSan + TSan + bench smoke + audit
#   ci/check.sh plain      # plain RelWithDebInfo only
#   ci/check.sh sanitize   # ASan+UBSan only
#   ci/check.sh tsan       # ThreadSanitizer only
#   ci/check.sh bench      # bench smoke: run one table bench, validate the
#                          # BENCH_metrics.json and BENCH_trace.json it
#                          # exports (DESIGN.md §9, §10), then the load
#                          # scale bench + its BENCH_load.json (§11.5), the
#                          # drain-a-host bench + BENCH_drain.json (§12),
#                          # the adversarial-network bench +
#                          # BENCH_adversarial.json (§7), the sim-core
#                          # throughput bench + BENCH_sim.json (§13), and
#                          # the service tail-latency bench +
#                          # BENCH_service.json (§15)
#   ci/check.sh sweeps     # property sweeps only (ctest -L sweep) with a
#                          # generous timeout: migration x fault, load
#                          # placement, adversarial-network, and
#                          # service-tail cells
#   ci/check.sh audit      # trace audit: prove the TraceAuditor flags the
#                          # deliberately-broken fixtures (missing flush
#                          # stage etc.), then audit a real migration trace
#   ci/check.sh slo        # SLO drill: run bench_load_scale --slo (a
#                          # deliberately-violated rule with the flight
#                          # recorder armed), assert exactly one
#                          # flight_*.json landed, and replay the embedded
#                          # span tail offline (DESIGN.md §14)
#   ci/check.sh digest REV # digest parity: build perfbench at git revision
#                          # REV (a temporary worktree) and in the working
#                          # tree, run every workload once at seeds 1 and
#                          # 7919, and fail on any differing digest line
#   ci/check.sh parity REV # output parity: build the benches and examples
#                          # at REV (a temporary worktree) and in the
#                          # working tree, run the 22 deterministic benches
#                          # and every example, each in a fresh directory,
#                          # and fail on any differing stdout or exit code
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# Build and run one table bench, then validate the metrics export: the file
# must be line-delimited strict JSON, every mpvm migration stage must have a
# non-empty histogram, and no value may be NaN/Inf.  This is the check that
# would have caught the wire-byte undercount: an instrumented quantity that
# is silently zero or absent fails here, not three PRs later.
run_bench_smoke() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_table2_mpvm_migration
  ( cd build && ./bench/bench_table2_mpvm_migration )
  validate_bench_json build/BENCH_analytics.json
  python3 - build/BENCH_metrics.json <<'EOF'
import json, math, sys

path = sys.argv[1]
stages = {f"mpvm.stage.{s}" for s in ("freeze", "flush", "transfer", "restart")}
seen = {}

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)

with open(path) as f:
    lines = [ln for ln in f if ln.strip()]
if not lines:
    sys.exit(f"{path}: empty metrics export")
for i, ln in enumerate(lines, 1):
    try:
        # json accepts NaN/Infinity by default; parse_constant makes it strict.
        rec = json.loads(ln, parse_constant=lambda c: float("nan"))
    except json.JSONDecodeError as e:
        sys.exit(f"{path}:{i}: not valid JSON: {e}")
    for key in ("t", "value", "sum", "min", "max", "mean", "p50", "p90", "p99"):
        if key in rec and not finite(rec[key]):
            sys.exit(f"{path}:{i}: non-finite {key} in {rec.get('name')}")
    if rec.get("type") == "histogram":
        for b in rec.get("buckets", []):
            if b["le"] is not None and not finite(b["le"]):
                sys.exit(f"{path}:{i}: non-finite bucket bound")
        if rec["name"] in stages:
            seen[rec["name"]] = seen.get(rec["name"], 0) + rec["count"]
            if rec["count"] == 0 or not rec.get("buckets"):
                sys.exit(f"{path}:{i}: empty histogram for {rec['name']}")

missing = stages - set(seen)
if missing:
    sys.exit(f"{path}: no histogram exported for: {', '.join(sorted(missing))}")
print(f"bench smoke: {len(lines)} metric lines, per-stage samples: "
      + ", ".join(f"{k.split('.')[-1]}={v}" for k, v in sorted(seen.items())))
EOF
  validate_trace build/BENCH_trace.json
  run_bench_load
}

# One reusable validator for every per-bench JSON artifact.  Each bench
# stamps a "bench" key into its export; the validator parses strictly
# (NaN/Infinity rejected) and dispatches to the matching schema + gate
# check.  Adding a bench means adding one check_* function here — the
# strict-parse plumbing, finiteness helpers, and failure reporting are
# shared, not copy-pasted per bench.
validate_bench_json() {
  python3 - "$1" <<'EOF'
import json, math, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f, parse_constant=lambda c: float("nan"))

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)

def fail(msg):
    sys.exit(f"{path}: {msg}")

def require(*keys):
    for key in keys:
        if key not in doc:
            fail(f"missing key {key!r}")

def check_gate_ratio(gates, ratio_key, limit_key, at_most):
    if gates.get("pass") is not True:
        fail(f"gate failure: {gates}")
    ratio, limit = gates.get(ratio_key), gates.get(limit_key)
    if not (finite(ratio) and finite(limit)):
        fail(f"non-finite {ratio_key}/{limit_key} in gates")
    if (ratio > limit) if at_most else (ratio < limit):
        fail(f"{ratio_key} {ratio!r} breaks limit {limit!r}")

# BENCH_load.json: one entry per policy including the no-balancing
# baseline, every real policy below the baseline CV with zero hysteresis
# violations (DESIGN.md §11.5).
def check_load_scale():
    require("hosts", "tasks", "horizon", "steady_window", "policies")
    policies = doc["policies"]
    want = {"none", "threshold", "best_fit", "destination_swap", "work_steal"}
    got = {p.get("policy") for p in policies}
    if got != want:
        fail(f"policies {sorted(got)} != expected {sorted(want)}")
    baseline = next(p for p in policies if p["policy"] == "none")
    if not finite(baseline["cv"]) or baseline["cv"] <= 0:
        fail(f"baseline cv {baseline['cv']!r} not a positive float")
    for p in policies:
        for key in ("cv", "migrations", "thrash", "residency_rejections",
                    "decisions", "convergence_s"):
            if not finite(p.get(key)):
                fail(f"{p['policy']}: non-finite {key}")
        if p["policy"] == "none":
            continue
        if p["cv"] >= baseline["cv"]:
            fail(f"{p['policy']}: cv {p['cv']} not below baseline "
                 f"{baseline['cv']}")
        if p["thrash"] != 0:
            fail(f"{p['policy']}: {p['thrash']} hysteresis violations")
        if p["migrations"] == 0:
            fail(f"{p['policy']}: balanced without migrating?")
        if p["convergence_s"] < 0:
            fail(f"{p['policy']}: ewma(gs.load.cv) never converged")
    print("load bench: baseline cv %.4f; " % baseline["cv"]
          + ", ".join(f"{p['policy']}={p['cv']:.4f}" for p in policies
                      if p["policy"] != "none"))

# BENCH_drain.json: one run per k plus the pre-copy run, and the two §12
# acceptance gates — k=4 evacuation at most 0.45x serial, pre-copy median
# freeze at most 0.25x stop-and-copy.
def check_drain_host():
    require("tasks", "dests", "image_bytes", "runs", "gates")
    runs = doc["runs"]
    want = {(1, False), (2, False), (4, False), (8, False), (4, True)}
    got = {(r.get("k"), r.get("precopy")) for r in runs}
    if got != want:
        fail(f"runs {sorted(got)} != expected {sorted(want)}")
    for r in runs:
        for key in ("evacuation_s", "freeze_p50_ms", "freeze_p90_ms",
                    "freeze_max_ms", "freeze_p99_ms", "precopy_bytes",
                    "residue_bytes", "admission_waits", "slo_violations"):
            if not finite(r.get(key)):
                fail(f"k={r['k']}: non-finite {key}")
        if r["migrated"] != doc["tasks"]:
            fail(f"k={r['k']} precopy={r['precopy']}: drained "
                 f"{r['migrated']}/{doc['tasks']} tasks")
        if r["precopy"] and r["precopy_bytes"] == 0:
            fail("pre-copy run streamed zero bytes before freeze")
        if r["slo_violations"] != 0:
            fail(f"k={r['k']}: inflight-cap SLO fired "
                 f"{r['slo_violations']} times")
    check_gate_ratio(doc["gates"], "speedup_ratio", "speedup_limit",
                     at_most=True)
    check_gate_ratio(doc["gates"], "freeze_ratio", "freeze_limit",
                     at_most=True)
    check_gate_ratio(doc["gates"], "freeze_p99_ratio", "freeze_p99_limit",
                     at_most=True)
    gates = doc["gates"]
    print("drain bench: evac k=4/k=1 %.3f <= %.2f, precopy freeze %.3f <= "
          "%.2f, p99 %.3f <= %.2f"
          % (gates["speedup_ratio"], gates["speedup_limit"],
             gates["freeze_ratio"], gates["freeze_limit"],
             gates["freeze_p99_ratio"], gates["freeze_p99_limit"]))

# BENCH_adversarial.json: one run per fabric scenario, exactly-once and
# unscathed streams everywhere, the injectors provably fired, and the §7
# gate — goodput under 1% corruption + duplication at least 0.6x clean.
def check_adversarial_net():
    require("seed", "horizon", "pairs", "messages_per_pair",
            "payload_bytes", "runs", "gates")
    runs = doc["runs"]
    want = {"clean", "corrupt1pct", "duplicate", "corrupt+duplicate"}
    got = {r.get("scenario") for r in runs}
    if got != want:
        fail(f"scenarios {sorted(got)} != expected {sorted(want)}")
    expect = doc["pairs"] * doc["messages_per_pair"]
    for r in runs:
        s = r["scenario"]
        for key in ("goodput_bps", "elapsed_s", "messages", "garbled",
                    "duplicates_injected", "corrupt_injected",
                    "corrupt_dropped", "retransmits"):
            if not finite(r.get(key)):
                fail(f"{s}: non-finite {key}")
        if r["messages"] != expect:
            fail(f"{s}: delivered {r['messages']}/{expect} messages")
        if r["garbled"] != 0:
            fail(f"{s}: {r['garbled']} garbled payloads reached the app")
        if r["goodput_bps"] <= 0:
            fail(f"{s}: goodput {r['goodput_bps']!r} not positive")
        if "corrupt" in s and r["corrupt_injected"] == 0:
            fail(f"{s}: corruption armed but never injected")
        if "duplicate" in s and r["duplicates_injected"] == 0:
            fail(f"{s}: duplication armed but never injected")
        if s == "clean" and (r["duplicates_injected"] or
                             r["corrupt_injected"]):
            fail("clean run saw injections")
    check_gate_ratio(doc["gates"], "goodput_ratio", "goodput_limit",
                     at_most=False)
    gates = doc["gates"]
    print("adversarial bench: goodput corrupt+dup/clean %.3f >= %.2f"
          % (gates["goodput_ratio"], gates["goodput_limit"]))

# BENCH_sim.json: calendar-queue engine vs the pinned legacy heap engine
# (DESIGN.md §13).  Every workload must post finite positive event rates and
# clear its own speedup floor; the headline gate is timer_churn's >= 5x.
def check_sim_throughput():
    require("mode", "workloads", "gates")
    workloads = doc["workloads"]
    want = {"hold", "timer_churn"}
    got = {w.get("name") for w in workloads}
    if got != want:
        fail(f"workloads {sorted(got)} != expected {sorted(want)}")
    for w in workloads:
        for key in ("events", "baseline_eps", "calendar_eps", "speedup",
                    "limit"):
            if not finite(w.get(key)):
                fail(f"{w['name']}: non-finite {key}")
        if w["baseline_eps"] <= 0 or w["calendar_eps"] <= 0:
            fail(f"{w['name']}: non-positive event rate")
        if w["speedup"] < w["limit"]:
            fail(f"{w['name']}: speedup {w['speedup']:.2f} below floor "
                 f"{w['limit']}")
    check_gate_ratio(doc["gates"], "speedup_ratio", "speedup_limit",
                     at_most=False)
    an = doc.get("analytics")
    if not isinstance(an, dict):
        fail("missing analytics overhead block")
    for key in ("plain_eps", "metered_eps", "overhead", "overhead_limit"):
        if not finite(an.get(key)):
            fail(f"analytics: non-finite {key}")
    check_gate_ratio(doc["gates"], "analytics_overhead",
                     "analytics_overhead_limit", at_most=True)
    print("sim bench (%s): " % doc["mode"]
          + ", ".join(f"{w['name']}={w['speedup']:.2f}x" for w in workloads)
          + ", analytics overhead %.2f%% <= %.0f%%"
          % (an["overhead"] * 100, an["overhead_limit"] * 100))

# BENCH_analytics.json: the critical-path attribution document (DESIGN.md
# §14).  Percentiles must be finite and ordered, dominant-stage counts must
# partition the migrations exactly, coverage must clear the 95% floor, and
# the producing bench's own analytics gates must have passed.
def check_analytics():
    require("source", "quantile_growth", "migrations", "traces_skipped",
            "coverage_min", "coverage_mean", "stages", "gates")
    if doc["source"] not in ("table2", "drain_host", "load_scale",
                             "service_tail"):
        fail(f"unknown analytics source {doc['source']!r}")
    if not finite(doc["migrations"]) or doc["migrations"] <= 0:
        fail(f"migrations {doc['migrations']!r} not positive")
    gates = doc["gates"]
    if gates.get("pass") is not True:
        fail(f"analytics gate failure: {gates}")
    limit = gates.get("coverage_limit")
    if not (finite(doc["coverage_min"]) and finite(limit)):
        fail("non-finite coverage_min/coverage_limit")
    if doc["coverage_min"] < limit:
        fail(f"coverage_min {doc['coverage_min']} below {limit}")
    stages = doc["stages"]
    if not stages:
        fail("empty stage table")
    dominant = 0
    for s in stages:
        for key in ("count", "dominant", "p50", "p95", "p99", "mean",
                    "max", "total"):
            if not finite(s.get(key)):
                fail(f"{s.get('stage')}: non-finite {key}")
        if not (s["p50"] <= s["p95"] <= s["p99"]):
            fail(f"{s['stage']}: percentiles out of order")
        dominant += s["dominant"]
    if dominant != doc["migrations"]:
        fail(f"dominant counts sum to {dominant}, migrations "
             f"{doc['migrations']} (attribution must partition)")
    print("analytics (%s): %d migrations, coverage min %.3f, dominated by "
          % (doc["source"], doc["migrations"], doc["coverage_min"])
          + ", ".join(f"{s['stage'].split('.')[-1]}:{s['dominant']}"
                      for s in stages if s["dominant"]))

# BENCH_service.json: the service-workload tail-latency document (DESIGN.md
# §15).  The open-loop day profile must clear the 1M requests/virtual-day
# floor with exactly-once accounting and a clean trace audit; the storm
# matrix must cover every policy (plus the pre-copy variant), at least one
# adaptive policy must beat "none" on p99, and pre-copy must not lose to
# stop-and-copy on either p99 or mean freeze.
def check_service():
    require("mode", "day", "storm", "gates")
    day = doc["day"]
    for key in ("rate_rps", "horizon", "requests", "requests_per_vday",
                "p50", "p95", "p99"):
        if not finite(day.get(key)):
            fail(f"day: non-finite {key}")
    if not (day["p50"] <= day["p95"] <= day["p99"]):
        fail("day: latency percentiles out of order")
    if day.get("exactly_once") is not True:
        fail("day: exactly-once accounting failed")
    if day.get("audit_violations") != 0:
        fail(f"day: {day.get('audit_violations')} trace-audit violations")
    runs = doc["storm"].get("runs")
    if not isinstance(runs, list) or not runs:
        fail("storm: missing runs")
    want = {"none", "threshold", "best_fit", "destination_swap",
            "work_steal"}
    got = {r.get("policy") for r in runs}
    if got != want:
        fail(f"storm policies {sorted(got)} != expected {sorted(want)}")
    if not any(r.get("precopy") for r in runs):
        fail("storm: no pre-copy run in the matrix")
    for r in runs:
        tag = f"{r.get('policy')}{'+precopy' if r.get('precopy') else ''}"
        if r.get("exactly_once") is not True:
            fail(f"storm {tag}: exactly-once accounting failed")
        if r.get("audit_violations") != 0:
            fail(f"storm {tag}: trace-audit violations")
        for key in ("p50", "p95", "p99", "queue_wait_p99", "mean_freeze_s"):
            if not finite(r.get(key)):
                fail(f"storm {tag}: non-finite {key}")
        if r["policy"] != "none" and r.get("migrations", 0) <= 0:
            fail(f"storm {tag}: adaptive policy never migrated")
    gates = doc["gates"]
    if gates.get("pass") is not True:
        fail(f"gate failure: {gates}")
    check_gate_ratio(gates, "vday_floor", "requests_per_vday", at_most=True)
    check_gate_ratio(gates, "best_adaptive_p99", "none_p99", at_most=True)
    check_gate_ratio(gates, "precopy_p99", "stopcopy_p99", at_most=True)
    check_gate_ratio(gates, "precopy_mean_freeze_s", "stopcopy_mean_freeze_s",
                     at_most=True)
    print("service bench (%s): %.2fM req/vday, day p99 %.3fs; storm none p99 "
          "%.3fs -> %s %.3fs; freeze stopcopy %.3fs -> precopy %.3fs"
          % (doc["mode"], day["requests_per_vday"] / 1e6, day["p99"],
             gates["none_p99"], gates["best_adaptive"],
             gates["best_adaptive_p99"], gates["stopcopy_mean_freeze_s"],
             gates["precopy_mean_freeze_s"]))

checks = {
    "load_scale": check_load_scale,
    "drain_host": check_drain_host,
    "adversarial_net": check_adversarial_net,
    "sim_throughput": check_sim_throughput,
    "service": check_service,
    "analytics": check_analytics,
}
kind = doc.get("bench")
if kind not in checks:
    fail(f"unknown bench kind {kind!r} (validators: {sorted(checks)})")
checks[kind]()
EOF
}

# Build and run the load-balancing scale bench (1024 hosts, 16384 tasks)
# and
# validate BENCH_load.json.  The bench binary itself exits nonzero when its
# span audit or shape gate fails, so a pass here means the whole decide ->
# migrate -> trace chain held at scale.
run_bench_load() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_load_scale
  ( cd build && ./bench/bench_load_scale )
  validate_bench_json build/BENCH_load.json
  validate_bench_json build/BENCH_analytics.json
  validate_trace build/BENCH_load_trace.json
  run_bench_drain
}

# Build and run the drain-a-host bench (32 tasks evacuated by k concurrent
# migration streams) and validate BENCH_drain.json.  The binary itself
# exits nonzero when a gate or its span audit fails, so a pass here means
# concurrent drains stayed deadlock-free.
run_bench_drain() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_drain_host
  ( cd build && ./bench/bench_drain_host )
  validate_bench_json build/BENCH_drain.json
  validate_bench_json build/BENCH_analytics.json
  validate_trace build/BENCH_drain_trace.json
  run_bench_adversarial
}

# Build and run the adversarial-network goodput bench (streams under
# duplication + 1% corruption) and validate BENCH_adversarial.json.  The
# binary exits nonzero when a stream loses or garbles a message or the
# goodput gate fails, so a pass here means the exactly-once defenses
# degrade gracefully under fire.
run_bench_adversarial() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_adversarial_net
  ( cd build && ./bench/bench_adversarial_net )
  validate_bench_json build/BENCH_adversarial.json
  run_bench_sim
}

# Build and run the sim-core throughput bench in full (acceptance) mode —
# calendar queue + pooled events vs the pinned legacy heap+std::function
# engine — and validate BENCH_sim.json.  The binary exits nonzero when a
# workload misses its speedup floor, so a pass here re-proves the >= 5x
# timer_churn bar, not just the smoke floor the per-commit ctest label runs.
run_bench_sim() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_sim_throughput
  ( cd build && ./bench/bench_sim_throughput )
  validate_bench_json build/BENCH_sim.json
  run_bench_service
}

# Build and run the service-workload tail-latency bench in smoke mode (the
# storm matrix is full-size either way; only the diurnal day profile is
# shortened) and validate BENCH_service.json + the analytics and trace
# exports.  The binary exits nonzero when a gate fails — per-vday floor,
# adaptive-beats-none on p99, pre-copy <= stop-and-copy — so a pass here
# means the whole arrival -> route -> serve -> migrate -> histogram chain
# held under an owner-reclamation storm.
run_bench_service() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_service_tail
  ( cd build && ./bench/bench_service_tail --smoke )
  validate_bench_json build/BENCH_service.json
  validate_bench_json build/BENCH_analytics.json
  validate_trace build/BENCH_service_trace.json
}

# The Chrome trace export must be strict JSON with a non-empty traceEvents
# array, one complete ("X") span per protocol stage of every migration, and
# finite non-negative timestamps throughout — Perfetto silently drops what
# it cannot parse, so CI parses first.
validate_trace() {
  python3 - "$1" <<'EOF'
import json, math, sys

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f, parse_constant=lambda c: float("nan"))
evs = doc.get("traceEvents")
if not isinstance(evs, list) or not evs:
    sys.exit(f"{path}: empty or missing traceEvents")

def finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x) and x >= 0

names = set()
spans = 0
for i, e in enumerate(evs):
    ph = e.get("ph")
    if ph == "M":
        continue
    if ph not in ("X", "i"):
        sys.exit(f"{path}: traceEvents[{i}]: unexpected phase {ph!r}")
    if not finite(e.get("ts")) or (ph == "X" and not finite(e.get("dur"))):
        sys.exit(f"{path}: traceEvents[{i}]: non-finite ts/dur")
    args = e.get("args", {})
    for key in ("trace_id", "span_id", "status"):
        if key not in args:
            sys.exit(f"{path}: traceEvents[{i}]: missing args.{key}")
    names.add(e.get("name"))
    spans += 1

want = {f"mpvm.{s}" for s in ("migrate", "freeze", "flush", "transfer", "restart")}
missing = want - names
if missing:
    sys.exit(f"{path}: no span exported for: {', '.join(sorted(missing))}")
print(f"trace check: {spans} spans, stages all present")
EOF
}

# Prove the auditor still audits: the synthetic broken fixtures (a migration
# missing its flush stage, an abort without rollback, a regressing epoch)
# must be flagged, and a real migration's trace must pass.  The bench binary
# exits nonzero when its own audit fails, so this doubles as an end-to-end
# protocol check.
run_audit() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target test_obs bench_table2_mpvm_migration
  ctest --test-dir build --output-on-failure -R 'TraceAuditor|SpanTracer'
  ( cd build && ./bench/bench_table2_mpvm_migration )
  validate_trace build/BENCH_trace.json
}

# Check revision $2 out with `git worktree` into $rev_tmp/rev, a temporary
# directory that is removed on exit; $1 names the mode in error messages.
checkout_rev() {
  local mode="$1" rev="$2" sha
  if ! sha="$(git rev-parse --verify --quiet "$rev^{commit}")"; then
    echo "check.sh $mode: unknown revision '$rev'" >&2
    exit 2
  fi
  rev_tmp="$(mktemp -d)"
  # shellcheck disable=SC2064  # expand $rev_tmp now
  trap "git worktree remove --force '$rev_tmp/rev' >/dev/null 2>&1 || true;
        rm -rf '$rev_tmp'" EXIT
  git worktree add --detach --quiet "$rev_tmp/rev" "$sha"
}

# Digest parity against a revision: perfbench's digest hashes the GS
# journal, the migration histories and the gossip counters, so a change
# that must not alter one decision has to reproduce it on every workload.
# `--seconds 0` runs each workload's fixed repetitions once.  Each side
# builds into its own CARGO_TARGET_DIR in the checkout's temporary
# directory.
run_digest() {
  local rev="$1"
  checkout_rev digest "$rev"
  local tmp="$rev_tmp"
  if [[ ! -f "$tmp/rev/perfbench/run.py" ]]; then
    echo "check.sh digest: $rev has no perfbench/run.py" >&2
    exit 2
  fi
  local w s side out diff=0
  for w in fleet_churn svc_storm paper_reclaim; do
    for s in 1 7919; do
      for side in rev work; do
        local root=.
        [[ "$side" == rev ]] && root="$tmp/rev"
        out="$tmp/$side-$w-$s.txt"
        if ! ( cd "$root" && CARGO_TARGET_DIR="$tmp/build-$side" \
               python3 perfbench/run.py --workload "$w" --seed "$s" \
                 --seconds 0 ) > "$out" 2> "$tmp/$side-build.log"; then
          cat "$tmp/$side-build.log" "$out" >&2
          echo "check.sh digest: $w seed $s failed at $side" >&2
          exit 1
        fi
      done
      local want got
      want="$(grep -m1 '^  digest ' "$tmp/rev-$w-$s.txt" || true)"
      got="$(grep -m1 '^  digest ' "$tmp/work-$w-$s.txt" || true)"
      if [[ -n "$want" && "$want" == "$got" ]]; then
        printf '  %-14s seed %-5s %s\n' "$w" "$s" "${got#  }"
      else
        printf '  %-14s seed %-5s DIFFERS: %s at %s, %s here\n' "$w" "$s" \
          "${want#  }" "$rev" "${got#  }"
        diff=1
      fi
    done
  done
  if [[ "$diff" != 0 ]]; then
    echo "check.sh digest: digests differ from $rev" >&2
    exit 1
  fi
  echo "digest parity with $rev: PASS"
}

# Output parity against a revision: every deterministic bench and example
# must print what REV prints and exit as it does.  Both sides build the
# bench and example targets (no tests), and each binary runs in a fresh
# temporary working directory, so no run reads another's BENCH_*.json.  The
# host-timed benches (bench_micro, bench_sim_throughput, bench_load_scale,
# bench_service_tail) print wall-clock readings and are left out.
run_parity() {
  local rev="$1"
  checkout_rev parity "$rev"
  local tmp="$rev_tmp" side
  for side in rev work; do
    local src=.
    [[ "$side" == rev ]] && src="$tmp/rev"
    if ! { cmake -B "$tmp/build-$side" -S "$src" -DCPE_BUILD_TESTS=OFF &&
           cmake --build "$tmp/build-$side" -j "$(nproc)"; } \
         > "$tmp/$side-build.log" 2>&1; then
      tail -n 40 "$tmp/$side-build.log" >&2
      echo "check.sh parity: build failed at $side" >&2
      exit 1
    fi
  done
  local bins=() f
  for f in bench/bench_table*.cpp bench/bench_fig*.cpp \
           bench/bench_ablation_*.cpp bench/bench_adversarial_net.cpp \
           bench/bench_fault_recovery.cpp bench/bench_gs_failover.cpp \
           bench/bench_drain_host.cpp examples/*.cpp; do
    bins+=("${f%.cpp}")
  done
  local bin run code diff=0
  for bin in "${bins[@]}"; do
    for side in rev work; do
      run="$(mktemp -d "$tmp/run.XXXXXX")"
      code=0
      ( cd "$run" && "$tmp/build-$side/$bin" ) > "$tmp/$side.out" \
        2> /dev/null || code=$?
      echo "exit code $code" >> "$tmp/$side.out"
      rm -rf "$run"
    done
    if cmp -s "$tmp/rev.out" "$tmp/work.out"; then
      printf '  %-34s same\n' "${bin#*/}"
    else
      printf '  %-34s DIFFERS (< %s, > here):\n' "${bin#*/}" "$rev"
      diff "$tmp/rev.out" "$tmp/work.out" | head -n 20 | sed 's/^/    /' \
        || true
      diff=1
    fi
  done
  if [[ "$diff" != 0 ]]; then
    echo "check.sh parity: output differs from $rev" >&2
    exit 1
  fi
  echo "output parity with $rev: PASS (${#bins[@]} binaries)"
}

# The property sweeps (migration x fault, load placement, adversarial
# network) carry a ctest `sweep` label and simulate minutes of virtual time
# per cell; run them on their own with a generous per-test timeout so a
# loaded CI box cannot turn a slow-but-correct cell into a flake.
run_sweeps() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" \
    --target test_migration_property test_load_property \
             test_adversarial_property test_service_property
  ctest --test-dir build --output-on-failure -j "$(nproc)" \
    -L sweep --timeout 300
}

# SLO drill: arm a deliberately-impossible rule next to one that must hold,
# run the small fleet, and assert the flight recorder produced EXACTLY one
# dump.  The dump must be self-contained: the embedded span tail is
# replayed offline here (critical path recomputed from nothing but the
# file) — the §14 "replayable" acceptance criterion.
run_bench_slo() {
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target bench_load_scale
  ( cd build && rm -f flight_*.json && ./bench/bench_load_scale --slo )
  local flights=(build/flight_*.json)
  if [ "${#flights[@]}" -ne 1 ] || [ ! -f "${flights[0]}" ]; then
    echo "slo drill: expected exactly one flight dump, got: ${flights[*]}" >&2
    exit 1
  fi
  python3 - "${flights[0]}" <<'EOF'
import json, math, sys
from collections import defaultdict

path = sys.argv[1]
with open(path) as f:
    doc = json.load(f, parse_constant=lambda c: float("nan"))

def fail(msg):
    sys.exit(f"{path}: {msg}")

for key in ("flight", "t", "reason", "violation", "rules", "series", "spans"):
    if key not in doc:
        fail(f"missing key {key!r}")
if doc["reason"] != "slo":
    fail(f"reason {doc['reason']!r}, expected 'slo'")
v = doc["violation"]
if not isinstance(v, dict) or "p99(mpvm.freeze_window)" not in v.get("rule", ""):
    fail(f"violation does not carry the armed rule: {v!r}")
if not any("mpvm.freeze_window" in s.get("name", "") and s.get("windows")
           for s in doc["series"]):
    fail("no retained windows for the violated series")

# Offline replay: recompute each migration's critical path from nothing but
# the embedded span tail.
children = defaultdict(list)
spans = doc["spans"]
for s in spans:
    if s["parent"]:
        children[(s["trace"], s["parent"])].append(s)
replayed = []
for s in spans:
    if s["name"] != "mpvm.migrate" or s["status"] != "ok":
        continue
    kids = [k for k in children[(s["trace"], s["span"])]
            if k["name"].startswith("mpvm.") and not k.get("instant")]
    if not kids or any(k["status"] == "open" for k in kids):
        continue
    per_stage = defaultdict(float)
    for k in kids:
        per_stage[k["name"]] += k["end"] - k["start"]
    dominant = max(sorted(per_stage), key=lambda n: per_stage[n])
    wall = s["end"] - s["start"]
    cov = sum(per_stage.values()) / wall if wall > 0 else 1.0
    if not math.isfinite(cov):
        fail(f"trace {s['trace']}: non-finite coverage")
    replayed.append((s["trace"], dominant, cov))
if not replayed:
    fail("span tail contains no completed migration to replay")
print(f"slo drill: flight dump replayed offline — {len(replayed)} "
      "migration(s), dominant stages: "
      + ", ".join(f"{t}:{d.split('.')[-1]}({c:.2f})" for t, d, c in replayed))
EOF
}

mode="${1:-all}"

case "$mode" in
  plain)
    run_suite build
    ;;
  sanitize)
    run_suite build-asan -DCPE_SANITIZE=address
    ;;
  tsan)
    run_suite build-tsan -DCPE_SANITIZE=thread
    ;;
  bench)
    run_bench_smoke
    ;;
  sweeps)
    run_sweeps
    ;;
  audit)
    run_audit
    ;;
  slo)
    run_bench_slo
    ;;
  digest)
    if [[ $# -lt 2 || -z "$2" ]]; then
      echo "usage: $0 digest <rev>" >&2
      exit 2
    fi
    run_digest "$2"
    ;;
  parity)
    if [[ $# -lt 2 || -z "$2" ]]; then
      echo "usage: $0 parity <rev>" >&2
      exit 2
    fi
    run_parity "$2"
    ;;
  all)
    run_suite build
    run_suite build-asan -DCPE_SANITIZE=address
    run_suite build-tsan -DCPE_SANITIZE=thread
    run_bench_smoke
    run_audit
    run_bench_slo
    ;;
  *)
    echo "usage: $0 [plain|sanitize|tsan|bench|sweeps|audit|slo|all|digest <rev>|parity <rev>]" >&2
    exit 2
    ;;
esac

echo "check.sh: all requested suites passed"
