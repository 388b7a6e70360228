#!/usr/bin/env bash
# Tier-1 verification: build and run the test suite, plain and sanitized.
#
#   ci/check.sh            # plain + ASan/UBSan + TSan + bench + audit + slo
#   ci/check.sh plain      # plain RelWithDebInfo only, warnings as errors
#   ci/check.sh sanitize   # ASan+UBSan only
#   ci/check.sh tsan       # ThreadSanitizer only
#   ci/check.sh bench      # bench reports: prove the report validator
#                          # rejects broken reports, build the six benches
#                          # that write a report (Table 2, load scale,
#                          # drain, adversarial network, sim throughput,
#                          # service tail), run each and check its report
#                          # with the one schema validator (DESIGN.md §9),
#                          # then validate their Chrome traces (§10)
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
#                          # working tree, run the 22 deterministic benches,
#                          # bench_load_scale, bench_service_tail and every
#                          # example, each in a fresh directory, and fail
#                          # on any differing stdout or exit code
#   ci/check.sh profile W [S]
#                          # sampled host-time profile of perfbench workload
#                          # W (seed 1, S seconds, default 20): build
#                          # perfbench Release with frame pointers into
#                          # build-profile/, run it under a SIGPROF sampler
#                          # (ci/profile_sampler.c, LD_PRELOAD), and print
#                          # the child's rusage and the top self and
#                          # inclusive symbols of the samples taken inside
#                          # sim::Engine::run_until (the timed phase)
#   ci/check.sh census     # coverage census: build the benches, examples
#                          # and perfbench with gcov into build-census/,
#                          # run every program once (no tests), print the
#                          # executable src lines no program reaches, by
#                          # module and in total, and fail when the total
#                          # exceeds the ceiling in ci/census_ceiling
set -euo pipefail

cd "$(dirname "$0")/.."

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$(nproc)"
  ctest --test-dir "$dir" --output-on-failure -j "$(nproc)"
}

# Check one bench report (bench/report.hpp, DESIGN.md §9) against the one
# schema: exactly the keys bench/mode/gates/results, the bench name the
# caller expects, finite numbers and no null anywhere, results as named
# arrays of flat objects, and a non-empty list of uniquely named gates whose
# recorded pass agrees with `value cmp limit`.  Every gate must pass.
validate_report() {
  python3 - "$1" "$2" <<'EOF'
import json, math, operator, sys

path, want = sys.argv[1], sys.argv[2]

def fail(msg):
    sys.exit(f"{path}: {msg}")

def reject(token):
    fail(f"non-finite number {token}")

with open(path) as f:
    doc = json.load(f, parse_constant=reject)

if not isinstance(doc, dict) or set(doc) != {"bench", "mode", "gates",
                                             "results"}:
    fail("top-level keys must be exactly bench, mode, gates, results")
if doc["bench"] != want:
    fail(f"bench {doc['bench']!r}, expected {want!r}")

def walk(x, where):
    if x is None:
        fail(f"null at {where}")
    if isinstance(x, float) and not math.isfinite(x):
        fail(f"non-finite number at {where}")
    for k, v in (x.items() if isinstance(x, dict) else
                 enumerate(x) if isinstance(x, list) else ()):
        walk(v, f"{where}.{k}")
walk(doc, "$")

results = doc["results"]
if not isinstance(results, dict):
    fail("results is not an object")
for table, rows in results.items():
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and all(isinstance(v, (str, int, float))
                                        for v in r.values()) for r in rows):
        fail(f"results.{table} is not an array of flat objects")

ops = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
       ">=": operator.ge, "==": operator.eq}
def number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)
gates = doc["gates"]
if not isinstance(gates, list) or not gates:
    fail("no gates")
names = set()
for g in gates:
    if not isinstance(g, dict) or set(g) != {"name", "value", "cmp", "limit",
                                             "pass"}:
        fail(f"gate {g!r} lacks one of name, value, cmp, limit, pass")
    if g["name"] in names:
        fail(f"duplicate gate {g['name']!r}")
    names.add(g["name"])
    if (g["cmp"] not in ops or not number(g["value"])
            or not number(g["limit"]) or not isinstance(g["pass"], bool)):
        fail(f"gate {g['name']!r} is malformed: {g!r}")
    if g["pass"] != ops[g["cmp"]](g["value"], g["limit"]):
        fail(f"gate {g['name']!r} records pass={g['pass']} but "
             f"{g['value']!r} {g['cmp']} {g['limit']!r} disagrees")
failed = [g["name"] for g in gates if not g["pass"]]
if failed:
    fail(f"failed gates: {', '.join(failed)}")
print(f"report {want} ({doc['mode']}): {len(gates)} gates pass; results "
      + ", ".join(f"{t}[{len(r)}]" for t, r in results.items()))
EOF
}

# Prove the validator validates: each broken report below must be rejected,
# and the well-formed one they are cut from accepted.
check_validator() {
  local dir=build/report-validator case
  mkdir -p "$dir"
  python3 - "$dir" <<'EOF'
import copy, json, sys

good = {"bench": "b", "mode": "full",
        "gates": [{"name": "g", "value": 1, "cmp": "<=", "limit": 2,
                   "pass": True}],
        "results": {"rows": [{"x": 1, "s": "a", "ok": True}]}}
edits = {
    "good": lambda d: None,
    "null_in_results": lambda d: d["results"]["rows"][0].update(x=None),
    "pass_disagrees": lambda d: d["gates"][0].update(limit=0),
    "failing_gate": lambda d: d["gates"][0].update({"value": 3,
                                                    "pass": False}),
    "gate_without_cmp": lambda d: d["gates"][0].pop("cmp"),
    "empty_gate_list": lambda d: d.update(gates=[]),
}
for name, edit in edits.items():
    doc = copy.deepcopy(good)
    edit(doc)
    with open(f"{sys.argv[1]}/{name}.json", "w") as f:
        json.dump(doc, f)
EOF
  validate_report "$dir/good.json" b > /dev/null
  for case in null_in_results:b pass_disagrees:b failing_gate:b \
              gate_without_cmp:b empty_gate_list:b good:wrong_bench; do
    if validate_report "$dir/${case%%:*}.json" "${case#*:}" 2> /dev/null; then
      echo "check.sh bench: the validator accepted a broken report" \
           "(${case%%:*}, bench ${case#*:})" >&2
      exit 1
    fi
  done
  echo "report validator: rejects all 6 broken reports"
}

# Each bench that writes a report: target, arguments, report, bench name.
bench_reports=(
  "bench_table2_mpvm_migration||BENCH_table2.json|table2"
  "bench_load_scale||BENCH_load.json|load_scale"
  "bench_drain_host||BENCH_drain.json|drain_host"
  "bench_adversarial_net||BENCH_adversarial.json|adversarial_net"
  "bench_sim_throughput||BENCH_sim.json|sim_throughput"
  "bench_service_tail|--smoke|BENCH_service.json|service"
)

# Build the six report benches once, run each (a bench exits nonzero when a
# gate fails), check every report, then the span traces four of them export.
run_bench() {
  check_validator
  local entry target args report bench targets=()
  for entry in "${bench_reports[@]}"; do targets+=("${entry%%|*}"); done
  cmake -B build -S .
  cmake --build build -j "$(nproc)" --target "${targets[@]}"
  for entry in "${bench_reports[@]}"; do
    IFS='|' read -r target args report bench <<< "$entry"
    # shellcheck disable=SC2086  # args is empty or one word
    ( cd build && "./bench/$target" $args )
    validate_report "build/$report" "$bench"
  done
  for report in BENCH_trace BENCH_load_trace BENCH_drain_trace \
                BENCH_service_trace; do
    validate_trace "build/$report.json"
  done
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
# temporary working directory, so no run reads another's BENCH_*.json.
# bench_micro and bench_sim_throughput print host-timed readings and are
# left out.
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
           bench/bench_drain_host.cpp bench/bench_load_scale.cpp \
           bench/bench_service_tail.cpp examples/*.cpp; do
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

# Sampled profile of one perfbench workload.  Frame-pointer stack walks
# charge each coroutine body (`.actor`) to its own symbol, which gprof does
# not, and keeping only the samples under sim::Engine::run_until leaves out
# set-up and the post-run checks.
run_profile() {
  local workload="$1" seconds="$2" dir=build-profile
  cmake -S perfbench -B "$dir" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS=-fno-omit-frame-pointer > /dev/null
  cmake --build "$dir" --target perfbench -j "$(nproc)" > /dev/null
  cc -O2 -shared -fPIC -o "$dir/profile_sampler.so" ci/profile_sampler.c
  python3 - "$dir" "$workload" "$seconds" <<'EOF'
import bisect, collections, os, re, subprocess, sys

d, workload, seconds = sys.argv[1:4]
out = os.path.abspath(os.path.join(d, f"profile-{workload}.txt"))
env = dict(os.environ, CPE_PROFILE_OUT=out,
           LD_PRELOAD=os.path.abspath(os.path.join(d, "profile_sampler.so")))
child = subprocess.Popen(
    [os.path.join(d, "perfbench"), "--workload", workload, "--seed", "1",
     "--seconds", seconds, "--trace", "0"], stdout=subprocess.DEVNULL, env=env)
_, status, ru = os.wait4(child.pid, 0)
if status != 0:
    sys.exit(f"check.sh profile: perfbench {workload} failed ({status:#x})")

maps, samples, dropped, section = [], [], 0, None
with open(out) as f:
    for line in f:
        if line.startswith("# maps"):
            section = "maps"
        elif line.startswith("# samples dropped"):
            section, dropped = "samples", int(line.split()[-1])
        elif section == "maps":
            parts = line.split(maxsplit=5)
            if len(parts) == 6 and "x" in parts[1]:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
        elif section == "samples" and line.strip():
            samples.append([int(x, 16) for x in line.split()])
maps.sort()

def short(name):
    """Drop the parameter list, keeping `[clone ...]` suffixes."""
    m = re.search(r"( \[clone [^\]]*\])+$", name)
    suffix = m.group(0) if m else ""
    name = name[:m.start()] if m else name
    name = name[:-len(" const")] if name.endswith(" const") else name
    depth = 0
    for i in range(len(name) - 1, -1, -1):
        if name[i] == ")":
            depth += 1
        elif name[i] == "(" and depth > 0:
            depth -= 1
            if depth == 0:
                return name[:i] + suffix
        elif depth == 0:
            break
    return name + suffix

modules = {}
def module(path):
    """LOAD segments (offset, vaddr, size) and sized function symbols."""
    if path not in modules:
        segs = []
        hdrs = subprocess.run(["readelf", "-lW", path], capture_output=True,
                              text=True).stdout
        for l in hdrs.splitlines():
            f = l.split()
            if f and f[0] == "LOAD":
                segs.append((int(f[1], 16), int(f[2], 16), int(f[4], 16)))
        syms = []
        for extra in ([], ["-D"]):
            listing = subprocess.run(["nm", "-C", "-S", "--defined-only",
                                      *extra, path], capture_output=True,
                                     text=True).stdout
            for l in listing.splitlines():
                m = re.match(r"([0-9a-f]+) ([0-9a-f]+) [tTwWiI] (.*)", l)
                if m:
                    syms.append((int(m[1], 16), int(m[2], 16), short(m[3])))
            if syms:
                break
        syms.sort()
        modules[path] = (segs, [s[0] for s in syms], syms)
    return modules[path]

names = {}
def resolve(pc):
    if pc in names:
        return names[pc]
    name = "[unknown]"
    i = bisect.bisect_right(maps, (pc, float("inf"))) - 1
    if i >= 0 and maps[i][0] <= pc < maps[i][1]:
        lo, _, off, path = maps[i]
        name = f"[{os.path.basename(path)}]"
        if not path.startswith("["):
            segs, addrs, syms = module(path)
            foff = pc - lo + off
            for so, sv, sz in segs:
                if so <= foff < so + sz:
                    va = foff - so + sv
                    k = bisect.bisect_right(addrs, va) - 1
                    if k >= 0 and va < syms[k][0] + max(syms[k][1], 1):
                        name = syms[k][2]
                    break
    names[pc] = name
    return name

stacks = [[resolve(pc) for pc in s] for s in samples]
timed = [s for s in stacks
         if any(n.startswith("cpe::sim::Engine::run_until") for n in s)]
print(f"profile {workload} seed 1 --seconds {seconds}: {len(timed)} of "
      f"{len(stacks)} samples under sim::Engine::run_until "
      f"({dropped} dropped)")
print(f"  child rusage: {ru.ru_utime:.2f} s user, {ru.ru_stime:.2f} s "
      f"system, {ru.ru_minflt} minor faults, peak RSS "
      f"{ru.ru_maxrss / 1024:.1f} MiB (sampler included)")
if not timed:
    sys.exit("check.sh profile: no sample under sim::Engine::run_until")
self_count = collections.Counter(s[0] for s in timed)
incl_count = collections.Counter(n for s in timed for n in set(s))
for title, counts in (("self", self_count), ("inclusive", incl_count)):
    print(f"  top {title}:")
    for n, c in counts.most_common(25):
        print(f"    {100 * c / len(timed):6.2f}%  {n[:150]}")
EOF
}

# Coverage census: which src lines does no program reach?  Only programs
# run (every bench, the load and service smokes, every example and the
# three perfbench workloads), never the tests, so code that only tests
# reach shows as unreached: a deletion candidate unless a test is its
# stated user, as with fault injection.  A change that raises the count
# past ci/census_ceiling fails here, and says why in CHANGES.md when it
# raises the ceiling.
run_census() {
  local dir="$PWD/build-census" b e w
  cmake -S . -B "$dir/build" -DCMAKE_CXX_FLAGS="--coverage -O1" \
    -DCPE_BUILD_TESTS=OFF > /dev/null
  cmake --build "$dir/build" -j "$(nproc)" > /dev/null
  cmake -S perfbench -B "$dir/pb" -DCMAKE_CXX_FLAGS="--coverage -O1" \
    > /dev/null
  cmake --build "$dir/pb" -j "$(nproc)" --target perfbench > /dev/null
  find "$dir" -name '*.gcda' -delete  # count this run's programs only
  rm -rf "$dir/run" && mkdir -p "$dir/run"
  (
    cd "$dir/run"  # benches drop their reports here
    for b in "$dir"/build/bench/bench_*; do
      if [[ -f "$b" && -x "$b" ]]; then "$b" > /dev/null 2>&1 || true; fi
    done
    "$dir/build/bench/bench_load_scale" --slo > /dev/null 2>&1 || true
    "$dir/build/bench/bench_service_tail" --smoke > /dev/null 2>&1 || true
    "$dir/build/bench/bench_sim_throughput" --smoke > /dev/null 2>&1 || true
    for e in "$dir"/build/examples/*; do
      if [[ -f "$e" && -x "$e" ]]; then "$e" > /dev/null 2>&1 || true; fi
    done
    for w in fleet_churn svc_storm paper_reclaim; do
      "$dir/pb/perfbench" --workload "$w" --seed 1 --seconds 0 --trace 0 \
        > /dev/null
    done
  )
  python3 - "$PWD" "$dir" ci/census_ceiling <<'EOF'
import collections, json, os, subprocess, sys

root, dir, ceiling_file = sys.argv[1:4]
src = os.path.realpath(root) + "/src/"
hit = {}  # (file, line) -> reached by any program
for tree in (os.path.join(dir, "build"), os.path.join(dir, "pb")):
    for d, _, files in os.walk(tree):
        for f in (f for f in files if f.endswith(".gcda")):
            out = subprocess.run(["gcov", "-j", "-t", f], cwd=d,
                                 capture_output=True, text=True).stdout
            for doc in filter(str.strip, out.splitlines()):
                for fi in json.loads(doc)["files"]:
                    path = os.path.realpath(os.path.join(d, fi["file"]))
                    if path.startswith(src):
                        for ln in fi["lines"]:
                            k = (path[len(src):], ln["line_number"])
                            hit[k] = hit.get(k, False) or ln["count"] > 0
if not hit:
    sys.exit("check.sh census: no coverage data")
cold = sorted(k for k, h in hit.items() if not h)
listing = os.path.join(dir, "unreached.txt")
with open(listing, "w") as f:
    f.writelines(f"src/{p}:{n}\n" for p, n in cold)
by_module = collections.Counter(p.split("/")[0] for p, _ in cold)
print("unreached src lines by module:")
for m, n in sorted(by_module.items(), key=lambda kv: (-kv[1], kv[0])):
    print(f"  {m:<8} {n:5}")
with open(ceiling_file) as f:
    ceiling = int([l for l in f if l.strip() and not l.startswith("#")][-1])
print(f"census: {len(cold)} of {len(hit)} executable src lines unreached "
      f"(ceiling {ceiling}); each one is listed in {listing}")
if len(cold) > ceiling:
    sys.exit(f"check.sh census: {len(cold)} unreached lines exceed the "
             f"ceiling {ceiling}")
EOF
}

mode="${1:-all}"

case "$mode" in
  plain)
    run_suite build -DCPE_WARNINGS_AS_ERRORS=ON
    ;;
  sanitize)
    run_suite build-asan -DCPE_SANITIZE=address
    ;;
  tsan)
    run_suite build-tsan -DCPE_SANITIZE=thread
    ;;
  bench)
    run_bench
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
  census)
    run_census
    ;;
  profile)
    if [[ $# -lt 2 || -z "$2" ]]; then
      echo "usage: $0 profile <workload> [seconds]" >&2
      exit 2
    fi
    run_profile "$2" "${3:-20}"
    ;;
  all)
    run_suite build -DCPE_WARNINGS_AS_ERRORS=ON
    run_suite build-asan -DCPE_SANITIZE=address
    run_suite build-tsan -DCPE_SANITIZE=thread
    run_bench
    run_audit
    run_bench_slo
    ;;
  *)
    echo "usage: $0 [plain|sanitize|tsan|bench|sweeps|audit|slo|census|all|digest <rev>|parity <rev>|profile <workload> [seconds]]" >&2
    exit 2
    ;;
esac

echo "check.sh: all requested suites passed"
