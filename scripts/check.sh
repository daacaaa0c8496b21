#!/usr/bin/env bash
# Tier-1 verification plus lint: the checks every PR must keep green.
set -euo pipefail
cd "$(dirname "$0")/.."

# --workspace so the eda-bench `experiments` binary the smokes below run is
# rebuilt too (a bare root build stops at the root package).
cargo build --release --workspace

# Run the full test suite (unit + integration + property + doc, every
# crate), keeping the per-binary summaries for the tally below.
test_log="$(mktemp)"
trap 'rm -f "$test_log"' EXIT
cargo test --workspace -q 2>&1 | tee "$test_log"

# Every target of every member crate, their `lib test` targets included.
cargo clippy --workspace --all-targets -- -D warnings
# No panicking unwraps on user-reachable paths: the flow library and the
# experiments CLI carry crate-level deny(clippy::unwrap_used) attributes
# (test modules exempt); these invocations fail if one sneaks back in.
cargo clippy -p eda-core --lib -- -D warnings
cargo clippy -p eda-bench --bins -- -D warnings

# Supervised-flow smoke: deterministic fault injection across the flow,
# including the reproducibility self-check, at 4 worker threads.
./target/release/experiments run --inject smoke --threads 4

# Telemetry smoke: `trace` must emit parseable JSON (span tree + metrics)
# and a non-empty folded-stack file.
trace_dir="$(mktemp -d)"
trap 'rm -f "$test_log"; rm -rf "$trace_dir"' EXIT
./target/release/experiments trace "$trace_dir/smoke.trace.json" --threads 4
python3 - "$trace_dir" <<'PY'
import json, sys, os
d = sys.argv[1]
trace = json.load(open(os.path.join(d, "smoke.trace.json")))
assert trace["traceEvents"], "trace has no events"
metrics = json.load(open(os.path.join(d, "smoke.trace.metrics.json")))
assert metrics, "metrics export is empty"
assert os.path.getsize(os.path.join(d, "smoke.trace.folded")) > 0, "folded stacks empty"
print(f"check: trace OK ({len(trace['traceEvents'])} spans, {len(metrics)} metrics)")
PY

# Claims: all 18 panel claims (C1-C16, B1, B2) regenerated in claim order,
# in one process; a claim whose kernel errs or whose shape (EXPERIMENTS.md's
# Match column, `eda_bench::claims`) fails exits non-zero. The release test
# asserts every shape again, claims run one at a time so C9's measured wall
# has the CPU to itself.
./target/release/experiments run
cargo test --release -q -p eda-bench --test claims

# Daemon smoke: serve on a temp socket (with a flow store bound), push a
# 4-request batch (one with an injected per-request stage fault) through the
# wire with the bit-identical replay self-check, query the QoR provenance
# over the wire, then a hostile client that drops its connection mid-stream,
# then drain. The daemon must verify every completed request, answer the
# query from its store, shed only the hostile connection, ack the drain, and
# exit 0.
daemon_dir="$(mktemp -d)"
daemon_pid=""
trap 'rm -f "$test_log"; rm -rf "$trace_dir" "$daemon_dir"
      [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true' EXIT
daemon_sock="$daemon_dir/flowd.sock"
./target/release/experiments daemon serve --socket "$daemon_sock" \
    --workers 2 --queue 4 --threads 4 \
    --store "$daemon_dir/flow.store" > "$daemon_dir/serve.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 100); do [ -S "$daemon_sock" ] && break; sleep 0.1; done
[ -S "$daemon_sock" ] || { echo "check: FAIL daemon socket never appeared" >&2
                           cat "$daemon_dir/serve.log" >&2; exit 1; }
submit_log="$(./target/release/experiments daemon submit --socket "$daemon_sock" \
    --count 4 --inject '1:route=fail@1' --verify)"
printf '%s\n' "$submit_log" | grep -qx 'DAEMONLINE client_completed 4' \
    || { echo "check: FAIL daemon did not complete all 4 requests" >&2
         printf '%s\n' "$submit_log" >&2; exit 1; }
printf '%s\n' "$submit_log" | grep -qx 'DAEMONLINE verified 1' \
    || { echo "check: FAIL daemon answers diverged from solo replays" >&2
         printf '%s\n' "$submit_log" >&2; exit 1; }
# Provenance over the wire: the daemon answers `query` from its store on the
# reader thread (no flow worker). The three clean completions above (the
# faulted request runs storeless) must come back as QoR history rows.
query_log="$(./target/release/experiments daemon query --socket "$daemon_sock" --last 10)"
query_rows="$(printf '%s\n' "$query_log" | awk '/^QUERYLINE rows /{print $3}')"
[ "${query_rows:-0}" -ge 2 ] \
    || { echo "check: FAIL daemon query returned ${query_rows:-0} provenance rows (want >= 2)" >&2
         printf '%s\n' "$query_log" >&2; exit 1; }
hostile_log="$(./target/release/experiments daemon submit --socket "$daemon_sock" \
    --count 4 --xfault 'conn-drop@2')"
printf '%s\n' "$hostile_log" | grep -qx 'DAEMONLINE dropped 1' \
    || { echo "check: FAIL hostile client did not lose its connection" >&2
         printf '%s\n' "$hostile_log" >&2; exit 1; }
# Captured, not piped: grep -q would close the pipe early and SIGPIPE the
# stats printer.
drain_log="$(./target/release/experiments daemon shutdown --socket "$daemon_sock")"
printf '%s\n' "$drain_log" | grep -qx 'DAEMONLINE drained 1' \
    || { echo "check: FAIL daemon drain not acknowledged" >&2
         printf '%s\n' "$drain_log" >&2; exit 1; }
wait "$daemon_pid" \
    || { echo "check: FAIL daemon did not exit 0 after drain" >&2
         cat "$daemon_dir/serve.log" >&2; exit 1; }
daemon_pid=""
grep -q 'daemon drained cleanly' "$daemon_dir/serve.log" \
    || { echo "check: FAIL daemon log missing clean-drain line" >&2
         cat "$daemon_dir/serve.log" >&2; exit 1; }
echo "check: daemon verified batch + answered query ($query_rows rows) + shed hostile client + drained to exit 0"

# Facade doc-tests: the crate-root examples in src/lib.rs (run_flow on a
# struct-update config + the flow-server batch) must keep compiling and passing.
cargo test --release -q --doc -p eda

# Incremental-flow smoke against the flow store: cold run populates it, the
# warm run must replay >= 8 stages, and the unmeetable-clock edit run must
# replay `7_route` as a stage (the edit misses `6_sta` and `9_power`, whose
# bodies read the clock, but not the netlist and placement the router
# reads) — all with bit-identical QoR (the tool itself asserts all of it;
# the greps below keep the gates loud even if the tool's own thresholds
# drift).
store_dir="$(mktemp -d)"
trap 'rm -f "$test_log"; rm -rf "$trace_dir" "$daemon_dir" "$store_dir"' EXIT
store_file="$store_dir/flow.store"
incr_log="$(./target/release/experiments incremental --store "$store_file" --threads 4)"
printf '%s\n' "$incr_log"
printf '%s\n' "$incr_log" | grep -qx 'INCRLINE edit_route_hit 1' \
    || { echo "check: FAIL edited run recomputed 7_route, whose reads the clock edit leaves alone" >&2
         exit 1; }
# The warm run replays all eleven stages and parses two texts: the report
# reads the netlist and the placement, each parsed once from the last hit
# that wrote it, and no text a later hit overwrote is parsed. A count, not a
# clock.
warm_parses="$(printf '%s\n' "$incr_log" | awk '/^INCRLINE warm_body_parses /{print $3}')"
[ "${warm_parses:-0}" -eq 2 ] \
    || { echo "check: FAIL warm run parsed ${warm_parses:-no} netlist / placement texts (want 1 + 1)" >&2
         exit 1; }
printf '%s\n' "$incr_log" | grep -qx 'INCRLINE edit_same_qor 1' \
    || { echo "check: FAIL edited-run QoR diverged from the uncached reference" >&2; exit 1; }

# Resume across processes: the store is the flow's only resume mechanism. A
# copy of the store cut in the middle of its 6th stage record, beside the
# `cut.store.lock` sidecar its dead writer held, is what a `kill -9` during
# the sixth stage's append leaves behind; the whole stage records left are
# the cold run's first five. A new process on the copy must replay exactly
# those, treat the torn record as absent (not corrupt) and the leftover lock
# file as free (the kernel dropped the lock with its holder), compute the
# rest, and record the QoR fingerprint the uninterrupted cold run recorded
# (qor row seq 0 of either file).
cut_file="$store_dir/cut.store"
python3 - "$store_file" "$cut_file" <<'PY'
import sys
data = open(sys.argv[1], "rb").read()
pos, stages = 0, 0
while True:
    at = data.find(b"%rec ", pos)
    assert at >= 0, "fewer than six stage records in the store"
    nl = data.index(b"\n", at)
    fields = data[at:nl].split(b" ")
    if fields[1] == b"stage":
        stages += 1
        if stages == 6:
            open(sys.argv[2], "wb").write(data[: nl + 1 + int(fields[3]) // 2])
            break
    pos = nl + int(fields[3]) + 1
PY
printf '4242' > "$cut_file.lock"
resume_log="$(./target/release/experiments incremental --store "$cut_file" --threads 4)"
for row in 'cold_hits 5' 'cold_errors 0' 'same_qor 1'; do
    printf '%s\n' "$resume_log" | grep -qx "INCRLINE $row" \
        || { echo "check: FAIL run resumed from a cut store did not report $row" >&2
             printf '%s\n' "$resume_log" >&2; exit 1; }
done
qor_fp_of_seq0() {
    ./target/release/experiments query --store "$1" --metric all --last 0 \
        | awk '/^QUERYLINE qor 0 /{print $7}'
}
whole_fp="$(qor_fp_of_seq0 "$store_file")"
resumed_fp="$(qor_fp_of_seq0 "$cut_file")"
[ -n "$whole_fp" ] && [ "$whole_fp" = "$resumed_fp" ] \
    || { echo "check: FAIL resumed run recorded qor_fp ${resumed_fp:-none}, the uninterrupted one ${whole_fp:-none}" >&2
         exit 1; }
echo "check: cross-process resume green (5 stages replayed from a store cut mid-append, qor_fp $resumed_fp)"

# Provenance clock: the three runs above are qor rows seq 0 (cold), 1 (warm)
# and 2 (edited). A replayed stage must record what replaying it cost, so the
# warm row's wall_s has to sit well below the cold row's (it is ~1/100; the
# gate is 1/2) — near-equal rows mean a cache hit imported the clock of the
# run that wrote the entry.
wall_log="$(./target/release/experiments query --store "$store_file" --metric wall --last 10)"
cold_wall="$(printf '%s\n' "$wall_log" | awk '/^QUERYLINE wall 0 /{print $5}')"
warm_wall="$(printf '%s\n' "$wall_log" | awk '/^QUERYLINE wall 1 /{print $5}')"
awk -v c="${cold_wall:-0}" -v w="${warm_wall:-x}" 'BEGIN { exit !(w != "x" && w * 2 < c) }' \
    || { echo "check: FAIL warm run recorded wall_s ${warm_wall:-none} vs cold ${cold_wall:-none} (want warm < cold / 2)" >&2
         printf '%s\n' "$wall_log" >&2; exit 1; }

# Provenance-query smoke: the runs above must be answerable from the store.
query_log="$(./target/release/experiments query --store "$store_file" \
    --design xbar3x3 --metric wns --last 10)"
printf '%s\n' "$query_log"
qrows="$(printf '%s\n' "$query_log" | awk '/^QUERYLINE rows /{print $3}')"
[ "${qrows:-0}" -ge 2 ] \
    || { echo "check: FAIL store query returned ${qrows:-0} QoR rows (want >= 2 prior runs)" >&2
         exit 1; }

# Poisoned-store smoke: flip one byte inside the first stage-table record's
# payload; the next run must report exactly one unreadable entry, fall back
# to recomputing that stage (never panic), and still finish with
# bit-identical QoR.
python3 - "$store_file" <<'PY'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
pos = 0
while True:
    at = data.find(b"%rec ", pos)
    assert at >= 0, "no store records found"
    nl = data.index(b"\n", at)
    fields = bytes(data[at:nl]).split(b" ")
    if fields[1] == b"stage":
        data[nl + 1] ^= 0x01
        break
    pos = nl + int(fields[3]) + 1
open(path, "wb").write(bytes(data))
PY
incr_log="$(./target/release/experiments incremental --store "$store_file" --threads 4)"
printf '%s\n' "$incr_log" | grep -qx 'INCRLINE cold_errors 1' \
    || { echo "check: FAIL poisoned store record not surfaced as cache.errors=1" >&2
         printf '%s\n' "$incr_log" >&2; exit 1; }
printf '%s\n' "$incr_log" | grep -qx 'INCRLINE same_qor 1' \
    || { echo "check: FAIL QoR drifted after poisoned-store recompute" >&2
         printf '%s\n' "$incr_log" >&2; exit 1; }
echo "check: store smoke green (warm run parsed $warm_parses texts, edit replayed 7_route, query returned $qrows rows, poisoned record recomputed)"

# Scale tests in release: the mini tier (10^4 instances through all 11
# stages with zero overflow and the routing window below the dense grid,
# its QoR fingerprint and work counts pinned at 1 and 2 threads — the scale
# preset's placer is serial, so `threads` reaches no kernel there — inside a
# 512 MB RSS profile), the 10^5 tier (the same
# invariants at 1 and 4 threads, warm-cache replay and resume from a store
# cut mid-flow; seconds of release wall clock), the decap path and the
# RSS-exclusion check; the debug suite above ignores both tiers.
cargo test --release -q --test scale

# Golden snapshot in release: QoR + telemetry byte-stable across threads
# 1/2/4/8 and unchanged vs tests/golden/smoke.snap (re-bless: scripts/bless.sh).
cargo test --release -q --test golden

# Pinned route outcomes, the one-schedule structure tests and the
# independent pass auditor (route_audited) in release: the saturated designs
# are minutes unoptimized, so the debug suite above ignores them — there the
# auditor runs as a debug assertion inside every route instead.
cargo test --release -q --test route_pins

# Pinned placements (positions and reported HPWL of all four placer entry
# points, bit for bit) and the independent placement auditor in release;
# debug builds run the auditor as an assertion at the end of 4_place.
cargo test --release -q --test place_pins

# Pinned sign-off results (the fault-simulation `detected` map and the whole
# multi-patterning decomposition of both flowd_pairs designs at N10, bit for
# bit) in release: eight full flows, minutes unoptimized.
cargo test --release -q --test signoff_pins

# Heap pins in release: the netlist layout (also run by the debug suite
# above) and the route's peak heap blocks and bytes per connection on the
# 10^4 mesh, which the debug suite skips — minutes unoptimized.
cargo test --release -q --test netlist_memory

# Census: names deleted for having no caller (PR 24 — the per-stage budget
# types, the NPN / fault-collapse kernels, the client's queue-full retry, the
# `_threaded` / `_stats` twin entry points; PR 25 — the config builder, the
# single-valued `map_goal` / `route_region_size` knobs and the two
# `ConfigError` variants only they could raise; then the per-front-end
# store open, the server's hand-built telemetry snapshot, and accessors only
# their own unit tests called; then the `experiments serve` / `scale`
# harnesses, whose checks tests/server.rs and tests/scale.rs make, their
# row prefixes, and the hit-rate accessor only `serve` read; then the
# router's usage-slice probes, the per-edge probe walk and the line search's
# one-map `Span` / `any_unseen` / `set_seen` helpers, which full-edge bits
# and the orientation-major seen maps replaced — `Span` and `any_unseen`
# only as top-level items, since eda-core's telemetry `Span` and the `Seen`
# method keep the names; then the per-slot busy clocks, the rotated-stripe
# dispatch, the route wave ledger and the placer's private projection, which
# one critical-path rule in `ParStats` replaced, and a second tranche of
# accessors only their own unit tests called; then the mapper's
# single-valued `MapGoal`, the route searches' one-shot free-function twins
# — anchored as top-level `pub fn`s, since the `MazeScratch` /
# `SearchScratch` methods keep the names — the one-caller `layer_sweep`, and
# a third tranche of items only their own unit tests called; then the
# mapper's per-block fragment pipeline, which one realization loop for blocks
# and the tail replaced, and a fourth tranche of test-only items —
# `Cube::intersect` anchored on `fn`, since "intersect" is a common word; then
# the multilevel placer's coarse sweeps — the coarse-net contraction, the
# cluster spreader and the sweep-count knob — which never beat the
# serpentine seed they were scored against, and the core state codec's own
# tagged-count reader, which the netlist codec's line reader replaced; then
# the routing grid's one-caller per-edge `is_overflowed`, which the rip-up
# victim scan's run predicate `run_reaches` replaced; then the clock-gating
# and decap entry points that returned an edited copy of the netlist and
# their outcome types, which a read-only plan applied in place replaced;
# then the router's region wave scheduler — the region tiling, the private
# demand overlays, the scratch pool, the `ParStats`-returning `route_stats`,
# the partition diagnostics, the `route_par` bench rows and eda-par's
# one-task-per-item dispatch it alone used — which the canonical order
# routed one connection at a time replaced, bit for bit; then the OPC and
# fault-simulation dispatch — the `opc:fragments` / `fault_sim:faults`
# kernel spans, eda-par's range-chunk entry point only they called, the
# `opc_par` / `fault_sim_par` projection rows and the `scaling_threads`
# helper with its `EDA_BENCH_THREADS` variable — which serial loops in
# sample, fragment and fault-list order replaced, bit for bit; the
# test-only XOR `spread`er of the compression model; and the eda-par crate —
# its chunked map, chunk partition and `ParStats` — with the flow report's
# per-stage worker maps and the placer outcome's test-only throughput
# fields, which the placer's own stripe dispatch and `StripeStats`
# replaced; then the line search's unit-step segment writer, which the
# searches' corner lists replaced; then the placement effort struct and its
# sentinel-chosen fields, which one `PlaceAlgorithm` choice and the place
# body's per-algorithm constants replaced; then the per-AIG-pass memo — its
# kinds, keys, payload format and the AIG store text it alone read and
# wrote — which saved no synthesis time and which the stage cache, keyed on
# node and seed only where a stage reads them, replaced; then the knobs no
# caller set to more than one value — the synthesis options struct, the
# flow's rewrite-pass field and its default constant, the place body's copy
# of the multilevel cluster size, the annealer's start temperature, the
# hotspot neck fraction, OPC's pre-bias, ATPG's backtrack limit, the CTS
# buffer and wire delays and the controlled-polarity library choice — which
# constants of the kernels that read them replaced; then the store's
# lock-file protocol and its timeout error, which the kernel's `flock`
# replaced, and its stale-read race path — the read-failure type, the
# evicted lookup and cache error and their metric — which reading every
# indexed entry from the version of the file that indexed it replaced; then
# the sub-stage memo tier — its trait, the flow's adapter over the store, the
# router's memo path with the route-outcome kind, key and payload codec, and
# its hit / miss counters — which stage entries keyed on the digests of what
# each stage reads replaced)
# must not reappear anywhere in the workspace, its tests or its examples.
deleted_names='StageBudgets?|soft_deadline_s|npn_canon|npn_equivalent|NpnCanon|collapse_faults|CollapseOutcome|request_retry|retry_queue_full|fault_sim_threaded|run_opc_stats|image_threaded|print_threaded|edge_placement_errors_threaded|FlowConfigBuilder|map_goal|route_region_size|RegionWithoutWindow|NoLayers|open_shared|server_snapshot|QUEUE_DEPTH_EDGES|count_sat|is_xor_like|peak_density|serve_demo|scale_demo|SERVLINE|SCALELINE|cross_hit_rate|usage_h_row|usage_v_col|free_run_scan|set_seen|^struct Span|^fn any_unseen|par_tasks_stats_at|projected_refine_seconds|est_dispatched|busy_s|performance_score|fmax_mhz|min_period_ps|with_arms|demand_at|overflowed_bins|MapGoal|layer_sweep|into_payload|insertion_delay_ps|wire_cap_ff|wafer_cost|liberty_to_clf|instances_per_day|domain_count|rebind|^pub fn (lee_bfs|astar|mikami_tabuchi)(_in)?|GateSpec|SpecKind|SpecRef|build_fragment|fragment_ref|of_ref|mean_density|lfsr|fn intersect|spread_clusters|coarse_iterations|MAX_CLUSTER_NET_FANOUT|coarse_nets|tagged_count|enumerate_waves|level_waves|map_par|is_overflowed|insert_clock_gating|insert_decaps|GatingOutcome|DecapOutcome|RegionMap|RegionSpan|RegionScheduler|RegionTask|OverlayGrid|OverlayBuffers|ScratchPool|route_stats|negotiation_waves|seam_conflicts|local_commits|route_par|par_tasks_stats|scaling_threads|EDA_BENCH_THREADS|opc_par|fault_sim_par|par_chunks_stats|fn spread\(seed_bits|opc:fragments|fault_sim:faults|par_map_stats|chunk_ranges|default_chunk|stage_threads|stage_speedup|eda_par|ParStats|projected_instances_per_second|refine_seconds|push_segment|global_iterations|cluster_gates|PlaceEffort|to_store_text|from_store_text|AIG_MEMO_KINDS|aigpass|pass_key|SynthesisOptions|aig_rewrite_passes|DEFAULT_REWRITE_PASSES|CLUSTER_GATES|t0_fraction|neck_fraction|prebias_nm|backtrack_limit|buffer_delay_ps|wire_delay_ps_per_um|wire_cap_ff_per_um|LibraryChoice::ControlledPolarity|fmt_f64|PlacementSnapshot|acquire_lock|LockTimeout|evicted_miss|ReadFail|Lookup::Evicted|CacheError::Evicted|SubstageMemo|SubMemo|route_stats_memo|ROUTE_OUTCOME_KIND|route_outcome_key|route_outcome_text|parse_route_outcome|substage_hits|substage_misses'
if grep -rnwE "$deleted_names" crates src tests examples; then
    echo "check: FAIL a deleted name is back (census above)" >&2; exit 1
fi

# One netlist: `2_clock_gating` and `9_power` plan from a borrow of the
# flow's netlist and apply the kept plan in place, so neither stage body
# may copy it again.
if awk '/^fn (clock_gating|power)\(/{body=1} body{print FILENAME":"FNR": "$0} body && /^}/{body=0}' \
        crates/core/src/flow.rs | grep -E '\b(netlist|cur)\.clone\(\)'; then
    echo "check: FAIL a netlist-editing stage body copies the netlist again (above)" >&2; exit 1
fi

# One copy of each net name: the netlist's name index holds net ids and
# compares against the name each net stores, so no map keyed by a cloned
# name may come back beside it.
if grep -rn 'HashMap<String, NetId>' crates/netlist/src; then
    echo "check: FAIL a name-keyed net map is back in crates/netlist/src (above)" >&2; exit 1
fi

# Searches return corners: the line search reduces its probe-line walk to
# corners and the maze searches emit corners as they walk `prev`, so the
# unit-step helpers that turned a walked path into corners live only in the
# test oracle (crates/route/src/reference.rs).
if grep -rnE '\b(corners|dedup_path)\(' crates src tests examples | grep -v '^crates/route/src/reference\.rs:'; then
    echo "check: FAIL a unit-step path helper is back outside the route test oracle (above)" >&2; exit 1
fi

# Integer edge costs: A* prices a step with the grid's integer
# `step_units`, so the f64 `step_cost` is called only beside its definition
# (grid.rs, with its tests) and by the test oracle (reference.rs).
if grep -rnE '(\.|::)step_cost\(' crates/route/src | grep -vE '^crates/route/src/(grid|reference)\.rs:'; then
    echo "check: FAIL a search prices edges in f64 again (a step_cost call outside grid.rs / reference.rs, above)" >&2; exit 1
fi

# Keyed structural hash: the AIG's strash is an open-addressed table of
# node ids, so the SipHash map keyed by operand pairs must not come back.
if grep -n 'HashMap<(Lit, Lit)' crates/logic/src/aig.rs; then
    echo "check: FAIL the pair-keyed strash map is back in crates/logic/src/aig.rs (above)" >&2; exit 1
fi

# Paged wire store: the router keeps every routed wire in fixed-capacity
# pages, so a heap block per connection must not come back under
# crates/route/src.
if grep -rn 'Vec<Option<Path>>' crates/route/src; then
    echo "check: FAIL a per-connection path vector is back in crates/route/src (above)" >&2; exit 1
fi

# Untouched benchmark: a change to the program leaves benchmark/ and
# BENCHMARK.json alone (a change to the benchmark itself adjusts this gate
# in that change). A local benchmark build rewrites benchmark/Cargo.lock;
# restore it before committing. Outside a git checkout there is nothing to
# compare against.
bench_status=""
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    bench_status="$(git status --porcelain -- benchmark BENCHMARK.json)"
fi
if [ -n "$bench_status" ]; then
    printf '%s\n' "$bench_status" >&2
    echo "check: FAIL benchmark/ or BENCHMARK.json changed (above); if only benchmark/Cargo.lock, run: git checkout -- benchmark/Cargo.lock" >&2
    exit 1
fi

# Serial kernels: synthesis, routing, OPC and fault simulation run serially,
# so no thread may be scoped or spawned in their crates' sources again (the
# placer's stripe dispatch and the request engine are the flow's threads;
# `thread::Builder` for a test's stack size does not match).
if grep -rnE 'thread::(scope|spawn)' crates/logic/src crates/route/src crates/litho/src crates/dft/src; then
    echo "check: FAIL a serial kernel crate scopes or spawns threads again (above)" >&2; exit 1
fi

# One engine: the request engine is the only way a request reaches the
# flow driver, so `run_flow_shared(` is called in eda-core from `flow.rs`
# (the driver and its public wrappers) and `engine.rs` alone — a front end
# calling it directly has grown its own worker loop again.
if grep -rn 'run_flow_shared(' crates/core/src | grep -vE '^crates/core/src/(flow|engine)\.rs:'; then
    echo "check: FAIL run_flow_shared is called outside flow.rs / engine.rs (above)" >&2; exit 1
fi

# One evaluator: `eda_netlist::CombView` levelizes a netlist's
# combinational core once, and simulation, the equivalence check, fault
# simulation and PODEM all evaluate through it. So the view is defined once,
# under crates/netlist/src, and neither eda-dft nor the equivalence check
# sorts a netlist of its own again.
view_defs="$(grep -rnw 'struct CombView' crates src tests examples benchmark | cut -d: -f1 | paste -sd' ' || true)"
if [[ "$view_defs" == *' '* || "$view_defs" != crates/netlist/src/* ]]; then
    echo "check: FAIL struct CombView is defined ${view_defs:+in }${view_defs:-nowhere}, want once under crates/netlist/src" >&2; exit 1
fi
if grep -rn 'topo_order(' crates/dft/src crates/logic/src/ec.rs; then
    echo "check: FAIL eda-dft or the equivalence check orders a netlist itself again (above); evaluate through CombView" >&2; exit 1
fi

# One record: a stage's results live in the flow report alone. The flow
# state holds the netlist, the placement, the scan chains and the report the
# stages write into — no scalar field beside them — and no telemetry metric
# restates a report field (such a metric summed a retried stage's attempts or
# kept the last one's, and was absent whenever the stage replayed).
state_fields="$(awk '/^pub\(crate\) struct FlowState \{/{body=1; next}
                     body && /^\}/{body=0}
                     body && /^ *(pub[^ ]* )?[a-z_][a-z_0-9]*:/{sub(/^ *(pub[^ ]* )?/, ""); sub(/:.*/, ""); print}' \
                 crates/core/src/state.rs | paste -sd' ')"
if [ "$state_fields" != "netlist placement chains report" ]; then
    echo "check: FAIL struct FlowState declares '$state_fields', want 'netlist placement chains report' (a stage's scalar result is a FlowReport field)" >&2; exit 1
fi
restated='"(litho\.(masks|stitches)|power\.(decaps_inserted|hotspots_after|dynamic_mw|leakage_mw|ir_drop_mv)|cts\.(skew_ps|wirelength_um)|sta\.(wns_ps|hold_violations)|dft\.coverage|scan\.wirelength_um)"'
if grep -rnE "$restated" crates src tests examples; then
    echo "check: FAIL a telemetry metric restates a FlowReport field again (above); results live in the report" >&2; exit 1
fi

# Tally: sum the "test result:" lines from the debug suite run above.
awk '/^test result:/ { passed += $4; failed += $6 }
     END { printf "check: %d tests passed, %d failed across all binaries\n", passed, failed
           exit (failed > 0) }' "$test_log"
echo "check: $(find crates src tests examples benchmark -name '*.rs' -print0 | xargs -0 cat | wc -l) lines of Rust (the count ROADMAP quotes); clippy --workspace --all-targets clean; deleted-name census empty (budgets, NPN / collapse, retry, twins, config builder, derived knobs, shared-store open, server snapshot, test-only accessors, serve / scale harnesses, per-edge probe helpers, per-slot busy clocks and the route wave ledger, mapping goal, one-shot search twins and layer sweep, mapper fragment pipeline and fourth test-only tranche, multilevel coarse sweeps and state tagged-count reader, mapper wave dispatch, per-edge overflow probe, clock-gating / decap copy-returning entry points and outcome types, route wave scheduler, OPC / fault-sim dispatch and its scaling rows, eda-par and the per-stage worker maps, the unit-step segment writer, PlaceEffort with its global_iterations / cluster_gates sentinels, the per-AIG-pass memo and its store text, the knobs no caller set: SynthesisOptions, aig_rewrite_passes, the rewrite and cluster-size copies, the anneal, hotspot, OPC, ATPG and CTS model fields and LibraryChoice::ControlledPolarity, the per-value f64 formatter fmt_f64 and the cloning PlacementSnapshot, the store's lock-file protocol acquire_lock / LockTimeout and its stale-read race path ReadFail / Lookup::Evicted / CacheError::Evicted / evicted_miss, the sub-stage memo tier SubstageMemo / SubMemo / route_stats_memo / the route-outcome kind, key and codec / the substage counters); no thread::scope / thread::spawn under eda-logic / eda-route / eda-litho / eda-dft sources; no netlist copy in the 2_clock_gating / 9_power bodies; no name-keyed net map in eda-netlist; no per-connection path vector in eda-route; unit-step path helpers only in the route test oracle; searches price edges in integers (step_cost called only in grid.rs / reference.rs); no pair-keyed strash map; benchmark/ and BENCHMARK.json untouched; run_flow_shared called from flow.rs + engine.rs only; one evaluator (struct CombView defined once, under crates/netlist/src; no topo_order( call under crates/dft/src or in crates/logic/src/ec.rs); one record (struct FlowState holds netlist / placement / chains / report only; no metric name restating a FlowReport field); every claim's shape held (experiments run + tests/claims.rs)"
echo "check: tier-1 + clippy --workspace --all-targets + unwrap gates + inject smoke + trace + all 18 claims with their shapes (experiments run + release tests/claims.rs) + daemon + facade docs + incremental + warm text-parse count (2) + 7_route stage hit on the clock edit + cross-process resume + mini-tier pins + 10^5 tier + golden + route pins + route audit + place pins + place audit + sign-off pins + deleted-name census (incl. multilevel coarse sweeps, state tagged-count reader, mapper wave dispatch, per-edge overflow probe and the copy-returning insert_clock_gating / insert_decaps / GatingOutcome / DecapOutcome, the route wave scheduler, the OPC / fault-sim dispatch, its kernel spans and scaling rows, and eda-par with the per-stage worker maps, and PlaceEffort with its global_iterations / cluster_gates sentinels, and the knobs no caller set, and the per-value f64 formatter with the cloning placement snapshot, and the store's lock-file protocol and stale-read race path, and the sub-stage memo tier) + heap pins (netlist layout, route wire store) + serial-kernel source gate + one-netlist gate + net-name index gate + paged wire-store gate + corner-search gate + integer-cost gate + strash gate + untouched-benchmark gate + one-engine gate + one-evaluator gate + one-record gate green"
