#!/usr/bin/env bash
# Perf-regression canary, nine sections:
#
#  1. Engine A/B (vm_engine_ab): decoded vs legacy interpreter on the CG
#     whole-program campaign. The decoded engine must stay >= 2x the
#     legacy tree-walking interpreter in instructions/sec (and both must
#     produce identical outcome counts — the binary exits nonzero on a
#     mismatch).
#
#  2. Batched analysis (fig5 on CG): the Fig. 5 request on one app through
#     the batched work queue. The section fails when the binary exits
#     nonzero; its schedule and campaign-wall lines go into the artifact.
#
#  3. Campaign-scheduler A/B (campaign_fork_ab): snapshot-forked trials vs
#     the from-scratch trial loop on the CG whole-program campaign (one
#     pool worker — per-worker efficiency, stable across hosts), best of
#     five interleaved repetitions per side. Forked must stay >= 2x in
#     trials/sec with identical outcome counts (the binary exits nonzero on
#     a mismatch), must report prefix reuse, and must execute at most half
#     the instructions of the from-scratch loop (a deterministic count for
#     the fixed seed and trial count).
#     Its Fig. 5 leg runs every CG region x {Internal, Input} campaign both
#     ways, the forked side probing the golden section ladder: counts must
#     be identical per campaign (nonzero exit otherwise) and at least 10%
#     of the trials must close early at a probe — a deterministic count
#     for the fixed seed and trial count, so the gate is host-independent.
#
#  4. Cross-rank determinism (rank_propagation): 4-rank campaigns on the
#     rank-decomposed CG/MG/LULESH with the rank-local ForkPolicy A/B'd on
#     vs off — outcome counts must be bit-identical (the binary exits
#     nonzero on a mismatch) and the serial-vs-parallel SR table prints
#     into the artifact.
#
#  5. Persistent store A/B (store_warm_ab): cold run_analysis computing and
#     publishing every artifact vs a warm replay of the identical request
#     from the store. Warm must be >= 5x faster with bit-identical outcome
#     counts and zero executed work (the binary exits nonzero on either
#     violation); the store stats line is also written to
#     <build-dir>/store_stats.out for the CI artifact.
#
#  6. Native-engine A/B/C (jit_engine_ab): the template JIT vs the decoded
#     and legacy interpreters on the CG whole-program campaign (fork off —
#     raw engine throughput). The JIT must stay >= 3x the decoded
#     interpreter in instructions/sec with bit-identical outcome counts on
#     all three engines (the binary exits nonzero on a mismatch). The
#     section output is also written to <build-dir>/jit_ab.out for the CI
#     artifact. On targets without a native backend the section reports
#     "skipped" and passes.
#
#  7. Hardening A/B (harden_ab): the campaign-guided transform pass (DWC +
#     ABFT detectors + checkpoint/rollback recovery) vs the hand-built CG
#     variant. Every protected region's effective success rate must stay >=
#     its baseline, the aggregate static overhead must stay <= 2x, and at
#     least one trial must recover via rollback (the binary exits nonzero
#     on any violation). The section output is also written to
#     <build-dir>/harden_ab.out for the CI artifact.
#
#  8. Compositional A/B (compose_ab): exhaustive snapshot-forked trials vs
#     the per-section composed engine on every app (bit-identical outcome
#     counts, the binary exits nonzero on a mismatch), then per app a cold
#     composed run, a one-instruction constant edit, and a warm-incremental
#     run against the same store, five interleaved repetitions. The
#     incremental summarization phase, each side's best repetition summed
#     over the apps, must stay >= 5x faster than cold (suffix re-execution
#     through the edit is semantically required and excluded from the
#     gate); the binary exits nonzero when the repetitions' work counts
#     differ or the incremental runs recompute more than a fifth of the
#     cold runs' summaries. The section output is also written to
#     <build-dir>/compose_ab.out for the CI artifact.
#
#  9. Scheduler/service count identity (sched_service_ab): an imbalanced
#     multi-request mix (CG app campaign + LULESH-RANKED rank campaign + MG
#     compositional, three concurrent clients) on a one-worker Scheduler, on
#     an N-worker Scheduler, and through a CampaignService leg multiplexing
#     the same mix. Outcome counts must be bit-identical across all three
#     legs (the binary exits nonzero on a mismatch). Wall clock is recorded,
#     not gated. The section output is also written to
#     <build-dir>/sched_ab.out for the CI artifact.
#
# The combined output is also written to <build-dir>/bench_smoke.out so CI
# can upload it as an artifact.
#
#   scripts/bench_smoke.sh [build-dir] [trials]
set -euo pipefail

build_dir="${1:-build}"
trials="${2:-40}"
bench="$build_dir/fig5_per_region_sr"
engine_ab="$build_dir/vm_engine_ab"
fork_ab="$build_dir/campaign_fork_ab"
rank_prop="$build_dir/rank_propagation"
store_ab="$build_dir/store_warm_ab"
jit_ab="$build_dir/jit_engine_ab"
harden_ab="$build_dir/harden_ab"
compose_ab="$build_dir/compose_ab"
sched_ab="$build_dir/sched_service_ab"
out="$build_dir/bench_smoke.out"
jit_ab_out="$build_dir/jit_ab.out"
store_stats_out="$build_dir/store_stats.out"
harden_ab_out="$build_dir/harden_ab.out"
compose_ab_out="$build_dir/compose_ab.out"
sched_ab_out="$build_dir/sched_ab.out"

for bin in "$bench" "$engine_ab" "$fork_ab" "$rank_prop" "$store_ab" "$jit_ab" "$harden_ab" "$compose_ab" "$sched_ab"; do
  if [[ ! -x "$bin" ]]; then
    echo "error: $bin not found (build first: cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
    exit 1
  fi
done

: > "$out"

extract_ms() {
  # "campaign wall: 1410.9 ms (255 trials/s); total wall: 1504.6 ms"
  sed -n 's/^campaign wall: \([0-9.]*\) ms.*/\1/p' "$1"
}

tmp_engine=$(mktemp) tmp_batched=$(mktemp) tmp_fork=$(mktemp) tmp_rank=$(mktemp) tmp_store=$(mktemp) tmp_jit=$(mktemp) tmp_harden=$(mktemp) tmp_compose=$(mktemp) tmp_sched=$(mktemp)
trap 'rm -f "$tmp_engine" "$tmp_batched" "$tmp_fork" "$tmp_rank" "$tmp_store" "$tmp_jit" "$tmp_harden" "$tmp_compose" "$tmp_sched"' EXIT

echo "== bench smoke 1/9: decoded vs legacy engine on the CG campaign =="
# A longer campaign than section 2 (and interleaved best-of-3 inside the
# bench) keeps the speedup measurement steady on busy/single-core hosts.
engine_trials=$(( trials * 2 > 60 ? trials * 2 : 60 ))
"$engine_ab" --trials="$engine_trials" | tee "$tmp_engine"
cat "$tmp_engine" >> "$out"

engine_speedup=$(sed -n 's/^engine speedup: \([0-9.]*\)x$/\1/p' "$tmp_engine")
awk -v s="$engine_speedup" 'BEGIN {
  if (s == "") { print "ERROR: no engine speedup reported"; exit 1 }
  if (s < 2.0) { printf "REGRESSION: decoded engine only %.2fx the legacy interpreter (need >= 2x)\n", s; exit 1 }
  printf "engine OK (%.2fx >= 2x)\n", s
}' | tee -a "$out"

echo
echo "== bench smoke 2/9: fig5 on CG, $trials trials per region/class =="
# A nonzero exit of the binary fails the smoke under pipefail.
"$bench" --apps=CG --trials="$trials" | tee "$tmp_batched" | grep -E "^(schedule|campaign)"
cat "$tmp_batched" >> "$out"

batched_ms=$(extract_ms "$tmp_batched")
awk -v b="$batched_ms" 'BEGIN {
  if (b == "") { print "ERROR: no campaign wall reported"; exit 1 }
  printf "batched analysis OK (%.1f ms campaign wall)\n", b
}' | tee -a "$out"

echo
echo "== bench smoke 3/9: snapshot-forked vs from-scratch campaign trials on CG =="
# A longer campaign than section 2 amortizes the one-time golden pass and
# keeps the best-of interleaved measurement steady; the binary itself
# exits nonzero if the two schedulers disagree on any outcome count.
fork_trials=$(( trials * 3 > 120 ? trials * 3 : 120 ))
"$fork_ab" --trials="$fork_trials" --reps=5 | tee "$tmp_fork"
cat "$tmp_fork" >> "$out"

fork_speedup=$(sed -n 's/^fork speedup: \([0-9.]*\)x$/\1/p' "$tmp_fork")
fork_snaps=$(sed -n 's/^prefix reuse: \([0-9]*\) snapshots.*/\1/p' "$tmp_fork")
scratch_instr=$(sed -n 's/^scratch: .* \([0-9]*\) instr executed$/\1/p' "$tmp_fork")
forked_instr=$(sed -n 's/^forked : .* \([0-9]*\) instr executed$/\1/p' "$tmp_fork")
awk -v s="$fork_speedup" -v n="$fork_snaps" -v a="$scratch_instr" -v b="$forked_instr" 'BEGIN {
  if (s == "") { print "ERROR: no fork speedup reported"; exit 1 }
  if (n == "" || n == 0) { print "ERROR: forked campaign took no snapshots (prefix reuse inactive)"; exit 1 }
  if (a == "" || b == "" || b == 0) { print "ERROR: no executed-instruction counts reported"; exit 1 }
  if (a < 2 * b) { printf "REGRESSION: snapshot-forked campaign executed %d instructions, more than half of from-scratch %d\n", b, a; exit 1 }
  if (s < 2.0) { printf "REGRESSION: snapshot-forked campaign only %.2fx from-scratch trial throughput (need >= 2x)\n", s; exit 1 }
  printf "campaign scheduler OK (%.2fx >= 2x trials/s, %.2fx fewer instructions, %d snapshots)\n", s, a / b, n
}' | tee -a "$out"
# "region leg: 12 campaigns, 1440 trials, 253 early exits (83 bit-equal, ..."
region_trials=$(sed -n 's/^region leg: [0-9]* campaigns, \([0-9]*\) trials.*/\1/p' "$tmp_fork")
region_early=$(sed -n 's/^region leg: .* trials, \([0-9]*\) early exits.*/\1/p' "$tmp_fork")
region_counts=$(sed -n 's/^region leg: .*, counts \([A-Za-z]*\)$/\1/p' "$tmp_fork")
awk -v t="$region_trials" -v e="$region_early" -v c="$region_counts" 'BEGIN {
  if (t == "" || t == 0 || e == "") { print "ERROR: no region leg reported"; exit 1 }
  if (c != "identical") { print "REGRESSION: ladder-probed region campaigns disagree with the from-scratch loop"; exit 1 }
  if (e < 0.10 * t) { printf "REGRESSION: only %d of %d region trials closed early (need >= 10%%)\n", e, t; exit 1 }
  printf "ladder probes OK (%d of %d region trials closed early, %.1f%% >= 10%%)\n", e, t, 100 * e / t
}' | tee -a "$out"

echo
echo "== bench smoke 4/9: cross-rank campaign determinism (4-rank CG/MG/LULESH) =="
# The binary runs every multi-rank campaign twice — rank-local snapshot
# forking on and off — and exits nonzero if any cross-rank outcome count
# differs, failing the smoke under pipefail.
"$rank_prop" --trials="$trials" | tee "$tmp_rank"
cat "$tmp_rank" >> "$out"

rank_ok=$(sed -n 's/^rank determinism: \(.*\)$/\1/p' "$tmp_rank")
if [[ "$rank_ok" != "OK" ]]; then
  echo "REGRESSION: cross-rank campaign counts depend on ForkPolicy" | tee -a "$out"
  exit 1
fi
echo "cross-rank determinism OK" | tee -a "$out"

echo
echo "== bench smoke 5/9: cold compute vs warm artifact-store replay on CG =="
# The binary exits nonzero if any outcome count differs between the cold
# and warm run, or if the warm run executed any trials / traced any
# instructions — the store must serve everything. The same holds for its
# edited-module leg (a warm re-run from a derived trace and from a full
# segment), whose times are printed, not gated.
"$store_ab" --trials="$trials" | tee "$tmp_store"
cat "$tmp_store" >> "$out"

store_speedup=$(sed -n 's/^warm speedup: \([0-9.]*\)x$/\1/p' "$tmp_store")
awk -v s="$store_speedup" 'BEGIN {
  if (s == "") { print "ERROR: no warm speedup reported"; exit 1 }
  if (s < 5.0) { printf "REGRESSION: warm store replay only %.2fx the cold run (need >= 5x)\n", s; exit 1 }
  printf "persistent store OK (%.2fx >= 5x warm replay)\n", s
}' | tee -a "$out"
# The store stats line is its own CI artifact, next to bench_smoke.out.
sed -n '/^store stats:/p;/^warm speedup:/p;/^identity:/p;/^cold:/p;/^warm:/p' "$tmp_store" > "$store_stats_out"

echo
echo "== bench smoke 6/9: jit vs decoded vs legacy engine on the CG campaign =="
# Same campaign shape as section 1 (interleaved best-of inside the bench);
# the binary exits nonzero when any engine's outcome counts diverge.
"$jit_ab" --trials="$engine_trials" | tee "$tmp_jit"
cat "$tmp_jit" >> "$out"
# The JIT section is its own CI artifact, next to bench_smoke.out.
cp "$tmp_jit" "$jit_ab_out"

jit_speedup=$(sed -n 's/^jit speedup: \([0-9.]*\)x$/\1/p' "$tmp_jit")
if grep -q '^jit speedup: skipped$' "$tmp_jit"; then
  echo "jit engine skipped (no native backend on this target)" | tee -a "$out"
else
  awk -v s="$jit_speedup" 'BEGIN {
    if (s == "") { print "ERROR: no jit speedup reported"; exit 1 }
    if (s < 3.0) { printf "REGRESSION: jit only %.2fx the decoded interpreter (need >= 3x)\n", s; exit 1 }
    printf "jit engine OK (%.2fx >= 3x)\n", s
  }' | tee -a "$out"
fi

echo
echo "== bench smoke 7/9: campaign-guided hardening pass vs hand-built CG =="
# The binary exits nonzero if any protected region's effective success
# rate falls below its baseline, the aggregate static overhead exceeds
# 2x, or no trial ever exercised the rollback recovery path.
"$harden_ab" --trials="$trials" | tee "$tmp_harden"
cat "$tmp_harden" >> "$out"
# The hardening section is its own CI artifact, next to bench_smoke.out.
cp "$tmp_harden" "$harden_ab_out"

harden_gates=$(sed -n 's/^harden gates: \(.*\)$/\1/p' "$tmp_harden")
if [[ "$harden_gates" != "coverage OK, overhead OK, recovery OK" ]]; then
  echo "REGRESSION: hardening gates violated ($harden_gates)" | tee -a "$out"
  exit 1
fi
echo "hardening OK ($(sed -n 's/^aggregate overhead: \([0-9.]*x\).*/\1/p' "$tmp_harden") aggregate overhead)" | tee -a "$out"

echo
echo "== bench smoke 8/9: compositional campaigns - cold vs warm-incremental =="
# The binary exits nonzero if the composed engine's outcome counts diverge
# from the exhaustive scheduler on any app, if the post-edit incremental
# counts diverge from a from-scratch exhaustive run on the edited module,
# if the warm runs fail to serve untouched summaries from the store or
# recompute more than a fifth of the cold runs' summaries, if the
# repetitions' work counts differ (the `work:` line), or if an edited
# session's golden trace was not spliced onto the cold run's lineage root
# (it traced the whole run, or its columns differ from a scratch trace; the
# `splice:` line shows the counts).
"$compose_ab" --trials="$trials" | tee "$tmp_compose"
cat "$tmp_compose" >> "$out"
# The compositional section is its own CI artifact, next to bench_smoke.out.
cp "$tmp_compose" "$compose_ab_out"

compose_speedup=$(sed -n 's/^compose speedup: \([0-9.]*\)x$/\1/p' "$tmp_compose")
awk -v s="$compose_speedup" 'BEGIN {
  if (s == "") { print "ERROR: no compose speedup reported"; exit 1 }
  if (s < 5.0) { printf "REGRESSION: incremental summarization only %.2fx the cold run (need >= 5x)\n", s; exit 1 }
  printf "compositional OK (%.2fx >= 5x incremental summarization)\n", s
}' | tee -a "$out"

echo
echo "== bench smoke 9/9: scheduler and service count identity on a mixed load =="
# Three concurrent clients on one scheduler (quick trial counts are baked
# into the bench: the mix's imbalance is the point, not its size). The
# binary exits nonzero when outcome counts differ between the one-worker
# scheduler, the N-worker scheduler, or the CampaignService leg.
"$sched_ab" | tee "$tmp_sched"
cat "$tmp_sched" >> "$out"
# The scheduler section is its own CI artifact, next to bench_smoke.out.
cp "$tmp_sched" "$sched_ab_out"

if ! grep -q '^counts: identical across ' "$tmp_sched"; then
  echo "ERROR: no count-identity line reported" | tee -a "$out"
  exit 1
fi
echo "scheduler/service count identity OK" | tee -a "$out"
