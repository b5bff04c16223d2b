#!/usr/bin/env bash
# The determinism matrix: the worker-count byte-identity suites and the
# bit-for-bit oracle tests, one list for every run of it. CI runs it once
# at the default chunk size and once with GTL_EXEC_CHUNK=3, which forces
# every `Granularity::Auto` call site to claim 3 items at a time: chunk
# boundaries must be as invisible as worker counts. Each filter runs
# through cargo-test-nonempty.sh, which fails a run of zero tests, so a
# renamed test fails here instead of dropping out of the matrix.
#
#   .github/scripts/determinism-suites.sh
#   GTL_EXEC_CHUNK=3 .github/scripts/determinism-suites.sh
set -euo pipefail
t="$(dirname "$0")/cargo-test-nonempty.sh"

# Finder: full-result identity across 1/2/8 workers.
"$t" -p gtl-tangled result_identical_for_1_2_8_workers
# Finder Phase I and scoring: `grow_into` vs its verbatim lazy-heap
# oracle (orderings, profiles and prefix stats), and
# `SubsetStats::compute` vs its verbatim BTreeMap oracle.
"$t" -p gtl-tangled --lib grow_into_matches_oracle
"$t" -p gtl-netlist --lib subset_stats_match_oracle
# Finder Phase III: `refine_candidate` vs its verbatim oracle (kept
# cells, stats, score bits and the random draws, one grower shared), and
# `prune_overlapping_with` vs its verbatim oracle (the kept candidates in
# order, with one scratch reused across universes).
"$t" -p gtl-tangled --lib refine_candidate_matches_oracle
"$t" -p gtl-tangled --lib prune_matches_oracle
# Sharded placer + striped congestion vs serial oracles.
"$t" -p gtl-place --test determinism
"$t" -p gtl-place --test properties
# Spreader: the presorted, fanned-out bisection vs its verbatim serial
# oracle at 1/2/8 workers (one filter per test, so a rename fails here).
"$t" -p gtl-place --lib spread_matches_oracle_bit_for_bit
"$t" -p gtl-place --lib spread_matches_oracle_on_a_fanned_out_12k_fixture
"$t" -p gtl-place --lib spread_matches_oracle_where_area_sum_order_matters
# Placer solves: the two-lane shard CG vs its verbatim one-axis oracle
# (also with one solver reused across designs of different sizes), the
# scalar-anchor global CG vs its verbatim per-cell-anchor oracle, and
# the solve pass vs its verbatim oracle at 1/2/8 workers, sharded (stitch,
# reported boundary cells, sweeps) and on a 1×1 grid (both axes' global
# solves and the clamp).
"$t" -p gtl-place --lib two_lane_shard_solve_matches_oracle_bit_for_bit
"$t" -p gtl-place --lib two_lane_shard_solve_matches_oracle_at_the_stopping_edges
"$t" -p gtl-place --lib one_shard_solver_matches_oracle_across_design_sizes
"$t" -p gtl-place --lib scalar_anchor_solve_matches_fused_oracle_bit_for_bit
"$t" -p gtl-place --lib solve_pass_matches_oracle_bit_for_bit
"$t" -p gtl-place --lib global_solve_pass_matches_oracle_bit_for_bit
# The two-visit Laplacian build of one-byte weight codes vs the triplet
# build of f64 weights (which the solver oracles above run on), and the
# one-pass congestion report vs its verbatim oracle, bit for bit.
"$t" -p gtl-place --lib laplacian_build_matches_oracle_bit_for_bit
"$t" -p gtl-place --lib one_pass_report_matches_oracle_bit_for_bit
# The congestion estimate without a per-net geometry table vs the
# table-building reference, bit for bit: on random designs at 1/4/13/32
# tiles, and on NaN and infinite pins (the inverted-box rule).
"$t" -p gtl-place --test properties striped_congestion_matches_reference
"$t" -p gtl-place --lib non_finite_positions_match_reference_without_panicking
# The byte-level `.hgr` body pass vs its verbatim line-by-line oracle:
# mutated designs, then arbitrary bytes, each read whole and a byte at a
# time under line caps down to 8 bytes; and the in-place reverse CSR of
# the netlist builder vs a scan of the nets.
"$t" -p gtl-netlist --lib hgr_reader_matches_reference
"$t" -p gtl-netlist --lib hgr_reader_is_total
"$t" -p gtl-netlist --lib reverse_csr_matches_a_scan_of_the_nets
# API/service: in-process and over-TCP responses across worker counts.
"$t" -p gtl-api --test serve_identity
"$t" -p gtl-api --test runtime_serve
# Session registry: eviction order and response bytes must be
# lane-count- and cache-budget-independent.
"$t" -p gtl-api --test registry_serve
"$t" -p tangled-logic --test api_service
# Execution layer, through the general map: a token that never fires is
# byte-identical to no token (property test), and chunk boundaries are
# invisible for any worker count (property test).
"$t" -p gtl-core never_firing_token_is_invisible
"$t" -p gtl-core chunking_is_invisible_for_any_worker_count
# Observability: recording spans is byte-invisible (property test), and
# the Prometheus text rendering reproduces the committed snapshot
# byte-for-byte.
"$t" -p gtl-core recording_spans_never_changes_compute_bytes
"$t" -p gtl-api golden_prometheus_rendering_is_frozen
