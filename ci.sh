#!/usr/bin/env bash
# Offline CI for the Prio reproduction workspace.
#
# The workspace has zero crates.io dependencies (see shims/), so everything
# runs with --offline and never touches the network. Bare cargo commands
# cover every member crate via the root manifest's default-members list.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test -q"
cargo test -q --offline

# Deliberate re-run: `cargo test -q` above already covers this binary, but
# the TCP e2e is a named CI gate — if the real-socket path breaks, the log
# says so explicitly.
echo "==> e2e over the TCP transport"
cargo test -q --offline --test e2e_tcp

# Multi-process e2e: 3- and 5-server pipelines as real OS processes
# (prio-node × s + prio-submit), tampered submissions rejected, aggregates
# bit-identical to the in-process cluster, all children exiting cleanly.
# `cargo build -p prio_proc` pins the debug binaries the test spawns.
echo "==> multi-process e2e (prio_proc)"
cargo build --offline -p prio_proc
cargo test -q --offline --test e2e_proc

# Observability gate: scrapes live per-node registries from a real
# 3-process deployment over the GetMetrics control message and fails if
# the prio-obs exposition doesn't parse, if key counters are zero or
# disagree with NodeStats, or if a 10k garbage-frame flood is not fully
# accounted for in the drop counters (bounded stderr, exact counts).
echo "==> observability e2e (GetMetrics scrape + flood accounting)"
cargo test -q --offline --test e2e_obs

# Regression guard for the tier-1 flake fixed in PR 14: `critical_path`
# used to pick the driver (one whole-batch wait, no compute) as a batch's
# critical node on a scheduling coin flip, failing `e2e_trace` with "no
# compute attributed" in ~1 of 6 isolated runs. Ten consecutive passes.
echo "==> e2e_trace x10 (critical-path flake guard)"
for _ in $(seq 1 10); do
  cargo test -q --offline --test e2e_trace
done

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --all-targets -- -D warnings

# Cross-validation of prio-lint's no-panic rule: clippy's own unwrap/expect
# lints over the network-facing crates, warn-level so the two checkers can
# disagree visibly without double-gating (prio-lint is the gate; every
# surviving warning corresponds to a reasoned lint:allow).
echo "==> cargo clippy (unwrap/expect cross-check: prio_net, prio_proc)"
cargo clippy --offline --no-deps -p prio_net -p prio_proc --lib --bins -- \
  -W clippy::unwrap_used -W clippy::expect_used

# The in-tree static-analysis pass (see crates/lint and ROADMAP.md
# "Invariants"): fails on any finding, on more than 15 inline allows, or if
# the full-workspace scan takes over 2 s — the lint must never become the
# slow step.
echo "==> prio-lint (workspace invariants)"
cargo build --release --offline -p prio_lint
cargo run --release --offline -q -p prio_lint -- --timing --max-allows 15 --max-millis 2000

echo "==> prio-bench --smoke (all backends)"
cargo run --release --offline -p prio_bench -- --smoke
cargo run --release --offline -p prio_bench -- --check BENCH_prio.json

# The plain --smoke above already runs the TCP scenarios; this slice exists
# to exercise the --backend CLI filter end-to-end (registry filtering, a
# tcp-only report, and its validation).
echo "==> prio-bench --smoke --backend tcp (real-socket slice)"
cargo run --release --offline -p prio_bench -- --smoke --backend tcp --out target/bench_tcp.json
cargo run --release --offline -p prio_bench -- --check target/bench_tcp.json

# Batched-verification slice: re-runs the batch × thread sweep in isolation
# and re-validates its scenario tags (threads/batch params, throughput
# metric) through prio-bench --check.
echo "==> prio-bench --smoke --filter fig5/batch_verify (batched verification slice)"
cargo run --release --offline -p prio_bench -- --smoke --filter fig5/batch_verify --out target/bench_batch_verify.json
cargo run --release --offline -p prio_bench -- --check target/bench_batch_verify.json

# Connection-churn slice: the reactor vs. thread-per-connection sweep in
# isolation (raw TCP endpoint, ≥ 1k concurrent short-lived connections at
# the top smoke point). The runner itself asserts byte accounting is
# identical across I/O modes and that the concurrency peak was reached;
# --check validates the report shape.
echo "==> prio-bench --smoke --filter fig4/conn_sweep (connection-churn slice)"
cargo run --release --offline -p prio_bench -- --smoke --filter fig4/conn_sweep --out target/bench_conn_sweep.json
cargo run --release --offline -p prio_bench -- --check target/bench_conn_sweep.json

# Multi-process slice: exercises the --backend proc filter end to end. The
# release prio-node/prio-submit binaries exist because the initial
# `cargo build --release` covers every default member; prio-bench locates
# them next to its own executable. This slice also runs with metrics
# enabled by construction: every proc scenario's `obs` block is built from
# GetMetrics scrapes of the node processes, so an unparseable exposition
# fails the run and --check rejects a document whose summaries lack p99.
echo "==> prio-bench --smoke --backend proc (multi-process slice)"
cargo run --release --offline -p prio_bench -- --smoke --backend proc --out target/bench_proc.json
cargo run --release --offline -p prio_bench -- --check target/bench_proc.json

# Deterministic chaos gate (ROADMAP.md "Robustness"). Three layers:
#   1. e2e_chaos: kill -9 a node mid-run and restart it; the batches that
#      completed must balance and the restarted deployment must finish.
#   2. The fig7 robustness slice twice, --check'd: every scenario's
#      exactness ledger (accepted + rejected + dropped == sent, typed
#      batch outcomes, fault/retry/dedup counters) validates.
#   3. Seeded-replay determinism: the two runs' --ledgers projections —
#      every robustness ledger in canonical compact form, wall-clock
#      excluded by construction — must be byte-identical. Same fault
#      seed, same faults, same ledger, on all three fabrics.
echo "==> chaos gate (e2e_chaos + seeded-replay ledger diff)"
cargo test -q --offline --test e2e_chaos
cargo run --release --offline -p prio_bench -- --smoke --filter fig7/robustness --out target/bench_chaos_a.json
cargo run --release --offline -p prio_bench -- --smoke --filter fig7/robustness --out target/bench_chaos_b.json
cargo run --release --offline -p prio_bench -- --check target/bench_chaos_a.json
cargo run --release --offline -p prio_bench -- --check target/bench_chaos_b.json
cargo run --release --offline -q -p prio_bench -- --ledgers target/bench_chaos_a.json > target/ledgers_a.txt
cargo run --release --offline -q -p prio_bench -- --ledgers target/bench_chaos_b.json > target/ledgers_b.txt
diff target/ledgers_a.txt target/ledgers_b.txt || {
  echo "chaos gate: seeded fault replay diverged (ledgers differ)" >&2
  exit 1
}

# Distributed-tracing gate (ROADMAP.md "Observability"). A traced smoke
# scenario runs on the sim fabric and on the multi-process fabric; each
# merged timeline is exported as Chrome trace-event JSON and re-parsed by
# prio-trace --check, which enforces the tracing invariants end to end:
# unique span ids, acyclic parent edges that all resolve, causal order
# (no recv before its send), and a critical-path compute/network split
# that sums to within the batch wall time. The traced fig4 rows in the
# main --smoke report above are additionally validated by
# prio-bench --check (trace block required on traced scenarios).
echo "==> trace gate (sim + proc Chrome-trace export, prio-trace --check)"
cargo run --release --offline -q -p prio_bench -- --trace "fig4/throughput/sum/s=3" --out target/trace_sim.json
cargo run --release --offline -q -p prio_bench -- --trace "fig4/throughput/sum/s=3/proc" --out target/trace_proc.json
cargo run --release --offline -q -p prio_bench --bin prio-trace -- --check target/trace_sim.json
cargo run --release --offline -q -p prio_bench --bin prio-trace -- --check target/trace_proc.json

# The gate benchmark (BENCHMARK.json) builds against the API surface listed
# in benchmark/README.md from its own package, outside the workspace: a
# signature break there must fail CI here, not the PR gate later. --quick
# is one repeat at 1/10 the batch counts (not comparable, but it runs all
# five workloads end to end and checks every decision against the oracle).
echo "==> gate benchmark (unit tests + --quick run)"
(cd benchmark && cargo test --release --offline -q)
bash benchmark/run.sh --quick

echo "CI OK"
