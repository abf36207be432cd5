//! The five workloads and the metric tables. Names are permanent: a later
//! issue may add a workload or a metric, never rename one.

use prio_afe::freq::FrequencyAfe;
use prio_afe::sum::SumAfe;
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_proc::spec::{AfeSpec, FieldSpec};
use rand::rngs::StdRng;
use rand::Rng;

/// Every workload tampers 5 % of its submissions, so the reject path is
/// always exercised and checked.
pub const TAMPER_PERMILLE: u32 = 50;
/// "PRIO": the seed when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 0x5052_494f;
/// `run_seconds` in `BENCHMARK.json`: the run length `timed_batches` and
/// the client-encode loop are sized for. `--seconds` scales both linearly.
pub const REFERENCE_SECONDS: u64 = 14;
/// Untimed warm-up per repeat: this many batches or [`WARMUP_MIN`],
/// whichever is longer.
pub const WARMUP_BATCHES: usize = 20;
pub const WARMUP_MIN: std::time::Duration = std::time::Duration::from_millis(500);
/// The process fabric cannot warm up by the clock (the batch count is an
/// argument of `prio-submit`): it replays the pool this many times first.
pub const PROC_WARMUP_RUNS: usize = 3;
/// Sequential one-way frame hops on a batch's critical path: ClientBatch,
/// Round1, Round1Combined, Round2, Decisions.
pub const HOPS_PER_BATCH: f64 = 5.0;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// `Deployment` on the in-process sim fabric.
    Sim,
    /// `Deployment` on loopback TCP, default I/O mode.
    Tcp,
    /// `ProcDeployment`: `prio-node` × s plus `prio-submit`.
    Proc,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub afe: AfeSpec,
    pub field: FieldSpec,
    pub servers: usize,
    /// Submissions per `run_batch` call.
    pub batch: usize,
    /// Distinct pre-encoded batches that are replayed.
    pub pool_batches: usize,
    pub fabric: Fabric,
    /// Timed batches per repeat at [`REFERENCE_SECONDS`]. Fixed counts, not
    /// fixed time: count metrics repeat exactly and every repeat has the
    /// same number of latency samples, on whatever host.
    pub timed_batches: usize,
    /// Repeats (fresh child processes) per run. Most of a repeat's noise is
    /// per process — which threads share a core, how memory fell — so the
    /// workloads with many threads per core get more, shorter repeats; see
    /// "How the bounds were set" in README.md.
    pub repeats: usize,
}

impl Workload {
    pub fn pool_submissions(&self) -> usize {
        self.pool_batches * self.batch
    }

    /// Timed batches per repeat for a run of `seconds`, never fewer than
    /// one pass over the pool.
    pub fn timed_batches_for(&self, seconds: u64) -> usize {
        let scaled = self.timed_batches as u64 * seconds / REFERENCE_SECONDS;
        (scaled as usize).max(self.pool_batches)
    }
}

/// Why each workload exists is recorded in `BENCHMARK.json` and README.md.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "sum16_sim_s3",
        afe: AfeSpec::Sum(16),
        field: FieldSpec::F64,
        servers: 3,
        batch: 256,
        pool_batches: 8,
        fabric: Fabric::Sim,
        timed_batches: 500,
        repeats: 5,
    },
    Workload {
        name: "freq512_sim_s2",
        afe: AfeSpec::Freq(512),
        field: FieldSpec::F64,
        servers: 2,
        batch: 64,
        pool_batches: 8,
        fabric: Fabric::Sim,
        timed_batches: 200,
        repeats: 5,
    },
    Workload {
        name: "sum8_tcp_s3_b8",
        afe: AfeSpec::Sum(8),
        field: FieldSpec::F64,
        servers: 3,
        batch: 8,
        pool_batches: 64,
        fabric: Fabric::Tcp,
        timed_batches: 4000,
        repeats: 10,
    },
    Workload {
        name: "sum16_proc_s3",
        afe: AfeSpec::Sum(16),
        field: FieldSpec::F64,
        servers: 3,
        batch: 256,
        pool_batches: 8,
        fabric: Fabric::Proc,
        timed_batches: 240,
        repeats: 10,
    },
    Workload {
        name: "freq128_f128_sim_s2",
        afe: AfeSpec::Freq(128),
        field: FieldSpec::F128,
        servers: 2,
        batch: 64,
        pool_batches: 8,
        fabric: Fabric::Sim,
        timed_batches: 250,
        repeats: 5,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `(name, unit)` of the nine end-to-end metrics, in `BENCHMARK.json` order.
pub const E2E_METRICS: [(&str, &str); 9] = [
    ("throughput_sub_per_s", "sub/s"),
    ("batch_latency_p50_ms", "ms"),
    ("batch_latency_p95_ms", "ms"),
    ("cpu_us_per_sub", "us"),
    ("client_encode_us_per_sub", "us"),
    ("upload_bytes_per_sub", "B"),
    ("leader_tx_bytes_per_sub", "B"),
    ("correct_share", "ratio"),
    ("setup_s", "s"),
];

/// `(name, unit)` of the forty per-layer metrics, in ladder order.
pub const LAYER_METRICS: [(&str, &str); 40] = [
    ("field.mul_ns", "ns"),
    ("field.ntt_fwd_ns_per_elem", "ns"),
    ("field.ntt_inv_ns_per_elem", "ns"),
    ("field.lagrange_pair_us", "us"),
    ("crypto.prg_expand_ns_per_elem", "ns"),
    ("afe.encode_us_per_sub", "us"),
    ("afe.mul_gates", "count"),
    ("snip.prove_us_per_sub", "us"),
    ("snip.context_us_per_batch", "us"),
    ("snip.round1_us_per_sub", "us"),
    ("snip.round2_us_per_sub", "us"),
    ("client.share_us_per_sub", "us"),
    ("server.unpack_seed_us_per_sub", "us"),
    ("server.unpack_explicit_us_per_sub", "us"),
    ("server.accumulate_ns_per_sub", "ns"),
    ("server.busy_us_per_batch_max", "us"),
    ("server.busy_us_per_batch_sum", "us"),
    ("wire.client_batch_bytes_explicit", "B"),
    ("wire.client_batch_bytes_seed", "B"),
    ("wire.client_batch_encode_ns_per_byte", "ns/B"),
    ("wire.client_batch_decode_ns_per_byte", "ns/B"),
    ("wire.round_frames_codec_us_per_batch", "us"),
    ("wire.frames_per_batch", "count"),
    ("wire.bytes_per_batch", "B"),
    ("net.rtt_us_round_frame", "us"),
    ("net.send_us_client_batch_frame", "us"),
    ("cluster.batch_us", "us"),
    ("deployment.sim_batch_us", "us"),
    ("deployment.tcp_batch_us", "us"),
    ("deployment.overhead_us_per_batch", "us"),
    ("deployment.codec_us_per_batch", "us"),
    ("deployment.unattributed_us_per_batch", "us"),
    ("deployment.cpu_over_busy_ratio", "ratio"),
    ("proc.launch_ms", "ms"),
    ("proc.shutdown_ms", "ms"),
    ("proc.batch_us", "us"),
    ("proc.overhead_us_per_batch", "us"),
    ("obs.counter_inc_ns", "ns"),
    ("obs.span_ns", "ns"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// What the benchmark needs from an AFE beyond the program's own trait: a
/// way to draw an in-domain input, the way `encode_submissions` does.
pub trait BenchAfe<F: FieldElement>: Afe<F> + Clone + Send + Sync + 'static {
    fn sample(&self, spec: AfeSpec, rng: &mut StdRng) -> Self::Input;
}

impl<F: FieldElement> BenchAfe<F> for SumAfe {
    fn sample(&self, spec: AfeSpec, rng: &mut StdRng) -> u64 {
        rng.random_range(0..1u64 << spec.size().min(63))
    }
}

impl<F: FieldElement> BenchAfe<F> for FrequencyAfe {
    fn sample(&self, spec: AfeSpec, rng: &mut StdRng) -> usize {
        rng.random_range(0..spec.size() as usize)
    }
}

/// Calls `$f::<Field, _>(afe, args…)` with the field and AFE types the
/// workload's spec names. Only the spec shapes the five workloads use are
/// wired; any other is a bug in the table above.
#[macro_export]
macro_rules! with_workload_types {
    ($w:expr, $f:ident ( $($arg:expr),* $(,)? )) => {{
        use prio_proc::spec::{AfeSpec, FieldSpec};
        match ($w.afe, $w.field) {
            (AfeSpec::Sum(bits), FieldSpec::F64) => {
                $f::<prio_field::Field64, _>(prio_afe::sum::SumAfe::new(bits), $($arg),*)
            }
            (AfeSpec::Freq(n), FieldSpec::F64) => {
                $f::<prio_field::Field64, _>(prio_afe::freq::FrequencyAfe::new(n), $($arg),*)
            }
            (AfeSpec::Freq(n), FieldSpec::F128) => {
                $f::<prio_field::Field128, _>(prio_afe::freq::FrequencyAfe::new(n), $($arg),*)
            }
            (afe, field) => panic!("no workload uses {afe:?} over {field:?}"),
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// True when `name` is a legal metric or workload name: 1–64 characters
    /// from `[A-Za-z0-9_.-]`, starting with a letter or digit.
    fn is_legal_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
            && name.as_bytes()[0].is_ascii_alphanumeric()
    }

    /// True when `unit` is a legal unit: 1–16 characters from `[A-Za-z0-9_/%.-]`.
    fn is_legal_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_are_legal_and_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(is_legal_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for (name, unit) in E2E_METRICS.iter().chain(&LAYER_METRICS) {
            assert!(is_legal_name(name), "{name}");
            assert!(is_legal_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "duplicate {name}");
        }
        assert!(E2E_METRICS.contains(&("setup_s", "s")));
        for bad in ["", "µs", "a b", ".x", "-x", &"x".repeat(65)] {
            assert!(!is_legal_name(bad), "{bad:?}");
        }
        assert!(!is_legal_unit("µs") && !is_legal_unit("") && is_legal_unit("ns/B"));
    }

    #[test]
    fn every_repeat_has_enough_batches_for_p95() {
        for w in &WORKLOADS {
            let n = w.timed_batches_for(REFERENCE_SECONDS);
            assert_eq!(n, w.timed_batches);
            assert!(
                crate::stats::percentile_is_reportable(n, 95.0),
                "{}",
                w.name
            );
            assert_eq!(w.timed_batches_for(0), w.pool_batches);
        }
    }
}
