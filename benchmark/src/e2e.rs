//! One repeat of one workload: start the deployment, warm up, run the
//! timed fixed-count window, publish, and check every output.
//!
//! Load model: closed loop, one driver thread, one batch in flight —
//! `run_batch` blocks until the leader's decisions arrive, so this loop is
//! a caller that waits. The program sees only generated submissions.

use crate::json::Json;
use crate::oracle::{mismatches, Oracle};
use crate::stats::{median, percentile, percentile_is_reportable, sorted};
use crate::workload::{
    BenchAfe, Fabric, Workload, PROC_WARMUP_RUNS, TAMPER_PERMILLE, WARMUP_BATCHES,
};
use prio_core::{Client, ClientConfig, ClientSubmission, Deployment, DeploymentConfig};
use prio_field::FieldElement;
use prio_net::TransportKind;
use prio_proc::spec::{encode_submissions, is_tampered};
use prio_proc::{ProcConfig, ProcDeployment};
use prio_snip::HForm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// What one repeat measured. Times are per repeat; the harness reports the
/// median across repeats.
#[derive(Clone, Debug, PartialEq)]
pub struct RepeatResult {
    pub throughput_sub_per_s: f64,
    pub batch_latency_p50_ms: f64,
    pub batch_latency_p95_ms: f64,
    pub cpu_us_per_sub: f64,
    pub client_encode_us_per_sub: f64,
    pub upload_bytes_per_sub: f64,
    pub leader_tx_bytes_per_sub: f64,
    pub setup_s: f64,
    /// [`host_probe_ns`] around the deployment: the slower of the readings
    /// taken just before it started and just after it finished.
    pub host_probe_ns: f64,
    /// Submissions fed to the program, warm-up included.
    pub attempted: u64,
    /// Submissions whose outcome was wrong (see `failed_share` in README).
    pub failed: u64,
    /// What a reader of the numbers must know: every reason behind
    /// `failed`, and any percentile reported from too few samples.
    pub notes: Vec<String>,
}

impl RepeatResult {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("throughput_sub_per_s", Json::Num(self.throughput_sub_per_s)),
            ("batch_latency_p50_ms", Json::Num(self.batch_latency_p50_ms)),
            ("batch_latency_p95_ms", Json::Num(self.batch_latency_p95_ms)),
            ("cpu_us_per_sub", Json::Num(self.cpu_us_per_sub)),
            (
                "client_encode_us_per_sub",
                Json::Num(self.client_encode_us_per_sub),
            ),
            ("upload_bytes_per_sub", Json::Num(self.upload_bytes_per_sub)),
            (
                "leader_tx_bytes_per_sub",
                Json::Num(self.leader_tx_bytes_per_sub),
            ),
            ("setup_s", Json::Num(self.setup_s)),
            ("host_probe_ns", Json::Num(self.host_probe_ns)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }

    pub fn from_json(v: &Json) -> Result<RepeatResult, String> {
        let num = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repeat result lacks {key}"))
        };
        Ok(RepeatResult {
            throughput_sub_per_s: num("throughput_sub_per_s")?,
            batch_latency_p50_ms: num("batch_latency_p50_ms")?,
            batch_latency_p95_ms: num("batch_latency_p95_ms")?,
            cpu_us_per_sub: num("cpu_us_per_sub")?,
            client_encode_us_per_sub: num("client_encode_us_per_sub")?,
            upload_bytes_per_sub: num("upload_bytes_per_sub")?,
            leader_tx_bytes_per_sub: num("leader_tx_bytes_per_sub")?,
            setup_s: num("setup_s")?,
            host_probe_ns: num("host_probe_ns")?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            notes: v
                .get("notes")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect(),
        })
    }
}

/// How fast this host's CPU is right now, independent of the program under
/// test: nanoseconds per step of a fixed register-only multiply-add chain,
/// the fastest of three 2 ms bursts (so a preemption does not count, a
/// sustained slowdown does). On a shared host a neighbour on the sibling
/// hardware thread slows every instruction by 1.3–1.7× for tens of
/// seconds; the harness uses this reading to tell such repeats from the
/// rest (see `harness::calm`).
pub fn host_probe_ns() -> f64 {
    const STEPS: u64 = 2_000_000;
    (0..3)
        .map(|round| {
            let start = Instant::now();
            let mut x: u64 = black_box(round + 1);
            for _ in 0..STEPS {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
            }
            black_box(x);
            start.elapsed().as_nanos() as f64 / STEPS as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// CPU seconds this process and its waited-for children have used
/// (`utime + stime + cutime + cstime` of `/proc/self/stat`). Children count
/// once they have been waited for, which `ProcDeployment::run` does.
pub fn cpu_seconds() -> f64 {
    // Linux reports these fields in clock ticks of 1/100 s on every
    // architecture Rust's std supports (`USER_HZ`).
    const TICKS_PER_SECOND: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, where field 3 (state) comes first.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11) // state is field 3, utime is field 14
        .take(4)
        .map(|f| f.parse::<u64>().expect("numeric stat field"))
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// Encodes the workload's pool: identical bytes in every process that asks
/// with the same `(workload, seed)`, `prio-submit` included.
pub fn encode_pool<F: FieldElement>(w: &Workload, seed: u64) -> Vec<ClientSubmission<F>> {
    encode_submissions::<F>(
        w.afe,
        w.servers,
        HForm::PointValue,
        w.pool_submissions(),
        seed,
        TAMPER_PERMILLE,
    )
    .expect("workload inputs are inside the AFE's domain")
}

/// The rule the pool was generated under.
pub fn tamper_rule(j: usize) -> bool {
    is_tampered(j, TAMPER_PERMILLE)
}

/// Per-batch wall times (ms) → (p50, p95), nearest rank.
fn latency_percentiles(walls: &[Duration]) -> (f64, f64) {
    let ms = sorted(walls.iter().map(|d| d.as_secs_f64() * 1e3).collect());
    (percentile(&ms, 50.0), percentile(&ms, 95.0))
}

/// How one repeat is sized. `bin_dir` holds `prio-node` and `prio-submit`
/// (only the process fabric looks).
pub struct RepeatPlan<'a> {
    pub seed: u64,
    pub timed_batches: usize,
    pub warmup_min: Duration,
    pub encode_budget: Duration,
    pub bin_dir: &'a Path,
}

/// What the fabric-specific half of a repeat hands back.
struct Window {
    /// Wall time of the timed window, seconds.
    wall: f64,
    /// Per-batch wall times of the timed window.
    batch_walls: Vec<Duration>,
    cpu: f64,
    /// Leader bytes sent and the submissions they are divided by.
    leader_tx: (u64, u64),
    setup_s: f64,
    /// Times each pool batch was run, warm-up included.
    replays: Vec<u64>,
    sigma: Vec<u64>,
    failed: u64,
    notes: Vec<String>,
}

/// One repeat of `w`: encode the pool, build the oracle, time the client,
/// then drive the deployment and check what it produced. `rule` is the
/// tamper rule the oracle assumes ([`tamper_rule`] outside tests).
pub fn run_repeat<F, A>(
    afe: A,
    w: &Workload,
    plan: &RepeatPlan,
    rule: &dyn Fn(usize) -> bool,
) -> Result<RepeatResult, String>
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let pool = encode_pool::<F>(w, plan.seed);
    let oracle = Oracle::build(afe.clone(), w, &pool, rule);
    let client_encode_us_per_sub =
        client_encode::<F, A>(afe.clone(), w, plan.seed, plan.encode_budget);

    let probe_before = host_probe_ns();
    let win = match w.fabric {
        Fabric::Sim => window_inproc(afe, w, plan, TransportKind::Sim, &pool, &oracle),
        Fabric::Tcp => window_inproc(afe, w, plan, TransportKind::Tcp, &pool, &oracle),
        Fabric::Proc => window_proc(w, plan, &oracle)?,
    };
    let host_probe_ns = probe_before.max(host_probe_ns());

    let attempted = win.replays.iter().sum::<u64>() * w.batch as u64;
    let mut notes = win.notes;
    let mut failed = win.failed + oracle.reference_mismatches;
    if oracle.reference_mismatches > 0 {
        notes.push(format!(
            "the Cluster reference disagrees with the tamper rule on {} pool submissions",
            oracle.reference_mismatches
        ));
    }
    if win.sigma != oracle.expected_sigma(&win.replays) {
        notes.push("published aggregate differs from the scaled Cluster reference".into());
        failed = attempted;
    }
    let timed_subs = (win.batch_walls.len() * w.batch) as f64;
    let (p50, p95) = latency_percentiles(&win.batch_walls);
    if !percentile_is_reportable(win.batch_walls.len(), 95.0) {
        // Quick runs only: every gate workload times at least 200 batches.
        notes.push(format!(
            "p95 over {} batches has fewer than ten samples beyond it",
            win.batch_walls.len()
        ));
    }
    Ok(RepeatResult {
        throughput_sub_per_s: timed_subs / win.wall,
        batch_latency_p50_ms: p50,
        batch_latency_p95_ms: p95,
        cpu_us_per_sub: win.cpu * 1e6 / attempted as f64,
        client_encode_us_per_sub,
        upload_bytes_per_sub: upload_bytes_per_sub(&pool),
        leader_tx_bytes_per_sub: win.leader_tx.0 as f64 / win.leader_tx.1 as f64,
        setup_s: win.setup_s,
        host_probe_ns,
        attempted,
        failed: failed.min(attempted),
        notes,
    })
}

/// The deployment half of a repeat on an in-process fabric.
fn window_inproc<F, A>(
    afe: A,
    w: &Workload,
    plan: &RepeatPlan,
    kind: TransportKind,
    pool: &[ClientSubmission<F>],
    oracle: &Oracle<F>,
) -> Window
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let batches: Vec<&[ClientSubmission<F>]> = pool.chunks(w.batch).collect();
    let mut replays = vec![0u64; batches.len()];
    let mut wrong = 0;
    let mut fed = 0;
    let mut feed = |deployment: &mut Deployment<F>| {
        let b = fed % batches.len();
        fed += 1;
        let decisions = deployment.run_batch(batches[b]);
        wrong += mismatches(&decisions, &oracle.decisions[b]);
        replays[b] += 1;
    };

    let cpu_start = cpu_seconds();
    let setup_start = Instant::now();
    let mut deployment: Deployment<F> =
        Deployment::start(afe, DeploymentConfig::new(w.servers).with_transport(kind));
    let warm_start = Instant::now();
    let mut warm = 0;
    while warm < WARMUP_BATCHES || warm_start.elapsed() < plan.warmup_min {
        feed(&mut deployment);
        warm += 1;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let leader = deployment.server_ids()[0];
    let leader_tx = |d: &Deployment<F>| {
        d.network()
            .snapshot()
            .bytes_sent
            .get(&leader)
            .copied()
            .unwrap_or(0)
    };
    let tx_before = leader_tx(&deployment);
    let window = Instant::now();
    for _ in 0..plan.timed_batches {
        feed(&mut deployment);
    }
    let wall = window.elapsed().as_secs_f64();
    let tx = leader_tx(&deployment) - tx_before;
    let batch_walls = deployment.batch_wall()[warm..].to_vec();
    let report = deployment.finish();
    let cpu = cpu_seconds() - cpu_start;

    let mut notes = Vec::new();
    if wrong > 0 {
        notes.push(format!("{wrong} decisions differ from the oracle"));
    }
    if report.dropped > 0 {
        let (_, degraded, aborted) = report.batch_outcomes;
        notes.push(format!(
            "{} submissions dropped in {degraded} degraded and {aborted} aborted batches",
            report.dropped
        ));
    }
    Window {
        wall,
        batch_walls,
        cpu,
        leader_tx: (tx, (plan.timed_batches * w.batch) as u64),
        setup_s,
        replays,
        sigma: report.sigma,
        failed: wrong + report.dropped,
        notes,
    }
}

/// The process fabric's configuration for `runs` passes over `w`'s pool,
/// with `prio-node` and `prio-submit` taken from `bin_dir`.
pub fn proc_config(w: &Workload, seed: u64, runs: usize, bin_dir: &Path) -> ProcConfig {
    let mut cfg = ProcConfig::new(w.servers, w.afe, w.field, w.pool_submissions())
        .with_tamper_permille(TAMPER_PERMILLE)
        .with_batch(w.batch)
        .with_runs(runs)
        .with_seed(seed);
    cfg.node_bin = Some(bin_dir.join("prio-node"));
    cfg.submit_bin = Some(bin_dir.join("prio-submit"));
    cfg
}

/// The deployment half of a repeat through real processes: `prio-node` × s
/// and `prio-submit`. The pool is encoded inside `prio-submit` from the
/// same `(spec, seed)`, so it is byte-identical to [`encode_pool`]'s.
fn window_proc<F: FieldElement>(
    w: &Workload,
    plan: &RepeatPlan,
    oracle: &Oracle<F>,
) -> Result<Window, String> {
    let runs = PROC_WARMUP_RUNS + plan.timed_batches.div_ceil(w.pool_batches);
    let warm = PROC_WARMUP_RUNS * w.pool_batches;
    let cpu_start = cpu_seconds();
    let start = Instant::now();
    // An error here means nothing was measured; the harness counts a
    // repeat without a result as failed in full.
    let report = ProcDeployment::launch(proc_config(w, plan.seed, runs, plan.bin_dir))
        .and_then(ProcDeployment::run)
        .map_err(|e| format!("process deployment failed: {e}"))?;
    let total = start.elapsed().as_secs_f64();
    let cpu = cpu_seconds() - cpu_start;

    let attempted = (runs * w.pool_submissions()) as u64;
    let expected_accepted = oracle
        .decisions
        .iter()
        .flatten()
        .filter(|&&accept| accept)
        .count() as u64
        * runs as u64;
    let mut notes = Vec::new();
    let mut failed = report.dropped;
    // The process report carries counts, not per-submission decisions.
    if report.accepted != expected_accepted
        || report.accepted + report.rejected + report.dropped != attempted
    {
        notes.push(format!(
            "accepted {} rejected {} dropped {}; expected {expected_accepted} accepted of {attempted}",
            report.accepted, report.rejected, report.dropped
        ));
        failed += report.accepted.abs_diff(expected_accepted).max(1);
    }
    if !report.clean_exit {
        notes.push("a child process exited unclean".into());
        failed = attempted;
    }
    if report.batch_wall.len() != runs * w.pool_batches {
        return Err(format!(
            "{} batch wall times for {} batches",
            report.batch_wall.len(),
            runs * w.pool_batches
        ));
    }
    let batch_walls = report.batch_wall[warm..].to_vec();
    // `prio-submit` does nothing between batches, so the window's wall time
    // is the sum of its batch times (reported in whole microseconds).
    let wall: f64 = batch_walls.iter().map(Duration::as_secs_f64).sum();
    // Verification-phase bytes (sampled node-side at the publish request)
    // over every batch of the run: per-batch traffic is constant, so this
    // equals the timed window's ratio exactly.
    let leader_tx = report.server_verify_bytes().first().copied().unwrap_or(0);
    Ok(Window {
        wall,
        batch_walls,
        cpu,
        leader_tx: (leader_tx, attempted),
        // Launch through the last warm-up batch — and, because everything
        // between `launch` and the report happens inside `run`, also the
        // pool encoding inside `prio-submit`, publish and teardown: all of
        // the repeat that is not the timed window.
        setup_s: total - wall,
        replays: vec![runs as u64; w.pool_batches],
        sigma: report.sigma,
        failed,
        notes,
    })
}

/// Fig. 5's client cost: per-call time of `Client::submit` on the
/// workload's spec, one thread, for about `budget` (200 calls at least).
/// Returns the median in microseconds.
pub fn client_encode<F, A>(afe: A, w: &Workload, seed: u64, budget: Duration) -> f64
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let mut rng = StdRng::seed_from_u64(seed ^ 0x636c_6965_6e74); // "client"
    let sampler = afe.clone();
    let mut client: Client<F, A> = Client::new(afe, ClientConfig::new(w.servers));
    let mut call = |rng: &mut StdRng| {
        let input = sampler.sample(w.afe, rng);
        let start = Instant::now();
        let submission = client
            .submit(&input, rng)
            .expect("sampled input is in the domain");
        let elapsed = start.elapsed();
        black_box(submission);
        elapsed.as_secs_f64() * 1e6
    };
    // NTT plans and allocator pools fill on the first calls.
    for _ in 0..32 {
        call(&mut rng);
    }
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 200 {
        samples.push(call(&mut rng));
    }
    median(&samples)
}

/// Mean upload size of the pool's submissions, in bytes (an exact count:
/// every submission of a spec has the same size).
pub fn upload_bytes_per_sub<F: FieldElement>(pool: &[ClientSubmission<F>]) -> f64 {
    pool.iter().map(|s| s.upload_bytes() as f64).sum::<f64>() / pool.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_workload_types;
    use crate::workload::{find, WORKLOADS};

    fn two_batches<F: FieldElement, A: BenchAfe<F>>(
        afe: A,
        w: &Workload,
        rule: &dyn Fn(usize) -> bool,
    ) -> RepeatResult {
        // Two timed batches; the twenty warm-up batches pass over the whole
        // pool as well and are checked the same way.
        let plan = RepeatPlan {
            seed: 7,
            timed_batches: 2,
            warmup_min: Duration::ZERO,
            encode_budget: Duration::ZERO,
            bin_dir: Path::new("."),
        };
        run_repeat::<F, A>(afe, w, &plan, rule).expect("in-process repeats cannot fail to launch")
    }

    #[test]
    fn every_in_process_workload_is_correct_on_a_short_run() {
        for w in WORKLOADS.iter().filter(|w| w.fabric != Fabric::Proc) {
            let r = with_workload_types!(w, two_batches(w, &tamper_rule));
            assert_eq!(r.failed, 0, "{}: {:?}", w.name, r.notes);
            assert_eq!(r.attempted, ((WARMUP_BATCHES + 2) * w.batch) as u64);
            assert!(r.throughput_sub_per_s > 0.0 && r.batch_latency_p50_ms > 0.0);
            assert!(r.batch_latency_p95_ms >= r.batch_latency_p50_ms);
            assert!(r.leader_tx_bytes_per_sub > 0.0 && r.setup_s > 0.0);
            assert!(r.client_encode_us_per_sub > 0.0 && r.upload_bytes_per_sub > 0.0);
            assert_eq!(RepeatResult::from_json(&r.to_json()).unwrap(), r);
        }
    }

    #[test]
    fn flipping_the_tamper_rule_fails_the_run() {
        let w = find("sum8_tcp_s3_b8").unwrap();
        let flipped = |j: usize| !tamper_rule(j);
        let r = with_workload_types!(w, two_batches(w, &flipped));
        assert!(r.failed > 0, "the oracle check is not live");
        assert!(!r.notes.is_empty());
    }

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = cpu_seconds();
        let start = Instant::now();
        let mut x = 1u64;
        while start.elapsed() < Duration::from_millis(60) {
            x = black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(cpu_seconds() - before >= 0.03);
    }
}
