//! The layer ladder: forty per-layer metrics of one workload, measured in a
//! traced run by timing calls into the program's public functions.
//!
//! Rungs, bottom up: field and PRG kernels → AFE encode and SNIP prove →
//! a hand-driven s-server replay of the batch protocol (one thread, spans
//! around every call) → `Cluster` (protocol only) → `Deployment` on sim and
//! on loopback TCP → `prio-node` processes. Adjacent rungs differ by one
//! named cause; what the named causes do not explain is reported as
//! `deployment.unattributed_us_per_batch` rather than hidden.
//!
//! Nothing here reads the program's own timers (`PhaseTimings`, phase
//! histograms, `prio_obs::trace`): they may be merged or removed, and the
//! ladder must read the same before and after.

use crate::e2e::{self, cpu_seconds, host_probe_ns, tamper_rule};
use crate::harness::{Env, PERTURBED_FACTOR};
use crate::oracle::{clamp_to_u64, mismatches, Oracle};
use crate::spans::{chrome_trace, Recorder, SpanRec};
use crate::stats::{median, percentile, sorted};
use crate::workload::{
    BenchAfe, Fabric, Workload, HOPS_PER_BATCH, LAYER_METRICS, PROC_WARMUP_RUNS, REFERENCE_SECONDS,
    WARMUP_BATCHES,
};
use prio_core::messages::{blob_from_bytes, blob_to_bytes, pack_decisions, ServerMsg};
use prio_core::{
    ClientSubmission, Cluster, Deployment, DeploymentConfig, Server, ServerConfig, ShareBlob,
};
use prio_crypto::prg::{expand_share, Seed};
use prio_field::ntt::NttPlan;
use prio_field::poly::LagrangeKernel;
use prio_field::FieldElement;
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_net::TransportKind;
use prio_proc::ProcDeployment;
use prio_snip::{
    decide, prove, verify_round1_batch, verify_round2_batch, Domain, HForm, ProveOptions,
    Round1Msg, Round2Msg, ServerState, SnipProofShare, VerifyMode,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(metric name, value)` rows of one ladder run, in `LAYER_METRICS` order.
pub type LayerRows = Vec<(String, f64)>;

/// Batches the hand-driven replay runs for a traced run of `seconds`.
pub fn replay_batches(w: &Workload, seconds: u64) -> usize {
    ((200 * seconds / REFERENCE_SECONDS) as usize).max(w.pool_batches)
}

/// Runs the ladder for `w` and writes `<out_dir>/<workload>.trace.json`.
/// Rows come back in `LAYER_METRICS` order, all forty or an error.
///
/// The ladder reads the host-speed probe between its rungs. If the
/// readings of one pass differ by more than the harness's threshold, a
/// neighbour slowed the host down part-way and the rungs are not
/// comparable with each other: the pass is repeated, twice at most.
pub fn run(w: &Workload, seed: u64, seconds: u64, env: &Env) -> Result<LayerRows, String> {
    const PASSES: usize = 3;
    for pass in 1..=PASSES {
        let (rows, probes) = crate::with_workload_types!(w, ladder(w, seed, seconds, env))?;
        let fastest = probes.iter().copied().fold(f64::INFINITY, f64::min);
        let slowest = probes.iter().copied().fold(0.0, f64::max);
        if slowest <= fastest * PERTURBED_FACTOR {
            return Ok(rows);
        }
        eprintln!(
            "benchmark: {}: host probe moved {fastest:.4} -> {slowest:.4} ns during ladder pass {pass} of {PASSES}",
            w.name
        );
        if pass == PASSES {
            eprintln!("benchmark: {}: reporting the last pass; its rungs were measured on a perturbed host", w.name);
            return Ok(rows);
        }
    }
    unreachable!("the last pass returns")
}

/// Median over chunks of the mean time of one iteration, in nanoseconds.
/// `body(n)` runs `n` iterations; chunks repeat until `budget` has passed
/// (five at least), so one preempted chunk does not move the result.
fn ns_per_iter(budget: Duration, chunk: usize, mut body: impl FnMut(usize)) -> f64 {
    body(chunk.div_ceil(4)); // caches, allocator pools, lazy tables
    let mut chunks = Vec::new();
    let start = Instant::now();
    while chunks.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        body(chunk);
        chunks.push(t.elapsed().as_nanos() as f64 / chunk as f64);
    }
    median(&chunks)
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The named rows of a ladder run.
struct Rows(BTreeMap<&'static str, f64>);

impl Rows {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "{name} is not a layer metric"
        );
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }

    fn finish(self) -> Result<LayerRows, String> {
        LAYER_METRICS
            .iter()
            .map(|(name, _)| match self.0.get(name) {
                Some(v) if v.is_finite() => Ok((name.to_string(), *v)),
                Some(v) => Err(format!("layer metric {name} is {v}")),
                None => Err(format!("layer metric {name} was not measured")),
            })
            .collect()
    }
}

/// One pass over the ladder: the rows, and the host probe read between rungs.
fn ladder<F, A>(
    afe: A,
    w: &Workload,
    seed: u64,
    seconds: u64,
    env: &Env,
) -> Result<(LayerRows, Vec<f64>), String>
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let scale = seconds as f64 / REFERENCE_SECONDS as f64;
    let budget = |ms: f64| Duration::from_secs_f64((ms * scale / 1e3).max(0.005));
    let mut rows = Rows(BTreeMap::new());
    let mut probes = vec![host_probe_ns()];
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c61_6464_6572); // "ladder"

    let pool = e2e::encode_pool::<F>(w, seed);
    let oracle = Oracle::build(afe.clone(), w, &pool, tamper_rule);
    if oracle.reference_mismatches > 0 {
        return Err(format!(
            "the Cluster reference disagrees with the tamper rule on {} pool submissions",
            oracle.reference_mismatches
        ));
    }
    let circuit = afe.valid_circuit();
    let mul_gates = circuit.num_mul_gates();
    let dom = Domain::for_mul_gates(mul_gates);
    let flat_len = match pool[0].blobs.last() {
        Some(ShareBlob::Explicit(v)) => v.len(),
        _ => return Err("the last server's blob is not explicit".into()),
    };

    // --- prio_field -------------------------------------------------------
    let y = F::random(&mut rng);
    let mut x = F::random(&mut rng);
    rows.set(
        "field.mul_ns",
        ns_per_iter(budget(60.0), 200_000, |n| {
            for _ in 0..n {
                x *= y; // dependent chain: latency, not throughput
            }
            black_box(x);
        }),
    );
    let n_h = dom.h_domain().max(2);
    let plan = NttPlan::<F>::get(n_h);
    let mut values: Vec<F> = (0..n_h).map(|_| F::random(&mut rng)).collect();
    let ntt_chunk = (65_536 / n_h).max(1);
    let fwd = ns_per_iter(budget(60.0), ntt_chunk, |n| {
        for _ in 0..n {
            plan.forward(black_box(&mut values));
        }
    });
    let inv = ns_per_iter(budget(60.0), ntt_chunk, |n| {
        for _ in 0..n {
            plan.inverse(black_box(&mut values));
        }
    });
    rows.set("field.ntt_fwd_ns_per_elem", fwd / n_h as f64);
    rows.set("field.ntt_inv_ns_per_elem", inv / n_h as f64);
    let r = F::random(&mut rng);
    rows.set(
        "field.lagrange_pair_us",
        ns_per_iter(budget(60.0), (16_384 / n_h).max(1), |n| {
            for _ in 0..n {
                black_box(LagrangeKernel::<F>::new_pair(
                    dom.n,
                    2 * dom.n,
                    black_box(r),
                ));
            }
        }) / 1e3,
    );

    // --- prio_crypto ------------------------------------------------------
    let prg_seed = Seed([0x5a; 32]);
    rows.set(
        "crypto.prg_expand_ns_per_elem",
        ns_per_iter(budget(60.0), (65_536 / flat_len).max(1), |n| {
            for label in 0..n as u64 {
                black_box(expand_share::<F>(black_box(&prg_seed), label, flat_len));
            }
        }) / flat_len as f64,
    );

    // --- prio_afe / prio_circuit, prio_snip::prove, prio_core::client -----
    let inputs: Vec<A::Input> = (0..256).map(|_| afe.sample(w.afe, &mut rng)).collect();
    let mut next = 0usize;
    let encode_ns = ns_per_iter(budget(60.0), (100_000 / flat_len).max(4), |n| {
        for _ in 0..n {
            next = (next + 1) % inputs.len();
            black_box(
                afe.encode(&inputs[next], &mut rng)
                    .expect("sampled input is in the domain"),
            );
        }
    });
    rows.set("afe.encode_us_per_sub", encode_ns / 1e3);
    rows.set("afe.mul_gates", mul_gates as f64);
    let encodings: Vec<Vec<F>> = inputs
        .iter()
        .take(64)
        .map(|input| {
            afe.encode(input, &mut rng)
                .expect("sampled input is in the domain")
        })
        .collect();
    let opts = ProveOptions {
        h_form: HForm::PointValue,
    };
    let prove_ns = ns_per_iter(budget(120.0), (20_000 / flat_len).max(2), |n| {
        for _ in 0..n {
            next = (next + 1) % encodings.len();
            black_box(prove(&circuit, &encodings[next], 1, opts, &mut rng));
        }
    });
    rows.set("snip.prove_us_per_sub", prove_ns / 1e3);
    let submit_us = e2e::client_encode::<F, A>(afe.clone(), w, seed, budget(400.0));
    rows.set(
        "client.share_us_per_sub",
        submit_us - (encode_ns + prove_ns) / 1e3,
    );

    // --- hand-driven replay: prio_core::server, prio_snip verify, wire ----
    probes.push(host_probe_ns());
    let mut rec = Recorder::new(true);
    let replay = replay::<F, A>(
        &afe,
        w,
        &pool,
        &oracle,
        replay_batches(w, seconds),
        &mut rec,
    )?;
    let s = w.servers as u32;
    let per_batch = group_by_batch(rec.spans(), replay.batches);
    let med = |f: &dyn Fn(&[&SpanRec]) -> f64| {
        median(&per_batch.iter().map(|b| f(b)).collect::<Vec<_>>())
    };
    let sum_of = |spans: &[&SpanRec], name: &str, lanes: std::ops::Range<u32>| -> f64 {
        spans
            .iter()
            .filter(|sp| sp.name == name && lanes.contains(&sp.lane))
            .map(|sp| sp.dur_ns() as f64)
            .sum()
    };
    let batch = w.batch as f64;
    let all = 0..s + 1;
    rows.set(
        "snip.context_us_per_batch",
        med(&|b| sum_of(b, "context", all.clone()) / s as f64) / 1e3,
    );
    rows.set(
        "snip.round1_us_per_sub",
        med(&|b| sum_of(b, "round1", all.clone()) / (batch * s as f64)) / 1e3,
    );
    rows.set(
        "snip.round2_us_per_sub",
        med(&|b| (sum_of(b, "round2", 0..1) + sum_of(b, "decide", all.clone())) / batch) / 1e3,
    );
    rows.set(
        "server.unpack_seed_us_per_sub",
        med(&|b| sum_of(b, "unpack", 0..s - 1) / (batch * (s - 1) as f64)) / 1e3,
    );
    rows.set(
        "server.unpack_explicit_us_per_sub",
        med(&|b| sum_of(b, "unpack", s - 1..s) / batch) / 1e3,
    );
    let accepted_per_batch = replay.accepted as f64 / replay.batches as f64;
    rows.set(
        "server.accumulate_ns_per_sub",
        med(&|b| sum_of(b, "accumulate", all.clone())) / (accepted_per_batch * s as f64),
    );
    let busy = |spans: &[&SpanRec], lane: u32| -> f64 {
        COMPUTE_SPANS
            .iter()
            .map(|name| sum_of(spans, name, lane..lane + 1))
            .sum()
    };
    rows.set(
        "server.busy_us_per_batch_max",
        med(&|b| (0..s).map(|lane| busy(b, lane)).fold(0.0, f64::max)) / 1e3,
    );
    rows.set(
        "server.busy_us_per_batch_sum",
        med(&|b| (0..s).map(|lane| busy(b, lane)).sum()) / 1e3,
    );
    rows.set(
        "wire.client_batch_bytes_explicit",
        replay.frame_bytes_explicit as f64,
    );
    rows.set(
        "wire.client_batch_bytes_seed",
        replay.frame_bytes_seed as f64,
    );
    let frame_bytes =
        (replay.frame_bytes_seed * (w.servers - 1) + replay.frame_bytes_explicit) as f64;
    rows.set(
        "wire.client_batch_encode_ns_per_byte",
        med(&|b| sum_of(b, "client_batch.encode", all.clone())) / frame_bytes,
    );
    rows.set(
        "wire.client_batch_decode_ns_per_byte",
        med(&|b| sum_of(b, "client_batch.decode", all.clone())) / frame_bytes,
    );
    rows.set(
        "wire.round_frames_codec_us_per_batch",
        med(&|b| sum_of(b, "round_frames.codec", all.clone())) / 1e3,
    );
    // The codec a batch cannot overlap with anything else: the driver
    // encodes the s ClientBatch frames one after another, the servers
    // decode theirs in parallel (the explicit one is the largest), and the
    // four round frames are each encoded and decoded in sequence.
    rows.set(
        "deployment.codec_us_per_batch",
        med(&|b| {
            sum_of(b, "client_batch.encode", all.clone())
                + (0..s)
                    .map(|l| sum_of(b, "client_batch.decode", l..l + 1))
                    .fold(0.0, f64::max)
                + sum_of(b, "round_frames.codec", all.clone())
        }) / 1e3,
    );

    // --- prio_net ---------------------------------------------------------
    probes.push(host_probe_ns());
    let own_kind = match w.fabric {
        Fabric::Sim => TransportKind::Sim,
        Fabric::Tcp | Fabric::Proc => TransportKind::Tcp,
    };
    let pings = (2000.0 * scale) as usize + 200;
    rows.set(
        "net.rtt_us_round_frame",
        fabric_probe_us(own_kind, &replay.round1_frame, pings, 100, true)?,
    );
    let sends =
        ((100.0 * scale) as usize + 20).min(64_000_000 / replay.frame_bytes_explicit.max(1) + 20);
    rows.set(
        "net.send_us_client_batch_frame",
        fabric_probe_us(own_kind, &replay.client_batch_frame, sends, 5, false)?,
    );

    // --- prio_core::cluster -----------------------------------------------
    rows.set(
        "cluster.batch_us",
        cluster_batch_us::<F, A>(&afe, w, &pool, &oracle, budget(800.0))?,
    );

    // --- prio_core::{driver, server_loop, deployment} ---------------------
    // The workload's own fabric also yields a CPU reading in 10 ms ticks,
    // so it gets a full timed window; the other fabric a quarter of one.
    let own_batches = w.timed_batches_for(seconds);
    let other_batches = (own_batches / 4).max(100);
    let mut next_batch_id = replay.batches as u64;
    let mut fabric = |kind: TransportKind| {
        let n = if kind == own_kind {
            own_batches
        } else {
            other_batches
        };
        let first_id = next_batch_id;
        next_batch_id += n as u64;
        fabric_run::<F, A>(&afe, w, kind, &pool, &oracle, n, &mut rec, first_id)
    };
    probes.push(host_probe_ns());
    let sim = fabric(TransportKind::Sim)?;
    probes.push(host_probe_ns());
    let tcp = fabric(TransportKind::Tcp)?;
    probes.push(host_probe_ns());
    let own = if own_kind == TransportKind::Sim {
        &sim
    } else {
        &tcp
    };
    rows.set("deployment.sim_batch_us", sim.batch_us);
    rows.set("deployment.tcp_batch_us", tcp.batch_us);
    rows.set("wire.frames_per_batch", own.frames_per_batch);
    rows.set("wire.bytes_per_batch", own.bytes_per_batch);
    let overhead = own.batch_us - rows.get("server.busy_us_per_batch_max");
    rows.set("deployment.overhead_us_per_batch", overhead);
    rows.set(
        "deployment.unattributed_us_per_batch",
        overhead
            - rows.get("deployment.codec_us_per_batch")
            - HOPS_PER_BATCH * rows.get("net.rtt_us_round_frame") / 2.0,
    );
    rows.set(
        "deployment.cpu_over_busy_ratio",
        own.cpu_us_per_sub * batch / rows.get("server.busy_us_per_batch_sum"),
    );
    rows.set("bench.trace_overhead_ratio", replay.traced_over_untraced);

    // --- prio_proc --------------------------------------------------------
    let timed_runs = (replay_batches(w, seconds) / 4)
        .div_ceil(w.pool_batches)
        .max(2);
    let proc = proc_run(w, seed, env, timed_runs, &oracle)?;
    rows.set("proc.launch_ms", proc.launch_ms);
    rows.set("proc.shutdown_ms", proc.shutdown_ms);
    rows.set("proc.batch_us", proc.batch_us);
    rows.set("proc.overhead_us_per_batch", proc.batch_us - tcp.batch_us);
    probes.push(host_probe_ns());

    // --- prio_obs ---------------------------------------------------------
    let registry = prio_obs::Registry::new();
    let counter = registry.counter("benchmark_probe_total", &[]);
    rows.set(
        "obs.counter_inc_ns",
        ns_per_iter(budget(40.0), 1_000_000, |n| {
            for _ in 0..n {
                black_box(&counter).inc();
            }
        }),
    );
    let histogram = registry.histogram("benchmark_probe_us", &[]);
    rows.set(
        "obs.span_ns",
        ns_per_iter(budget(40.0), 100_000, |n| {
            for _ in 0..n {
                black_box(prio_obs::Span::start(black_box(&histogram)).finish());
            }
        }),
    );

    let path = env.out_dir.join(format!("{}.trace.json", w.name));
    std::fs::create_dir_all(&env.out_dir)
        .and_then(|()| std::fs::write(&path, chrome_trace(w.name, rec.spans()).to_compact()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok((rows.finish()?, probes))
}

/// Span names that are a server's protocol compute (codec excluded).
const COMPUTE_SPANS: [&str; 7] = [
    "context",
    "unpack",
    "round1",
    "combine",
    "round2",
    "decide",
    "accumulate",
];

/// Spans of the first `batches` batch ids, grouped by batch, roots dropped.
/// Batches that ran with recording off have no spans and no group.
fn group_by_batch(spans: &[SpanRec], batches: usize) -> Vec<Vec<&SpanRec>> {
    let mut groups = vec![Vec::new(); batches];
    for span in spans.iter().filter(|s| s.parent.is_some()) {
        if let Some(group) = groups.get_mut(span.batch as usize) {
            group.push(span);
        }
    }
    groups.retain(|g| !g.is_empty());
    groups
}

struct Replay {
    batches: usize,
    accepted: u64,
    /// p50 batch time with the benchmark's spans recorded over p50 without.
    traced_over_untraced: f64,
    frame_bytes_seed: usize,
    frame_bytes_explicit: usize,
    /// One encoded non-leader `Round1` frame at the workload's batch size.
    round1_frame: Vec<u8>,
    /// One encoded explicit-share `ClientBatch` frame.
    client_batch_frame: Vec<u8>,
}

/// Drives `batches` batches through `s` servers by hand, in one thread, in
/// the order the server loop runs them: ClientBatch codec → `make_context`
/// → `unpack` → round 1 → leader combine → round 2 → `decide` →
/// `accumulate`, with a span around every call and a codec span for each
/// of the four round frames. Decisions and the final accumulators are
/// checked against the oracle.
///
/// Every second batch runs with recording off: the two halves' batch times
/// give the tracing overhead where the spans are. (The deployment rungs
/// carry one benchmark span per batch, ~0.1 µs against ≥ 250 µs, which
/// scheduler noise of a few percent hides completely.)
fn replay<F, A>(
    afe: &A,
    w: &Workload,
    pool: &[ClientSubmission<F>],
    oracle: &Oracle<F>,
    batches: usize,
    rec: &mut Recorder,
) -> Result<Replay, String>
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let s = w.servers;
    let driver_lane = s as u32;
    let mut servers: Vec<Server<F, A>> = (0..s)
        .map(|index| {
            Server::new(
                afe.clone(),
                ServerConfig {
                    index,
                    num_servers: s,
                    verify_mode: VerifyMode::FixedPoint,
                    h_form: HForm::PointValue,
                },
            )
        })
        .collect();
    let pool_batches: Vec<&[ClientSubmission<F>]> = pool.chunks(w.batch).collect();
    let mut replays = vec![0u64; pool_batches.len()];
    let mut batch_us: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut out = Replay {
        batches,
        accepted: 0,
        traced_over_untraced: 1.0,
        frame_bytes_seed: 0,
        frame_bytes_explicit: 0,
        round1_frame: Vec::new(),
        client_batch_frame: Vec::new(),
    };
    let codec =
        |rec: &mut Recorder, k: u64, lane: u32, msg: ServerMsg<F>| -> Result<Vec<u8>, String> {
            let span = rec.enter("round_frames.codec", k, lane);
            let bytes = to_traced_bytes(&msg, None);
            let decoded = from_traced_bytes::<ServerMsg<F>>(&bytes);
            rec.exit(span);
            decoded.map_err(|e| format!("round frame does not decode: {e}"))?;
            Ok(bytes)
        };

    for k in 0..batches {
        let b = k % pool_batches.len();
        let subs = pool_batches[b];
        let (id, ctx_seed) = (k as u64, k as u64 + 1);
        // Alternate, and swap phase on every pass over the pool so each
        // pool batch is run traced as often as untraced.
        let traced = (k + k / pool_batches.len()).is_multiple_of(2);
        rec.set_enabled(traced);
        let batch_start = Instant::now();
        let root = rec.enter("batch", id, driver_lane);

        let mut frames = Vec::with_capacity(s);
        for i in 0..s {
            let span = rec.enter("client_batch.encode", id, driver_lane);
            let msg: ServerMsg<F> = ServerMsg::ClientBatch {
                ctx_seed,
                labels: subs.iter().map(|sub| sub.prg_label).collect(),
                blobs: subs
                    .iter()
                    .map(|sub| blob_to_bytes(&sub.blobs[i]))
                    .collect(),
            };
            frames.push(to_traced_bytes(&msg, None));
            rec.exit(span);
        }

        let mut xs: Vec<Vec<Vec<F>>> = Vec::with_capacity(s);
        let mut states: Vec<Vec<ServerState<F>>> = Vec::with_capacity(s);
        let mut round1: Vec<Vec<Round1Msg<F>>> = Vec::with_capacity(s);
        for (i, server) in servers.iter().enumerate() {
            let lane = i as u32;
            let span = rec.enter("client_batch.decode", id, lane);
            let decoded = from_traced_bytes::<ServerMsg<F>>(&frames[i]);
            let Ok((ServerMsg::ClientBatch { labels, blobs, .. }, _)) = decoded else {
                return Err("ClientBatch frame does not decode".into());
            };
            let parsed: Vec<ShareBlob<F>> = blobs
                .iter()
                .map(|bytes| blob_from_bytes::<F>(bytes))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("share blob does not decode: {e}"))?;
            rec.exit(span);

            let span = rec.enter("context", id, lane);
            let ctx = server
                .make_context(ctx_seed)
                .map_err(|e| format!("make_context: {e:?}"))?;
            rec.exit(span);

            let span = rec.enter("unpack", id, lane);
            let unpacked: Vec<(Vec<F>, SnipProofShare<F>)> = parsed
                .iter()
                .zip(&labels)
                .map(|(blob, &label)| server.unpack(blob, label))
                .collect::<Result<_, _>>()
                .map_err(|e| format!("unpack: {e:?}"))?;
            rec.exit(span);

            let span = rec.enter("round1", id, lane);
            let items: Vec<(&[F], &SnipProofShare<F>)> = unpacked
                .iter()
                .map(|(x, proof)| (x.as_slice(), proof))
                .collect();
            let results = verify_round1_batch(&ctx, server.circuit(), &items, server.is_leader());
            rec.exit(span);
            let (st, r1): (Vec<_>, Vec<_>) = results
                .into_iter()
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("round 1: {e:?}"))?
                .into_iter()
                .unzip();
            states.push(st);
            round1.push(r1);
            xs.push(unpacked.into_iter().map(|(x, _)| x).collect());
        }

        let span = rec.enter("combine", id, 0);
        let combined: Vec<Round1Msg<F>> = (0..subs.len())
            .map(|j| Round1Msg {
                d: round1.iter().map(|v| v[j].d).sum(),
                e: round1.iter().map(|v| v[j].e).sum(),
            })
            .collect();
        rec.exit(span);
        let round1_frame = codec(
            rec,
            id,
            1,
            ServerMsg::Round1 {
                ctx: ctx_seed,
                msgs: round1.swap_remove(1),
            },
        )?;
        codec(
            rec,
            id,
            0,
            ServerMsg::Round1Combined {
                ctx: ctx_seed,
                msgs: combined.clone(),
            },
        )?;

        let mut round2: Vec<Vec<Round2Msg<F>>> = Vec::with_capacity(s);
        for (i, st) in states.iter().enumerate() {
            let span = rec.enter("round2", id, i as u32);
            round2.push(verify_round2_batch(st, &combined));
            rec.exit(span);
        }
        let span = rec.enter("decide", id, 0);
        let decisions: Vec<bool> = (0..subs.len())
            .map(|j| decide(&round2.iter().map(|v| v[j]).collect::<Vec<_>>()))
            .collect();
        rec.exit(span);
        codec(
            rec,
            id,
            1,
            ServerMsg::Round2 {
                ctx: ctx_seed,
                msgs: round2.swap_remove(1),
            },
        )?;
        codec(
            rec,
            id,
            0,
            ServerMsg::Decisions {
                ctx: ctx_seed,
                bits: pack_decisions(&decisions),
            },
        )?;

        for (i, server) in servers.iter_mut().enumerate() {
            let span = rec.enter("accumulate", id, i as u32);
            for (x, _) in xs[i].iter().zip(&decisions).filter(|(_, &accept)| accept) {
                server.accumulate(x);
            }
            rec.exit(span);
        }
        rec.exit(root);
        batch_us[usize::from(traced)].push(us(batch_start.elapsed()));

        let wrong = mismatches(&decisions, &oracle.decisions[b]);
        if wrong > 0 {
            return Err(format!(
                "replay batch {k}: {wrong} decisions differ from the oracle"
            ));
        }
        replays[b] += 1;
        out.accepted += decisions.iter().filter(|&&d| d).count() as u64;
        if k == 0 {
            out.frame_bytes_seed = frames[0].len();
            out.frame_bytes_explicit = frames[s - 1].len();
            out.round1_frame = round1_frame;
            out.client_batch_frame = frames.swap_remove(s - 1);
        }
    }

    rec.set_enabled(true);
    if !batch_us[0].is_empty() {
        let p50 = |v: &[f64]| percentile(&sorted(v.to_vec()), 50.0);
        out.traced_over_untraced = p50(&batch_us[1]) / p50(&batch_us[0]);
    }

    let mut sigma = vec![F::zero(); servers[0].accumulator().len()];
    for server in &servers {
        for (total, &share) in sigma.iter_mut().zip(server.accumulator()) {
            *total += share;
        }
    }
    if clamp_to_u64(&sigma) != oracle.expected_sigma(&replays) {
        return Err("replay aggregate differs from the scaled Cluster reference".into());
    }
    Ok(out)
}

/// Times `frame` crossing a fresh fabric of `kind` between two endpoints,
/// one thread each; median over `samples` sends after `warmup` untimed
/// ones, in microseconds. With `round_trip` the peer echoes every frame and
/// a sample is send + receive (a ping-pong); without, the peer only drains
/// and a sample is the `Endpoint::send` call alone.
fn fabric_probe_us(
    kind: TransportKind,
    frame: &[u8],
    samples: usize,
    warmup: usize,
    round_trip: bool,
) -> Result<f64, String> {
    let net = kind.build(None);
    let (a, b) = (net.endpoint(), net.endpoint());
    let b_id = b.id();
    let peer = std::thread::spawn(move || {
        // A one-byte frame is the stop signal; real frames are longer.
        while let Ok(env) = b.recv() {
            if env.payload.len() == 1 || (round_trip && b.send(env.src, env.payload).is_err()) {
                break;
            }
        }
    });
    let mut times = Vec::with_capacity(samples);
    let mut closed = false;
    for i in 0..warmup + samples {
        let payload = frame.to_vec();
        let t = Instant::now();
        if a.send(b_id, payload).is_err() || (round_trip && a.recv().is_err()) {
            closed = true;
            break;
        }
        if i >= warmup {
            times.push(us(t.elapsed()));
        }
    }
    let _ = a.send(b_id, vec![0]);
    peer.join().map_err(|_| "fabric probe peer panicked")?;
    if closed {
        return Err(format!("{} fabric probe: endpoint closed", kind.tag()));
    }
    Ok(median(&times))
}

/// `Cluster::process_batch` over the pool: the protocol with no I/O, no
/// codec and the servers run one after another. Median batch time, µs.
/// (`Cluster::new` derives one verification context per 1024 submissions,
/// not per batch; `snip.context_us_per_batch` is the difference.)
fn cluster_batch_us<F, A>(
    afe: &A,
    w: &Workload,
    pool: &[ClientSubmission<F>],
    oracle: &Oracle<F>,
    budget: Duration,
) -> Result<f64, String>
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let mut cluster = Cluster::new(afe.clone(), w.servers, VerifyMode::FixedPoint);
    let batches: Vec<&[ClientSubmission<F>]> = pool.chunks(w.batch).collect();
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut k = 0;
    while k < 2 * batches.len() || start.elapsed() < budget {
        let b = k % batches.len();
        let t = Instant::now();
        let decisions = cluster.process_batch(batches[b]);
        let elapsed = t.elapsed();
        if mismatches(&decisions, &oracle.decisions[b]) > 0 {
            return Err("Cluster decisions differ from the oracle".into());
        }
        // The first pass over the pool is warm-up.
        if k >= batches.len() {
            samples.push(us(elapsed));
        }
        k += 1;
    }
    Ok(median(&samples))
}

struct FabricRun {
    /// p50 of the program's own per-batch wall time (`batch_wall`).
    batch_us: f64,
    frames_per_batch: f64,
    bytes_per_batch: f64,
    cpu_us_per_sub: f64,
}

/// `batches` timed batches through a `Deployment` on `kind`, after the
/// usual twenty warm-up batches, with one benchmark span around every
/// `run_batch` call (batch ids from `first_id`).
#[allow(clippy::too_many_arguments)]
fn fabric_run<F, A>(
    afe: &A,
    w: &Workload,
    kind: TransportKind,
    pool: &[ClientSubmission<F>],
    oracle: &Oracle<F>,
    batches: usize,
    rec: &mut Recorder,
    first_id: u64,
) -> Result<FabricRun, String>
where
    F: FieldElement,
    A: BenchAfe<F>,
{
    let pool_batches: Vec<&[ClientSubmission<F>]> = pool.chunks(w.batch).collect();
    let cpu_start = cpu_seconds();
    let mut deployment: Deployment<F> = Deployment::start(
        afe.clone(),
        DeploymentConfig::new(w.servers).with_transport(kind),
    );
    let mut wrong = 0;
    for k in 0..WARMUP_BATCHES {
        let b = k % pool_batches.len();
        wrong += mismatches(&deployment.run_batch(pool_batches[b]), &oracle.decisions[b]);
    }
    let before = deployment.network().snapshot();
    for k in 0..batches {
        let b = (WARMUP_BATCHES + k) % pool_batches.len();
        let span = rec.enter(
            "deployment.run_batch",
            first_id + k as u64,
            w.servers as u32,
        );
        let decisions = deployment.run_batch(pool_batches[b]);
        rec.exit(span);
        wrong += mismatches(&decisions, &oracle.decisions[b]);
    }
    let traffic = deployment.network().snapshot().diff(&before);
    let walls = sorted(
        deployment.batch_wall()[WARMUP_BATCHES..]
            .iter()
            .map(|&d| us(d))
            .collect(),
    );
    let report = deployment.finish();
    let cpu = cpu_seconds() - cpu_start;
    if wrong > 0 || report.dropped > 0 {
        return Err(format!(
            "{} deployment: {wrong} wrong decisions, {} dropped submissions",
            kind.tag(),
            report.dropped
        ));
    }
    Ok(FabricRun {
        batch_us: percentile(&walls, 50.0),
        frames_per_batch: traffic.total_msgs() as f64 / batches as f64,
        bytes_per_batch: traffic.total_bytes() as f64 / batches as f64,
        cpu_us_per_sub: cpu * 1e6 / ((WARMUP_BATCHES + batches) * w.batch) as f64,
    })
}

struct ProcRun {
    launch_ms: f64,
    shutdown_ms: f64,
    batch_us: f64,
}

/// The process rung: two launch → shutdown cycles with no traffic (launch
/// and shutdown cost), then one launch → run of `timed_runs` passes over
/// the pool after the warm-up passes (p50 batch time).
fn proc_run<F: FieldElement>(
    w: &Workload,
    seed: u64,
    env: &Env,
    timed_runs: usize,
    oracle: &Oracle<F>,
) -> Result<ProcRun, String> {
    let runs = PROC_WARMUP_RUNS + timed_runs;
    let cfg = e2e::proc_config(w, seed, runs, &env.bin_dir);
    let fail = |e: prio_proc::ProcError| format!("process deployment failed: {e}");

    let mut launches = Vec::new();
    let mut shutdowns = Vec::new();
    for _ in 0..2 {
        let t = Instant::now();
        let deployment = ProcDeployment::launch(cfg.clone()).map_err(fail)?;
        launches.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let clean = deployment.shutdown_all().map_err(fail)?;
        shutdowns.push(t.elapsed().as_secs_f64() * 1e3);
        if !clean {
            return Err("a node exited unclean from an idle shutdown".into());
        }
    }
    let t = Instant::now();
    let deployment = ProcDeployment::launch(cfg).map_err(fail)?;
    launches.push(t.elapsed().as_secs_f64() * 1e3);
    let report = deployment.run().map_err(fail)?;
    let replays = vec![runs as u64; w.pool_batches];
    if !report.clean_exit || report.dropped > 0 || report.sigma != oracle.expected_sigma(&replays) {
        return Err("process deployment produced a wrong aggregate or exited unclean".into());
    }
    let warm = PROC_WARMUP_RUNS * w.pool_batches;
    let walls = sorted(
        report
            .batch_wall
            .iter()
            .skip(warm)
            .map(|&d| us(d))
            .collect(),
    );
    if walls.is_empty() {
        return Err("process deployment reported no timed batches".into());
    }
    Ok(ProcRun {
        launch_ms: median(&launches),
        shutdown_ms: median(&shutdowns),
        batch_us: percentile(&walls, 50.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;

    #[test]
    fn replay_agrees_with_the_oracle_and_accounts_for_every_server() {
        let w = find("sum8_tcp_s3_b8").unwrap();
        let afe = SumAfe::new(8);
        let pool = e2e::encode_pool::<Field64>(w, 3);
        let oracle = Oracle::build(afe.clone(), w, &pool, tamper_rule);
        let mut rec = Recorder::new(true);
        let batches = w.pool_batches + 3;
        let r = replay::<Field64, _>(&afe, w, &pool, &oracle, batches, &mut rec).unwrap();
        assert_eq!(r.batches, batches);
        assert!(r.frame_bytes_explicit > r.frame_bytes_seed && r.frame_bytes_seed > 0);
        let groups = group_by_batch(rec.spans(), batches);
        let traced = (0..batches)
            .filter(|k| (k + k / w.pool_batches).is_multiple_of(2))
            .count();
        assert_eq!(groups.len(), traced);
        for group in &groups {
            // Per server: decode, context, unpack, round1, round2,
            // accumulate; plus s encodes, combine, decide, 4 round frames.
            assert_eq!(group.len(), 6 * w.servers + w.servers + 2 + 4);
        }
        let roots = rec.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, groups.len());
        assert!(r.traced_over_untraced > 0.5 && r.traced_over_untraced < 2.0);

        // A flipped rule must make the replay fail: its check is live too.
        let flipped = Oracle::build(afe.clone(), w, &pool, |j| !tamper_rule(j));
        assert!(
            replay::<Field64, _>(&afe, w, &pool, &flipped, 2, &mut Recorder::new(false)).is_err()
        );
    }

    #[test]
    fn fabric_probes_measure_something() {
        let frame = vec![7u8; 300];
        for kind in [TransportKind::Sim, TransportKind::Tcp] {
            assert!(fabric_probe_us(kind, &frame, 50, 10, true).unwrap() > 0.0);
            assert!(fabric_probe_us(kind, &frame, 20, 2, false).unwrap() > 0.0);
        }
        let mut calls = 0;
        let ns = ns_per_iter(Duration::from_millis(5), 1000, |n| {
            calls += n;
            black_box((0..n).sum::<usize>());
        });
        assert!(ns >= 0.0 && calls >= 5 * 1000);
    }
}
