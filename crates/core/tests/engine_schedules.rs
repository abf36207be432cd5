//! Schedule exploration over the sans-I/O batch engine: `s` engines in
//! one thread, every in-flight message in one pool, and a seeded
//! scheduler that picks what is delivered next — reordering across
//! senders, duplicating frames, and injecting frames from a stale batch,
//! from the wrong source, and of the wrong length. Whatever the schedule,
//! decisions, accumulators and accept/reject counts must equal the
//! per-submission `Cluster::process` reference, and every duplicate or
//! foreign frame must be refused by `wants` (or `on_msg`) rather than
//! consumed.
//!
//! Schedules come from ChaCha20 `PrgRng` streams keyed on the schedule
//! seed — not the test-grade `rand` shim: a cheap generator's hidden
//! correlations would quietly shrink the schedule space explored. A
//! failure prints its `(s, seed)` so it replays alone.

use prio_afe::sum::SumAfe;
use prio_core::engine::{recipients, BatchEngine, EngineError};
use prio_core::messages::ServerMsg;
use prio_core::phase::PhaseClock;
use prio_core::{Client, ClientConfig, ClientSubmission, Cluster, Server, ServerConfig, ShareBlob};
use prio_crypto::prg::PrgRng;
use prio_field::{Field64, FieldElement};
use prio_obs::Registry;
use prio_snip::{HForm, VerifyMode};
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

const BITS: u32 = 6;
/// "PRIO sch": keeps the scheduler's stream apart from every protocol one.
const SCHEDULE_LABEL: u64 = 0x5052_494f_2073_6368;
const SCHEDULES_PER_S: u64 = 340;
const CTX_SEED: u64 = 77;

/// Honest submissions plus the three ways a submission goes wrong: a
/// ballot-stuffed share, a corrupted proof, and a structurally malformed
/// blob (which one server cannot even unpack).
fn submission_pool(s: usize) -> Vec<ClientSubmission<Field64>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(s as u64);
    let mut client: Client<Field64, _> = Client::new(SumAfe::new(BITS), ClientConfig::new(s));
    let mut pool: Vec<_> = (0..8u64)
        .map(|v| {
            client
                .submit(&(v * 7 % 64), &mut rng)
                .expect("honest input")
        })
        .collect();
    if let ShareBlob::Explicit(v) = &mut pool[5].blobs[s - 1] {
        v[0] += Field64::from_u64(999);
    }
    if let ShareBlob::Explicit(v) = &mut pool[6].blobs[s - 1] {
        let last = v.len() - 1;
        v[last] += Field64::one();
    }
    pool[7].blobs[s - 1] = ShareBlob::Explicit(vec![Field64::zero(); 3]);
    pool
}

fn servers(s: usize) -> Vec<Server<Field64, SumAfe>> {
    (0..s)
        .map(|index| {
            Server::new(
                SumAfe::new(BITS),
                ServerConfig {
                    index,
                    num_servers: s,
                    verify_mode: VerifyMode::FixedPoint,
                    h_form: HForm::PointValue,
                },
            )
        })
        .collect()
}

/// One message on the wire to one recipient. Both copies of a duplicated
/// frame share an `id`: whichever arrives second must be refused.
struct InFlight {
    id: usize,
    from: usize,
    to: usize,
    msg: ServerMsg<Field64>,
}

struct Sim {
    engines: Vec<BatchEngine<Field64>>,
    clock: PhaseClock,
    pool: Vec<InFlight>,
    next_id: usize,
    /// Frame ids each engine has consumed.
    consumed: Vec<Vec<usize>>,
    refused: u64,
}

impl Sim {
    fn post(&mut self, from: usize, msg: Option<ServerMsg<Field64>>, rng: &mut PrgRng) {
        let Some(msg) = msg else { return };
        for to in recipients(from, self.engines.len()) {
            let id = self.next_id;
            self.next_id += 1;
            // One frame in five is duplicated in flight.
            for _ in 0..if rng.random_range(0..5u32) == 0 { 2 } else { 1 } {
                self.pool.push(InFlight {
                    id,
                    from,
                    to,
                    msg: msg.clone(),
                });
            }
        }
    }

    /// Asserts the engine refuses `msg` at both doors and is unmoved.
    fn assert_refused(&mut self, to: usize, from: usize, msg: ServerMsg<Field64>, why: &str) {
        let before = self.engines[to].waiting_for();
        assert!(
            !self.engines[to].wants(from, &msg),
            "{why}: wanted by engine {to}"
        );
        assert_eq!(
            self.engines[to].on_msg(from, msg, &self.clock).err(),
            Some(EngineError::Unwanted),
            "{why}: consumed by engine {to}"
        );
        assert_eq!(
            self.engines[to].waiting_for(),
            before,
            "{why}: moved engine {to}"
        );
        self.refused += 1;
    }

    fn deliver(&mut self, frame: InFlight, rng: &mut PrgRng) {
        let InFlight { id, from, to, msg } = frame;
        if self.consumed[to].contains(&id) {
            return self.assert_refused(to, from, msg, "duplicate frame");
        }
        assert!(
            self.engines[to].wants(from, &msg),
            "engine {to} refuses a fresh {msg:?} from {from}"
        );
        // Noise first, so it meets the engine in the very state the
        // genuine frame is about to be consumed in.
        match rng.random_range(0..6u32) {
            0 => self.assert_refused(to, from, with_ctx(&msg, CTX_SEED - 1), "stale-ctx frame"),
            1 => {
                // Right frame, wrong mouth: a follower's word where only
                // the leader's counts, or the leader's own id in a gather.
                let liar = if from == 0 { to.max(1) } else { 0 };
                self.assert_refused(to, liar, msg.clone(), "wrong-source frame");
            }
            2 => {
                // Wanted by kind, ctx and source — refused for its length,
                // and the sender must still be pending afterwards.
                let err = self.engines[to]
                    .on_msg(from, one_longer(&msg), &self.clock)
                    .err();
                assert!(
                    matches!(err, Some(EngineError::BadLength { .. })),
                    "wrong-length frame not refused: {err:?}"
                );
                assert!(
                    self.engines[to].wants(from, &msg),
                    "forgery displaced the genuine frame"
                );
                self.refused += 1;
            }
            _ => {}
        }
        self.consumed[to].push(id);
        let released = self.engines[to]
            .on_msg(from, msg, &self.clock)
            .expect("a wanted, well-formed frame is consumed");
        self.post(to, released, rng);
    }
}

fn with_ctx(msg: &ServerMsg<Field64>, new_ctx: u64) -> ServerMsg<Field64> {
    let mut msg = msg.clone();
    match &mut msg {
        ServerMsg::Round1 { ctx, .. }
        | ServerMsg::Round1Combined { ctx, .. }
        | ServerMsg::Round2 { ctx, .. }
        | ServerMsg::Decisions { ctx, .. } => *ctx = new_ctx,
        other => panic!("not a round message: {other:?}"),
    }
    msg
}

fn one_longer(msg: &ServerMsg<Field64>) -> ServerMsg<Field64> {
    let mut msg = msg.clone();
    match &mut msg {
        ServerMsg::Round1 { msgs, .. } | ServerMsg::Round1Combined { msgs, .. } => {
            msgs.push(prio_snip::Round1Msg {
                d: Field64::zero(),
                e: Field64::zero(),
            })
        }
        ServerMsg::Round2 { msgs, .. } => msgs.push(prio_snip::Round2Msg {
            sigma: Field64::zero(),
            out: Field64::zero(),
        }),
        ServerMsg::Decisions { bits, .. } => bits.push(0xFF),
        other => panic!("not a round message: {other:?}"),
    }
    msg
}

/// Runs one seeded schedule; returns how many frames were refused.
fn run_schedule(s: usize, seed: u64, pool: &[ClientSubmission<Field64>]) -> u64 {
    let mut rng = PrgRng::from_u64_seed(seed, SCHEDULE_LABEL);
    // The batch: 1–6 draws from the pool, bad submissions included at
    // whatever positions the seed says.
    let batch: Vec<&ClientSubmission<Field64>> = (0..rng.random_range(1..7usize))
        .map(|_| &pool[rng.random_range(0..pool.len())])
        .collect();

    let mut reference: Cluster<Field64, _> =
        Cluster::new(SumAfe::new(BITS), s, VerifyMode::FixedPoint);
    let expect: Vec<bool> = batch.iter().map(|sub| reference.process(sub)).collect();

    let mut servers = servers(s);
    let ctx = servers[0].make_context(CTX_SEED).expect("valid config");
    let mut sim = Sim {
        engines: Vec::new(),
        clock: PhaseClock::new(&Registry::new(), None, 0),
        pool: Vec::new(),
        next_id: 0,
        consumed: vec![Vec::new(); s],
        refused: 0,
    };
    let mut first = Vec::new();
    for (i, server) in servers.iter().enumerate() {
        let shares = batch
            .iter()
            .map(|sub| server.unpack(&sub.blobs[i], sub.prg_label).ok())
            .collect();
        let (engine, out) = server.begin_batch(&ctx, CTX_SEED, shares, 1, &sim.clock, 0);
        sim.engines.push(engine);
        first.push(out);
    }
    for (i, out) in first.into_iter().enumerate() {
        sim.post(i, out, &mut rng);
    }
    // The scheduler: any in-flight frame may be next.
    while !sim.pool.is_empty() {
        let pick = rng.random_range(0..sim.pool.len());
        let frame = sim.pool.swap_remove(pick);
        sim.deliver(frame, &mut rng);
    }

    let mut sigma = vec![Field64::zero(); servers[0].accumulator().len()];
    for (i, (engine, server)) in sim.engines.into_iter().zip(&mut servers).enumerate() {
        assert!(engine.decided(), "engine {i} never decided");
        let (decisions, counts) = engine.commit(server);
        assert_eq!(
            decisions, expect,
            "engine {i} decisions diverge from Cluster::process"
        );
        assert_eq!(counts.accepted, reference.accepted(), "engine {i} accepted");
        assert_eq!(
            counts.rejected_verify + counts.rejected_malformed,
            reference.rejected(),
            "engine {i} rejected"
        );
        assert_eq!(
            (server.accepted(), server.rejected()),
            (reference.accepted(), reference.rejected())
        );
        for (acc, &v) in sigma.iter_mut().zip(server.accumulator()) {
            *acc += v;
        }
    }
    assert_eq!(
        sigma,
        reference.aggregate(),
        "accumulators diverge from Cluster::process"
    );
    sim.refused
}

#[test]
fn every_schedule_agrees_with_the_per_submission_reference() {
    let started = std::time::Instant::now();
    let (mut schedules, mut refused) = (0u64, 0u64);
    for s in [2usize, 3, 5] {
        let pool = submission_pool(s);
        for seed in 0..SCHEDULES_PER_S {
            match catch_unwind(AssertUnwindSafe(|| run_schedule(s, seed, &pool))) {
                Ok(n) => refused += n,
                Err(panic) => {
                    eprintln!("engine_schedules: FAILING SCHEDULE s={s} seed={seed}");
                    resume_unwind(panic);
                }
            }
            schedules += 1;
        }
    }
    assert!(schedules >= 1000);
    // The noise must actually have been exercised, not just permitted.
    assert!(
        refused >= schedules,
        "only {refused} refusals over {schedules} schedules"
    );
    eprintln!(
        "engine_schedules: {schedules} schedules, {refused} frames refused, {:?}",
        started.elapsed()
    );
}
