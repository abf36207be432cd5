//! The transport-agnostic server event loop: the I/O half of a deployed
//! server.
//!
//! The protocol itself lives in the sans-I/O [`BatchEngine`]; this loop
//! is frame in → [`BatchEngine::on_msg`] → frames out, and owns only what
//! is genuinely I/O: receiving and decoding frames, stashing the ones
//! that arrive ahead of their phase, gather deadlines and batch
//! abandonment, send retry, duplicate-batch dedup, and the
//! [`FramePolicy`] for garbage. The in-process threaded
//! [`Deployment`](crate::Deployment) runs it on `s` threads over one
//! shared fabric, and the `prio-node` binary of the multi-process
//! `prio_proc` subsystem runs the *same function* over a per-process
//! [`TcpTransport`](prio_net::TcpTransport) whose peers were registered
//! through the control plane.
//!
//! The loop owns nothing: it borrows the [`Server`] (so the caller can
//! read accumulators and counters afterwards) and the [`Endpoint`], and
//! returns a [`ServerLoopReport`] with per-phase timings and the
//! verification-phase byte count (sampled when the publish request
//! arrives — the Figure-6 quantity).

use crate::engine::{recipients, BatchEngine};
use crate::messages::{blob_from_bytes, ServerMsg};
use crate::phase::{Phase, PhaseClock, PhaseTimings};
use crate::server::Server;
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_net::{Endpoint, NodeId, RecvTimeoutError, RetryPolicy};
use prio_obs::trace::{SpanKind, TraceRecorder};
use prio_obs::{names, Obs, TraceCtx};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Event target for everything this module narrates.
const TARGET: &str = "core::server_loop";

/// The loop's metric handles, resolved once per [`run_server_loop`] call so
/// the per-frame paths touch only pre-registered atomics, and the
/// (rate-limited) event hub.
struct LoopMetrics {
    /// Indexed by `Dropped as usize`.
    dropped: [prio_obs::Counter; 5],
    accepted: prio_obs::Counter,
    rejected_malformed: prio_obs::Counter,
    rejected_verify: prio_obs::Counter,
    deduped: prio_obs::Counter,
    batches_abandoned: prio_obs::Counter,
    batch_size: prio_obs::Histogram,
    stash_depth: prio_obs::Gauge,
    events: prio_obs::Events,
}

impl LoopMetrics {
    fn resolve(obs: &Obs) -> LoopMetrics {
        let reg = obs.registry();
        LoopMetrics {
            dropped: DROPPED.map(|(reason, _)| reg.counter(names::SERVER_FRAMES_DROPPED, reason)),
            accepted: reg.counter(names::SERVER_SUBMISSIONS_ACCEPTED, &[]),
            rejected_malformed: reg.counter(
                names::SERVER_SUBMISSIONS_REJECTED,
                &[("reason", "malformed")],
            ),
            rejected_verify: reg
                .counter(names::SERVER_SUBMISSIONS_REJECTED, &[("reason", "verify")]),
            deduped: reg.counter(names::SERVER_FRAMES_DEDUPED, &[]),
            batches_abandoned: reg.counter(names::SERVER_BATCHES_ABANDONED, &[]),
            batch_size: reg.histogram(names::SERVER_BATCH_SIZE, &[]),
            stash_depth: reg.gauge(names::SERVER_STASH_DEPTH, &[]),
            events: obs.events().clone(),
        }
    }
}

/// Why a frame was discarded.
#[derive(Copy, Clone)]
enum Dropped {
    UnknownSender,
    Undecodable,
    StashOverflow,
    UnexpectedKind,
    BadLength,
}

/// Per [`Dropped`], in declaration order: its `server_frames_dropped_total`
/// labels and its event.
const DROPPED: [(&[(&str, &str)], &str); 5] = [
    (
        &[("reason", "unknown_sender")],
        "frame_dropped_unknown_sender",
    ),
    (&[("reason", "undecodable")], "frame_dropped_undecodable"),
    (
        &[("reason", "stash_overflow")],
        "frame_dropped_stash_overflow",
    ),
    (
        &[("reason", "unexpected_kind")],
        "frame_dropped_unexpected_kind",
    ),
    (&[("reason", "bad_length")], "frame_dropped_bad_length"),
];

/// What the loop does with a frame it cannot decode, whose sender is not
/// part of the deployment, or whose round vector has the wrong length.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum FramePolicy {
    /// Panic (undecodable) or stop the loop (wrong length). Right for
    /// in-process deployments, where every sender is trusted protocol code
    /// and a bad message is a bug that should fail loudly instead of
    /// becoming an undiagnosable hang.
    Strict,
    /// Count the drop and emit a rate-limited warn event. Right for a
    /// network-facing `prio-node` process: anyone can connect to its data
    /// socket, and a garbage frame from a stranger must not crash
    /// verification for everyone else — nor flood stderr: every drop lands
    /// in `server_frames_dropped_total{reason=...}`, and only a trickle of
    /// warn events narrates it. The out-of-phase stash is also bounded in
    /// this mode so a frame flood cannot grow node memory without limit.
    ///
    /// Known limitation: the frame header's sender id is *not
    /// authenticated* — a local attacker who forges a known peer's id and
    /// a well-formed, right-length message can still disturb a batch
    /// (availability, not privacy: shares remain secret and tampered
    /// submissions are still rejected by the SNIP); a wrong-length one is
    /// dropped like any other garbage. Binding sender identity
    /// cryptographically (e.g. `prio_crypto::sealed` channels per link) is
    /// tracked in the ROADMAP.
    Lenient,
}

/// Options for one run of the server loop.
#[derive(Clone, Debug)]
pub struct ServerLoopOptions {
    /// Worker threads for batched round-1 verification (1 = inline).
    pub verify_threads: usize,
    /// Undecodable-frame handling.
    pub frame_policy: FramePolicy,
    /// Where the loop counts and narrates. Defaults to the process-wide
    /// bundle; tests pin [`Obs::new`] with a fresh registry and a capture
    /// sink to assert on exactly what one loop did.
    pub obs: Obs,
    /// Deadline on every mid-batch gather (round 1/2 vectors, the
    /// combined vector, decisions). `None` waits forever — correct on a
    /// perfect fabric, where a missing message means a peer bug that
    /// should hang visibly. Under fault injection (or any real WAN
    /// deployment) a deadline lets the loop *abandon* a wedged batch —
    /// no server accumulates it, so cross-server aggregate consistency
    /// holds on the batches that do complete — instead of stalling the
    /// whole deployment on one lost frame.
    pub batch_deadline: Option<std::time::Duration>,
    /// Retry policy for the loop's data-plane sends. Defaults to
    /// [`RetryPolicy::none`]: on a perfect fabric a failed send means
    /// the deployment is tearing down. Chaos deployments install a real
    /// policy so an injected drop ([`prio_net::SendError::Closed`]) is
    /// retransmitted instead of killing the loop.
    pub retry: RetryPolicy,
    /// Deadline on the *idle* receive between batches. `None` (the
    /// default) waits forever, which is right on a perfect fabric: the
    /// driver's `Shutdown` frame always arrives, so the loop never needs
    /// a timer to exit. Under fault injection that frame can be
    /// permanently dropped, and a server blocked in its idle receive
    /// would wedge the deployment's teardown join — so chaos deployments
    /// set a bound comfortably above the driver's worst inter-batch gap
    /// and treat its expiry as an orderly exit.
    pub idle_deadline: Option<std::time::Duration>,
    /// Span recorder for distributed per-batch tracing. `None` (the
    /// default) records nothing and keeps every data-plane frame
    /// byte-identical to the untraced encoding; with a recorder, the
    /// loop records unpack/round1/round2/publish/gather-wait spans and
    /// stamps outgoing protocol frames with a `TraceCtx` suffix so
    /// peers can parent their waits on the spans that fed them.
    pub trace: Option<Arc<TraceRecorder>>,
}

impl Default for ServerLoopOptions {
    fn default() -> Self {
        ServerLoopOptions {
            verify_threads: 1,
            frame_policy: FramePolicy::Strict,
            obs: Obs::global(),
            batch_deadline: None,
            retry: RetryPolicy::none(),
            idle_deadline: None,
            trace: None,
        }
    }
}

/// What one server-loop run observed, for the caller's report.
#[derive(Copy, Clone, Debug, Default)]
pub struct ServerLoopReport {
    /// Whether the loop exited through an orderly [`ServerMsg::Shutdown`]
    /// (`false` means the fabric closed under it).
    pub clean: bool,
    /// This endpoint's sent-byte counter when the publish request arrived —
    /// the verification-phase traffic, before the accumulator reveal.
    /// Zero if no publish request was seen.
    pub verify_bytes_sent: u64,
    /// Frames this loop discarded (unknown sender, undecodable, stash
    /// overflow, unexpected kind, wrong-length round vector). Counted
    /// locally per loop run — the registry's `server_frames_dropped_total`
    /// aggregates across every loop in the process, which is the wrong
    /// denominator for a per-node report when several servers share one
    /// process.
    pub frames_dropped: u64,
    /// Duplicate `ClientBatch` frames the idempotent-ingest seen-set
    /// discarded (a duplicated upload must not double-count).
    pub frames_deduped: u64,
    /// Batches abandoned because a mid-batch gather deadline expired.
    pub batches_abandoned: u64,
    /// Wall-clock spent in each verification phase.
    pub timings: PhaseTimings,
}

/// Ceiling on stashed out-of-phase messages under [`FramePolicy::Lenient`]:
/// an honest deployment stashes at most a handful of messages per batch, so
/// anything past this is an injection flood and gets dropped instead of
/// growing node memory without bound. Strict (in-process) deployments keep
/// the unbounded stash — every sender there is trusted protocol code.
const MAX_LENIENT_STASH: usize = 4096;

/// Ceiling on the idempotent-ingest seen-set: remembers the last this many
/// batch context seeds. A duplicated frame arrives promptly (fault
/// injection or a lower-layer retransmit), so a window thousands of
/// batches deep is far beyond any realistic duplication horizon.
const MAX_SEEN_BATCHES: usize = 4096;

/// A received message with its sender and the trace context its frame
/// carried.
type Received<F> = (NodeId, ServerMsg<F>, Option<TraceCtx>);

/// The loop must end: fabric closed, a send failed for good, or (Strict)
/// a peer broke the protocol. Narrated where it happens.
struct Exit;

/// What one run of the loop holds besides the [`Server`].
struct Io<'a, F: FieldElement> {
    ep: &'a Endpoint,
    /// The server set in index order (`ids[0]` is the leader).
    ids: &'a [NodeId],
    /// This server's index in `ids` (and its node id in traces).
    me: usize,
    driver: NodeId,
    opts: &'a ServerLoopOptions,
    metrics: LoopMetrics,
    clock: PhaseClock,
    /// `None` on untraced runs, which keeps every frame byte-identical to
    /// the untraced encoding.
    trace: Option<&'a TraceRecorder>,
    /// Valid messages that arrived ahead of their phase.
    stash: VecDeque<Received<F>>,
    report: ServerLoopReport,
}

impl<F: FieldElement> Io<'_, F> {
    /// Receives the next message matching `want`, stashing any other valid
    /// message for a later phase; an optional `deadline` bounds the wait.
    ///
    /// The sim fabric funnels every sender into one queue, so messages
    /// arrive in global send order — but over TCP each sender has its own
    /// connection and there is no cross-sender ordering: the driver's
    /// `PublishRequest` or next `ClientBatch` can overtake the leader's
    /// `Decisions`, and a non-leader's `Round1` can overtake the driver's
    /// `ClientBatch` at the leader. The stash makes the server loop
    /// transport-agnostic: a message for a later phase waits its turn
    /// instead of tripping a protocol panic.
    ///
    /// Under [`FramePolicy::Lenient`], frames from senders outside the
    /// deployment and frames that fail to decode are counted in
    /// `server_frames_dropped_total{reason=...}` (and tallied for the
    /// loop's report), narrated through rate-limited warn events, and
    /// dropped — the node-process hardening path. A garbage-frame flood
    /// moves counters, not stderr.
    /// Stash entries carry the sender: `want` is *source-aware*, so a
    /// fault-duplicated round vector from one peer can never be
    /// misattributed as another peer's contribution.
    fn recv(
        &mut self,
        deadline: Option<Instant>,
        want: impl Fn(NodeId, &ServerMsg<F>) -> bool,
    ) -> Result<Received<F>, RecvTimeoutError> {
        if let Some(pos) = self.stash.iter().position(|(src, m, _)| want(*src, m)) {
            if let Some(found) = self.stash.remove(pos) {
                self.metrics.stash_depth.set(self.stash.len() as i64);
                return Ok(found);
            }
        }
        loop {
            let env = match deadline {
                None => self.ep.recv().map_err(|_| RecvTimeoutError::Closed)?,
                Some(deadline) => {
                    // Checked before every receive, so a frame flood that
                    // keeps the mailbox non-empty cannot outlast it.
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    self.ep.recv_timeout(left)?
                }
            };
            let known = env.src == self.driver || self.ids.contains(&env.src);
            if self.opts.frame_policy == FramePolicy::Lenient && !known {
                self.drop_frame(
                    Dropped::UnknownSender,
                    format!(
                        "dropping frame from unknown sender {:?} ({} bytes)",
                        env.src,
                        env.payload.len()
                    ),
                );
                continue;
            }
            let (msg, ctx) = match from_traced_bytes::<ServerMsg<F>>(&env.payload) {
                Ok(pair) => pair,
                // An undecodable payload from a deployment member is a protocol
                // violation, not noise: honest peers never produce one, and in
                // an in-process deployment silently dropping it would turn a
                // missing gather message into an undiagnosable hang — fail
                // loudly there. A network-facing node drops it instead (the
                // sender id is trivially forgeable, so even a "known" source
                // may be a stranger) and keeps serving.
                Err(e) => match self.opts.frame_policy {
                    // lint:allow(no-panic, Strict is the in-process mode where every sender is trusted protocol code; a bad frame is a local bug that must fail loudly)
                    FramePolicy::Strict => panic!("undecodable message from {:?}: {e}", env.src),
                    FramePolicy::Lenient => {
                        self.drop_frame(
                            Dropped::Undecodable,
                            format!("rejecting undecodable frame from {:?}: {e}", env.src),
                        );
                        continue;
                    }
                },
            };
            if want(env.src, &msg) {
                return Ok((env.src, msg, ctx));
            }
            if self.opts.frame_policy == FramePolicy::Lenient
                && self.stash.len() >= MAX_LENIENT_STASH
            {
                self.drop_frame(
                    Dropped::StashOverflow,
                    format!(
                        "stash full ({MAX_LENIENT_STASH}); dropping out-of-phase {} message",
                        msg_kind(&msg)
                    ),
                );
                continue;
            }
            self.stash.push_back((env.src, msg, ctx));
            self.metrics.stash_depth.set(self.stash.len() as i64);
        }
    }

    /// Counts one discarded frame and narrates it (rate-limited).
    fn drop_frame(&mut self, why: Dropped, detail: String) {
        self.metrics.dropped[why as usize].inc();
        self.report.frames_dropped += 1;
        self.metrics
            .events
            .warn(TARGET, DROPPED[why as usize].1, detail);
    }

    /// Sends `msg` to each of `to` under the retry policy.
    fn send(&self, to: &[NodeId], msg: &ServerMsg<F>, tctx: Option<TraceCtx>) -> Result<(), Exit> {
        let bytes = to_traced_bytes(msg, tctx);
        for &dst in to {
            self.opts
                .retry
                .run(msg_kind(msg), || self.ep.send(dst, bytes.clone()))
                .map_err(|_| Exit)?;
        }
        Ok(())
    }

    /// Discards every round message left in the stash at a batch boundary.
    /// Round frames are bound to their batch by `ctx`, so a stale one can
    /// never be *consumed* by a later gather; this clear is what keeps
    /// them from *accumulating* — a fault-duplicated or late vector of a
    /// finished or abandoned batch would otherwise sit in the stash for
    /// the life of the loop, growing memory and every receive's scan. It
    /// cannot discard live traffic: a server runs one batch at a time and
    /// the driver paces batches on the previous batch's decisions (or its
    /// deadline), so at a boundary every stashed round frame is stale.
    fn clear_round_stash(&mut self) {
        self.stash.retain(|(_, m, _)| enters_phase(m));
        self.metrics.stash_depth.set(self.stash.len() as i64);
    }

    /// Drives one batch's engine until it has decided: send what it emits,
    /// feed it the frames it wants. `Ok(false)` means a gather deadline
    /// expired and the batch is abandoned (never accumulated) while the
    /// loop keeps serving. Every server abandons symmetrically — the
    /// leader never sent `Decisions`, so followers time out too — which
    /// is what keeps the accepted-subset aggregates bit-identical across
    /// servers.
    fn drive(
        &mut self,
        engine: &mut BatchEngine<F>,
        mut outgoing: Option<ServerMsg<F>>,
        ctx_seed: u64,
        deadline: Option<Instant>,
    ) -> Result<bool, Exit> {
        let (ids, me, trace) = (self.ids, self.me, self.trace);
        let index_of = |src: NodeId| ids.iter().position(|&id| id == src);
        // What caused `outgoing`: a follower's messages come out of its
        // compute spans, the leader's (combine, decide) out of the gather
        // that released them.
        let mut cause = engine.last_span();
        loop {
            if let Some(msg) = &outgoing {
                let tctx = trace.map(|_| TraceCtx {
                    trace: ctx_seed,
                    parent: cause,
                });
                let mut to = ids.get(recipients(me, ids.len())).unwrap_or(&[]).to_vec();
                if engine.decided() {
                    // The leader also tells whoever fed the batch.
                    to.push(self.driver);
                }
                self.send(&to, msg, tctx)?;
            }
            if engine.decided() {
                return Ok(true);
            }

            // One gather: frames the engine wants, until it moves on. Its
            // wait span runs from here to the frame that completed it; its
            // parent is the *earliest* sender span among the frames that
            // fed it (min over received ctx parents — deterministic for a
            // deterministic frame set), or with no traced frame our own
            // preceding compute span, so the tree stays connected.
            let phase = engine.waiting_for();
            let fallback = engine.last_span();
            let wait_start = trace.map_or(0, |rec| rec.now_us());
            let mut wait_parent: Option<u64> = None;
            outgoing = loop {
                let want =
                    |src, m: &ServerMsg<F>| index_of(src).is_some_and(|i| engine.wants(i, m));
                let (src, msg, fctx) = match self.recv(deadline, want) {
                    Ok(received) => received,
                    Err(RecvTimeoutError::Timeout) => return Ok(false),
                    Err(RecvTimeoutError::Closed) => return Err(Exit),
                };
                let wait_end = trace.map_or(0, |rec| rec.now_us());
                let Some(from) = index_of(src) else { continue };
                match engine.on_msg(from, msg, &self.clock) {
                    Ok(released) => {
                        if let Some(c) = fctx {
                            wait_parent = Some(wait_parent.map_or(c.parent, |p| p.min(c.parent)));
                        }
                        if released.is_none() && !engine.decided() {
                            continue;
                        }
                        let wait = trace.map_or(0, |rec| {
                            let (parent, kind) =
                                (wait_parent.unwrap_or(fallback), SpanKind::GatherWait);
                            rec.record_span(
                                ctx_seed, parent, me as u64, kind, phase, wait_start, wait_end,
                            )
                        });
                        cause = if me == 0 { wait } else { engine.last_span() };
                        break released;
                    }
                    // The engine refused the frame and is unchanged. A
                    // network-facing node counts the forgery and keeps
                    // waiting for the genuine frame; in-process, a peer
                    // that miscounts is a bug — stop rather than hang.
                    Err(e) => match self.opts.frame_policy {
                        FramePolicy::Lenient => self.drop_frame(
                            Dropped::BadLength,
                            format!("refusing {phase} frame from {src:?}: {e:?}"),
                        ),
                        FramePolicy::Strict => {
                            let detail = format!("{phase} frame from {src:?}: {e:?}");
                            self.metrics
                                .events
                                .error(TARGET, "round_length_mismatch", detail);
                            return Err(Exit);
                        }
                    },
                }
            };
        }
    }
}

/// Whether `msg` is one of the driver's phase-entry messages (as opposed
/// to a mid-batch round message).
fn enters_phase<F: FieldElement>(msg: &ServerMsg<F>) -> bool {
    matches!(
        msg,
        ServerMsg::ClientBatch { .. } | ServerMsg::PublishRequest | ServerMsg::Shutdown
    )
}

/// Short tag for log lines (avoids dumping whole field vectors to stderr)
/// and the `retry_attempts_total{op}` label of a send.
fn msg_kind<F: FieldElement>(msg: &ServerMsg<F>) -> &'static str {
    match msg {
        ServerMsg::BatchStart { .. } => "BatchStart",
        ServerMsg::Round1 { .. } => "Round1",
        ServerMsg::Round1Combined { .. } => "Round1Combined",
        ServerMsg::Round2 { .. } => "Round2",
        ServerMsg::Decisions { .. } => "Decisions",
        ServerMsg::PublishRequest => "PublishRequest",
        ServerMsg::Accumulator(_) => "Accumulator",
        ServerMsg::ClientBatch { .. } => "ClientBatch",
        ServerMsg::Shutdown => "Shutdown",
    }
}

/// The server event loop: drains `ClientBatch`es through the batch engine
/// (two SNIP broadcast rounds, leader-star topology), accumulates
/// accepted submissions, answers the publish request, and exits on
/// shutdown.
///
/// `ids` is the full server set in index order (`ids[0]` is the leader and
/// must contain `ep.id()`); `driver` is the node the leader reports
/// decisions to and every server publishes to.
pub fn run_server_loop<F: FieldElement, A: Afe<F> + Sync>(
    server: &mut Server<F, A>,
    ep: &Endpoint,
    ids: &[NodeId],
    driver: NodeId,
    opts: ServerLoopOptions,
) -> ServerLoopReport {
    let metrics = LoopMetrics::resolve(&opts.obs);
    let Some(me) = ids.iter().position(|&id| id == ep.id()) else {
        metrics.events.error(
            TARGET,
            "own_id_missing",
            "own endpoint id not in the deployment's server set".to_string(),
        );
        return ServerLoopReport::default();
    };
    let mut io = Io {
        ep,
        ids,
        me,
        driver,
        opts: &opts,
        metrics,
        clock: PhaseClock::new(opts.obs.registry(), opts.trace.clone(), me as u64),
        trace: opts.trace.as_deref(),
        stash: VecDeque::new(),
        report: ServerLoopReport::default(),
    };
    io.report.clean = serve(server, &mut io).is_ok();
    io.report.timings = io.clock.timings();
    io.report
}

/// The idle loop: waits for the driver's phase-entry messages and
/// dispatches them. `Ok` is the orderly `Shutdown` exit.
fn serve<F: FieldElement, A: Afe<F> + Sync>(
    server: &mut Server<F, A>,
    io: &mut Io<'_, F>,
) -> Result<(), Exit> {
    let (driver, opts) = (io.driver, io.opts);
    // Idempotent ingest: remember recent batch context seeds so a
    // duplicated ClientBatch frame (fault injection, driver retransmit, a
    // lower layer replaying) is discarded instead of double-counted. The
    // seed is the batch's identity — the driver derives one fresh seed per
    // batch, so equal seed ⇔ same batch.
    let mut seen_batches: HashSet<u64> = HashSet::new();
    let mut seen_order: VecDeque<u64> = VecDeque::new();

    loop {
        // Phase-entry messages are the driver's alone: a server id (or a
        // forged one) carrying a ClientBatch/PublishRequest/Shutdown must
        // not steer the loop. Fabric closed or idle deadline: exit.
        let idle_deadline = opts.idle_deadline.map(|d| Instant::now() + d);
        let (_, msg, batch_ctx) = io
            .recv(idle_deadline, |src, m| src == driver && enters_phase(m))
            .map_err(|_| Exit)?;
        match msg {
            ServerMsg::ClientBatch {
                ctx_seed,
                labels,
                blobs,
            } => {
                if !seen_batches.insert(ctx_seed) {
                    io.metrics.deduped.inc();
                    io.report.frames_deduped += 1;
                    io.metrics.events.warn(
                        TARGET,
                        "client_batch_deduped",
                        format!("duplicate ClientBatch (ctx_seed {ctx_seed}); already processed"),
                    );
                    continue;
                }
                seen_order.push_back(ctx_seed);
                if seen_order.len() > MAX_SEEN_BATCHES {
                    if let Some(evicted) = seen_order.pop_front() {
                        seen_batches.remove(&evicted);
                    }
                }
                let deadline = opts.batch_deadline.map(|d| Instant::now() + d);
                let ctx = server.make_context(ctx_seed).map_err(|e| {
                    io.metrics.events.error(
                        TARGET,
                        "context_derivation_failed",
                        format!("cannot derive verification context: {e:?}"),
                    );
                    Exit
                })?;
                io.clock.add_submissions(blobs.len() as u64);
                io.metrics.batch_size.observe(blobs.len() as u64);
                // Span parentage: the driver's ClientBatch frame carries
                // its batch-root span id; our unpack chains off it, and
                // the engine chains each later phase off the previous one.
                let batch_parent = batch_ctx.map_or(0, |c| c.parent);
                // Unpack every submission; parse/unpack failures — and a
                // labels vector shorter than the blobs vector, possible on
                // a forged batch — become `None`, which the engine votes
                // "reject".
                let (shares, unpack_span) =
                    io.clock.time(Phase::Unpack, ctx_seed, batch_parent, || {
                        let unpack = |(j, bytes): (usize, &Vec<u8>)| {
                            let blob = blob_from_bytes::<F>(bytes).ok()?;
                            server.unpack(&blob, *labels.get(j)?).ok()
                        };
                        blobs.iter().enumerate().map(unpack).collect()
                    });
                let (mut engine, first) = server.begin_batch(
                    &ctx,
                    ctx_seed,
                    shares,
                    opts.verify_threads,
                    &io.clock,
                    unpack_span,
                );
                let decided = io.drive(&mut engine, first, ctx_seed, deadline)?;
                // Decided or abandoned, any round message still stashed (a
                // fault-duplicated vector from a peer already counted)
                // belongs to this batch and is dead weight from here on.
                io.clear_round_stash();
                if !decided {
                    io.metrics.batches_abandoned.inc();
                    io.report.batches_abandoned += 1;
                    io.metrics.events.warn(
                        TARGET,
                        "batch_abandoned",
                        "mid-batch gather deadline expired; abandoning the batch without accumulating"
                            .to_string(),
                    );
                    continue;
                }
                let (_, counts) = engine.commit(server);
                io.metrics.accepted.add(counts.accepted);
                io.metrics.rejected_verify.add(counts.rejected_verify);
                io.metrics.rejected_malformed.add(counts.rejected_malformed);
            }
            ServerMsg::PublishRequest => {
                // Everything sent so far is verification-phase traffic; the
                // accumulator reveal below is the publish phase. Sampling
                // here gives every deployment flavour the same Figure-6
                // split without a shared-fabric snapshot.
                io.report.verify_bytes_sent = io.ep.bytes_sent();
                // Publish is not tied to any one batch; trace 0 groups the
                // reveal phase per node without inventing a batch id.
                let reveal = || {
                    let reveal = ServerMsg::Accumulator(server.accumulator().to_vec());
                    io.send(&[driver], &reveal, None)
                };
                io.clock.time(Phase::Publish, 0, 0, reveal).0?;
            }
            ServerMsg::Shutdown => return Ok(()),
            // `recv` only returns the three phase-entry messages matched
            // above; anything else here means the match filter and this
            // arm drifted apart. Drop the message and keep serving.
            other => io.drop_frame(
                Dropped::UnexpectedKind,
                format!(
                    "unexpected {} message at server; dropping",
                    msg_kind(&other)
                ),
            ),
        }
    }
}
