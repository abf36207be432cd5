//! The sans-I/O batch engine: one server's side of one batch of the
//! verification protocol (§4, Figure 1, Appendix H/I) as a state machine
//! that speaks only in values. [`Server::begin_batch`] runs round 1,
//! [`BatchEngine::on_msg`] consumes one peer message and returns the one
//! message that releases, [`BatchEngine::commit`] accumulates. The engine
//! never sends, receives, waits or narrates — its driver moves the
//! messages: [`Cluster`](crate::Cluster) between `s` engines in one
//! thread, [`run_server_loop`](crate::run_server_loop) onto an endpoint.
//!
//! Leader-star topology: followers send `Round1` to the leader, which
//! sums them per submission and answers `Round1Combined`; followers
//! answer `Round2`; the leader decides and fans `Decisions` out. A
//! submission a server could not unpack or verify rides along as a zero
//! round-1 placeholder and a poisoned round-2 share (`σ = out = 1`), so
//! the vote rejects it.

use crate::messages::{pack_decisions, unpack_decisions, ServerMsg};
use crate::phase::{Phase, PhaseClock};
use crate::server::Server;
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_snip::verifier::verify_round2_batch;
use prio_snip::{decide, Round1Msg, Round2Msg, ServerState, SnipProofShare, VerifierContext};

/// Leader-star routing: the server indices (of `s`) that a message
/// released by server `from`'s engine goes to. The leader's `Decisions`
/// additionally go to whoever fed the batch.
pub fn recipients(from: usize, s: usize) -> std::ops::Range<usize> {
    if from == 0 {
        1..s
    } else {
        0..1
    }
}

/// Why [`BatchEngine::on_msg`] refused a message, leaving the engine
/// unchanged.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A round vector whose length is not the batch's: a forgery under a
    /// peer's (unauthenticated) id, or a protocol violation.
    BadLength {
        /// Entries (or decision bytes) the message carried.
        got: usize,
        /// Entries the batch needs.
        want: usize,
    },
    /// Not a message [`BatchEngine::wants`] right now.
    Unwanted,
}

/// What [`BatchEngine::commit`] did, for the driver's counters.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchCounts {
    /// Submissions folded into the accumulator.
    pub accepted: u64,
    /// Rejected by the SNIP vote.
    pub rejected_verify: u64,
    /// Rejected because this server could not unpack or verify its share.
    pub rejected_malformed: u64,
}

/// The one message kind the engine is waiting for.
#[derive(Copy, Clone, PartialEq, Eq)]
enum Waiting {
    /// Leader: `Round1` from every follower.
    Round1,
    /// Leader: `Round2` from every follower.
    Round2,
    /// Follower: the leader's `Round1Combined`.
    Combined,
    /// Follower: the leader's `Decisions`.
    Decisions,
    /// Decided.
    Nothing,
}

/// One server's state for one batch. See the module docs.
pub struct BatchEngine<F: FieldElement> {
    ctx_seed: u64,
    count: usize,
    leader: bool,
    /// Batch positions that survived unpack and round 1 here, ascending;
    /// `states` and `xs` run parallel to it.
    ok_idx: Vec<usize>,
    states: Vec<ServerState<F>>,
    xs: Vec<Vec<F>>,
    waiting: Waiting,
    /// Per server index: whether the current gather still awaits it.
    pending: Vec<bool>,
    /// Leader: the per-submission round-1 combine so far (own included).
    sum: Vec<Round1Msg<F>>,
    /// Leader: the per-submission round-2 sums so far (own included).
    voted: Vec<Round2Msg<F>>,
    /// Per-submission accept bits, once decided.
    decisions: Option<Vec<bool>>,
    last_span: u64,
}

impl<F: FieldElement, A: Afe<F>> Server<F, A> {
    /// Starts a batch: runs round 1 (across `threads` workers) over
    /// `shares` — one entry per submission, `None` where unpacking failed.
    /// `ctx_seed` is the batch identity every round message carries;
    /// `parent` the span (the caller's unpack) round 1 chains off. Also
    /// returns a follower's `Round1`; nothing for the leader.
    pub fn begin_batch(
        &self,
        ctx: &VerifierContext<F>,
        ctx_seed: u64,
        mut shares: Vec<Option<(Vec<F>, SnipProofShare<F>)>>,
        threads: usize,
        clock: &PhaseClock,
        parent: u64,
    ) -> (BatchEngine<F>, Option<ServerMsg<F>>)
    where
        A: Sync,
    {
        let count = shares.len();
        let zero = Round1Msg {
            d: F::zero(),
            e: F::zero(),
        };
        let ((round1, ok_idx, states), span) = clock.time(Phase::Round1, ctx_seed, parent, || {
            let unpacked = (0..count).filter(|&j| shares[j].is_some());
            let items: Vec<(&[F], &SnipProofShare<F>)> = shares
                .iter()
                .flatten()
                .map(|(x, proof)| (x.as_slice(), proof))
                .collect();
            let mut round1 = vec![zero; count];
            let (mut ok_idx, mut states) = (Vec::new(), Vec::new());
            for (j, result) in unpacked.zip(self.round1_batch(ctx, &items, threads)) {
                if let Ok((state, msg)) = result {
                    round1[j] = msg;
                    ok_idx.push(j);
                    states.push(state);
                }
            }
            (round1, ok_idx, states)
        });
        let xs = ok_idx
            .iter()
            .filter_map(|&j| Some(shares[j].take()?.0))
            .collect();
        let mut engine = BatchEngine {
            ctx_seed,
            count,
            leader: self.is_leader(),
            ok_idx,
            states,
            xs,
            waiting: Waiting::Nothing,
            pending: vec![false; self.num_servers()],
            sum: Vec::new(),
            voted: Vec::new(),
            decisions: None,
            last_span: span,
        };
        if engine.leader {
            engine.sum = round1;
            engine.gather(Waiting::Round1);
            return (engine, None);
        }
        engine.gather(Waiting::Combined);
        let msg = ServerMsg::Round1 {
            ctx: ctx_seed,
            msgs: round1,
        };
        (engine, Some(msg))
    }
}

impl<F: FieldElement> BatchEngine<F> {
    /// Whether `msg`, sent by server index `from`, is what this engine is
    /// waiting for: the kind its phase gathers, bound to this batch's ctx,
    /// from a sender the gather has not heard yet. Duplicates, frames of
    /// another batch and frames from the wrong source are refused here.
    pub fn wants(&self, from: usize, msg: &ServerMsg<F>) -> bool {
        self.admit(from, msg) != Err(EngineError::Unwanted)
    }

    fn admit(&self, from: usize, msg: &ServerMsg<F>) -> Result<(), EngineError> {
        let (kind, ctx, got, want) = match msg {
            ServerMsg::Round1 { ctx, msgs } => (Waiting::Round1, ctx, msgs.len(), self.count),
            ServerMsg::Round1Combined { ctx, msgs } => {
                (Waiting::Combined, ctx, msgs.len(), self.count)
            }
            ServerMsg::Round2 { ctx, msgs } => (Waiting::Round2, ctx, msgs.len(), self.count),
            ServerMsg::Decisions { ctx, bits } => {
                (Waiting::Decisions, ctx, bits.len(), self.count.div_ceil(8))
            }
            _ => return Err(EngineError::Unwanted),
        };
        if kind != self.waiting || *ctx != self.ctx_seed || self.pending.get(from) != Some(&true) {
            Err(EngineError::Unwanted)
        } else if got != want {
            Err(EngineError::BadLength { got, want })
        } else {
            Ok(())
        }
    }

    /// The current gather, as the trace label of the wait for it.
    pub fn waiting_for(&self) -> &'static str {
        match self.waiting {
            Waiting::Round1 => "round1",
            Waiting::Round2 => "round2",
            Waiting::Combined => "round1combined",
            Waiting::Decisions => "decisions",
            Waiting::Nothing => "",
        }
    }

    /// Whether the batch is decided and ready for [`Self::commit`].
    pub fn decided(&self) -> bool {
        self.decisions.is_some()
    }

    /// The latest compute span (0 when untraced): the parent of a wait
    /// that no traced frame fed.
    pub fn last_span(&self) -> u64 {
        self.last_span
    }

    /// Consumes a message [`Self::wants`] accepts; returns the message
    /// that releases (none while a gather is short, or at a follower's
    /// `Decisions`), bound for [`recipients`]. A wrong-length vector is
    /// refused *before* its sender leaves the pending set, so a forged
    /// frame cannot displace the genuine one.
    pub fn on_msg(
        &mut self,
        from: usize,
        msg: ServerMsg<F>,
        clock: &PhaseClock,
    ) -> Result<Option<ServerMsg<F>>, EngineError> {
        self.admit(from, &msg)?;
        self.pending[from] = false;
        let ctx = self.ctx_seed;
        // `admit` matched kind to phase; the leader's arms act once their
        // gather is complete.
        Ok(match msg {
            ServerMsg::Round1 { msgs, .. } => {
                for (acc, m) in self.sum.iter_mut().zip(&msgs) {
                    acc.d += m.d;
                    acc.e += m.e;
                }
                if self.pending.contains(&true) {
                    return Ok(None);
                }
                let msgs = std::mem::take(&mut self.sum);
                self.voted = self.round2(&msgs, clock);
                self.gather(Waiting::Round2);
                Some(ServerMsg::Round1Combined { ctx, msgs })
            }
            ServerMsg::Round2 { msgs, .. } => {
                for (acc, m) in self.voted.iter_mut().zip(&msgs) {
                    acc.sigma += m.sigma;
                    acc.out += m.out;
                }
                if self.pending.contains(&true) {
                    return Ok(None);
                }
                self.waiting = Waiting::Nothing;
                // `decide` sums the servers' shares; they are summed.
                let decisions: Vec<bool> = self
                    .voted
                    .iter()
                    .map(|total| decide(std::slice::from_ref(total)))
                    .collect();
                let bits = pack_decisions(&decisions);
                self.decisions = Some(decisions);
                Some(ServerMsg::Decisions { ctx, bits })
            }
            ServerMsg::Round1Combined { msgs, .. } => {
                let msgs = self.round2(&msgs, clock);
                self.gather(Waiting::Decisions);
                Some(ServerMsg::Round2 { ctx, msgs })
            }
            ServerMsg::Decisions { bits, .. } => {
                self.waiting = Waiting::Nothing;
                self.decisions = Some(unpack_decisions(&bits, self.count));
                None
            }
            _ => None,
        })
    }

    /// Applies and returns the decisions, in submission order: accumulates
    /// a submission only if the vote accepted it *and* this server verified
    /// its own share; the rest are rejected. A no-op before [`Self::decided`].
    pub fn commit<A: Afe<F>>(self, server: &mut Server<F, A>) -> (Vec<bool>, BatchCounts) {
        let decisions = self.decisions.unwrap_or_default();
        let mut counts = BatchCounts::default();
        let mut verified = self.ok_idx.iter().zip(&self.xs).peekable();
        for (j, &accept) in decisions.iter().enumerate() {
            match verified.next_if(|(k, _)| **k == j) {
                Some((_, x)) if accept => {
                    server.accumulate(x);
                    counts.accepted += 1;
                    continue;
                }
                Some(_) => counts.rejected_verify += 1,
                None => counts.rejected_malformed += 1,
            }
            server.reject();
        }
        (decisions, counts)
    }

    /// Starts a gather: from the followers at the leader, else from it.
    fn gather(&mut self, waiting: Waiting) {
        self.waiting = waiting;
        for (i, pending) in self.pending.iter_mut().enumerate() {
            *pending = (i == 0) != self.leader;
        }
    }

    /// Round 2 over the locally verified submissions, scattered back into
    /// batch order; the rest get the poisoned share.
    fn round2(&mut self, combined: &[Round1Msg<F>], clock: &PhaseClock) -> Vec<Round2Msg<F>> {
        let poison = Round2Msg {
            sigma: F::one(),
            out: F::one(),
        };
        let (out, span) = clock.time(Phase::Round2, self.ctx_seed, self.last_span, || {
            let compact: Vec<Round1Msg<F>> = self.ok_idx.iter().map(|&j| combined[j]).collect();
            let mut out = vec![poison; self.count];
            let verified = verify_round2_batch(&self.states, &compact);
            for (&j, m) in self.ok_idx.iter().zip(verified) {
                out[j] = m;
            }
            out
        });
        self.last_span = span;
        out
    }
}
