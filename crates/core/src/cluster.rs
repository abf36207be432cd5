//! A deterministic single-threaded simulation of the full server cluster,
//! with exact per-server byte accounting of the verification protocol.
//!
//! Used by tests, examples, and the bandwidth experiment (Figure 6). The
//! leader-star topology matches the deployed system: non-leaders exchange
//! messages only with the leader, which is why adding servers barely
//! changes per-server load (Figure 5's observation).

use crate::client::ClientSubmission;
use crate::engine::recipients;
use crate::messages::{pack_decisions, ServerMsg};
use crate::phase::{Phase, PhaseClock, PhaseTimings};
use crate::server::{Server, ServerConfig};
use prio_afe::Afe;
use prio_crypto::prg::PrgRng;
use prio_field::FieldElement;
use prio_net::wire::Wire;
use prio_snip::{decide, HForm, VerifierContext, VerifyMode};
use rand::Rng;
use std::collections::VecDeque;

/// Domain-separation label for the cluster's context-seed stream
/// (ASCII "PRIO cls"), distinct from `Server`'s per-context
/// `CTX_RANDOMNESS_LABEL` ("PRIO ctx") so the two ChaCha20 streams never
/// collide even under equal seeds.
const CLUSTER_CTX_SEED_LABEL: u64 = 0x5052_494f_2063_6c73;

/// A simulated `s`-server Prio cluster.
pub struct Cluster<F: FieldElement, A: Afe<F>> {
    servers: Vec<Server<F, A>>,
    ctx: Option<VerifierContext<F>>,
    /// The seed `ctx` was derived from: the batch identity the engines'
    /// round messages carry.
    ctx_seed: u64,
    processed_in_batch: usize,
    /// Submissions per verification context (the paper's `Q ≈ 2^10`).
    batch_size: usize,
    /// Worker threads each server uses for batched round 1 (1 = inline).
    verify_threads: usize,
    ctx_rng: PrgRng,
    /// Verification bytes each server has *sent*.
    sent_bytes: Vec<u64>,
    /// Feeds the same `server_phase_us` histograms the server loop does,
    /// so per-phase latency has one exposition regardless of which driver
    /// ran the protocol.
    clock: PhaseClock,
}

impl<F: FieldElement, A: Afe<F> + Clone> Cluster<F, A> {
    /// Builds a cluster of `num_servers` servers for the given AFE.
    pub fn new(afe: A, num_servers: usize, verify_mode: VerifyMode) -> Self {
        Self::with_options(afe, num_servers, verify_mode, HForm::PointValue, 1024)
    }

    /// Full-control constructor (h form and context batch size).
    pub fn with_options(
        afe: A,
        num_servers: usize,
        verify_mode: VerifyMode,
        h_form: HForm,
        batch_size: usize,
    ) -> Self {
        assert!(num_servers >= 2, "Prio needs at least two servers");
        assert!(batch_size >= 1);
        let servers = (0..num_servers)
            .map(|index| {
                Server::new(
                    afe.clone(),
                    ServerConfig {
                        index,
                        num_servers,
                        verify_mode,
                        h_form,
                    },
                )
            })
            .collect();
        Cluster {
            servers,
            ctx: None,
            ctx_seed: 0,
            processed_in_batch: 0,
            batch_size,
            verify_threads: 1,
            ctx_rng: PrgRng::from_u64_seed(0x5052_494f, CLUSTER_CTX_SEED_LABEL),
            sent_bytes: vec![0; num_servers],
            clock: PhaseClock::new(prio_obs::Registry::global(), None, 0),
        }
    }

    /// Builder-style: worker threads per server for batched round-1
    /// verification ([`Cluster::process_batch`]). Decisions and
    /// accumulators are independent of the thread count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one verify thread");
        self.verify_threads = threads;
        self
    }

    fn refresh_context_if_needed(&mut self) {
        if self.ctx.is_none() || self.processed_in_batch >= self.batch_size {
            self.ctx_seed = self.ctx_rng.random();
            self.ctx = Some(
                self.servers[0]
                    .make_context(self.ctx_seed)
                    .expect("cluster config validated at construction"),
            );
            self.processed_in_batch = 0;
        }
    }

    fn reject_everywhere(&mut self) -> bool {
        for server in &mut self.servers {
            server.reject();
        }
        false
    }

    /// Processes one client submission through the full pipeline:
    /// unpack → SNIP verify (with byte accounting) → accumulate/reject.
    /// Returns whether the submission was accepted.
    ///
    /// This per-submission path calls [`Server::round1`]/[`Server::round2`]
    /// directly and is deliberately *not* routed through the batch
    /// engine: it is the independent reference the batched path is held
    /// to.
    pub fn process(&mut self, sub: &ClientSubmission<F>) -> bool {
        let s = self.servers.len();
        assert_eq!(sub.blobs.len(), s, "one blob per server");
        self.refresh_context_if_needed();
        self.processed_in_batch += 1;
        self.clock.add_submissions(1);
        let ctx = self.ctx.as_ref().expect("context refreshed");
        let servers = &self.servers;

        // Unpack. A structurally malformed blob is rejected outright (the
        // servers can detect this locally; no protocol needed).
        let (unpacked, _) = self.clock.time(Phase::Unpack, 0, 0, || {
            servers
                .iter()
                .zip(&sub.blobs)
                .map(|(server, blob)| server.unpack(blob, sub.prg_label).ok())
                .collect::<Option<Vec<_>>>()
        });
        let Some(unpacked) = unpacked else {
            return self.reject_everywhere();
        };

        // Round 1 at every server.
        let (round1, _) = self.clock.time(Phase::Round1, 0, 0, || {
            servers
                .iter()
                .zip(&unpacked)
                .map(|(server, (x, proof))| server.round1(ctx, x, proof).ok())
                .collect::<Option<Vec<_>>>()
        });
        let Some(round1) = round1 else {
            return self.reject_everywhere();
        };
        let (states, round1): (Vec<_>, Vec<_>) = round1.into_iter().unzip();

        // Byte accounting, leader-star topology:
        // non-leader i → leader: Round1([m_i]); leader → each non-leader:
        // Round1Combined([Σm]); non-leader → leader: Round2; leader → all:
        // Decisions.
        let size = |msg: ServerMsg<F>| msg.to_wire_bytes().len() as u64;
        let r1_size = size(ServerMsg::Round1 {
            ctx: 0,
            msgs: vec![round1[1]],
        });
        let combined = vec![prio_snip::Round1Msg {
            d: round1.iter().map(|m| m.d).sum(),
            e: round1.iter().map(|m| m.e).sum(),
        }];
        let comb_size = size(ServerMsg::Round1Combined {
            ctx: 0,
            msgs: combined.clone(),
        });
        let ((round2, accepted), _) = self.clock.time(Phase::Round2, 0, 0, || {
            let round2: Vec<_> = servers
                .iter()
                .zip(&states)
                .map(|(server, state)| server.round2(state, &combined))
                .collect();
            let accepted = decide(&round2);
            (round2, accepted)
        });
        let r2_size = size(ServerMsg::Round2 {
            ctx: 0,
            msgs: vec![round2[1]],
        });
        let dec_size = size(ServerMsg::Decisions {
            ctx: 0,
            bits: pack_decisions(&[accepted]),
        });
        for i in 1..s {
            self.sent_bytes[i] += r1_size + r2_size;
        }
        self.sent_bytes[0] += (comb_size + dec_size) * (s as u64 - 1);

        if !accepted {
            return self.reject_everywhere();
        }
        for (server, (x, _)) in self.servers.iter_mut().zip(&unpacked) {
            server.accumulate(x);
        }
        true
    }

    /// Processes a whole batch of submissions through the batched pipeline:
    /// one verification context per `batch_size` chunk, and per chunk one
    /// [`BatchEngine`](crate::engine::BatchEngine) per server — the same
    /// state machine the deployed server loop drives — with this thread
    /// standing in for the network.
    ///
    /// Decisions, accumulators, and accept/reject counters are
    /// bit-identical to feeding the same submissions one at a time through
    /// [`Cluster::process`] on a cluster in the same state (the
    /// `batch_determinism` integration test holds both paths to that
    /// contract). Byte accounting differs in framing only: this path counts
    /// the deployment-style batched messages — one `Round1`/`Round2` vector
    /// per non-leader per chunk and one `Round1Combined`/`Decisions` fan-out
    /// from the leader — instead of one message set per submission.
    pub fn process_batch(&mut self, subs: &[ClientSubmission<F>]) -> Vec<bool>
    where
        A: Sync,
    {
        let mut decisions = Vec::with_capacity(subs.len());
        let mut idx = 0;
        while idx < subs.len() {
            self.refresh_context_if_needed();
            let take = (self.batch_size - self.processed_in_batch).min(subs.len() - idx);
            self.processed_in_batch += take;
            decisions.extend(self.shuttle(&subs[idx..idx + take]));
            idx += take;
        }
        decisions
    }

    /// One context-sized chunk of [`Cluster::process_batch`]: unpack,
    /// start an engine per server, deliver every message an engine emits
    /// to its [`recipients`] until all have decided, commit. Byte accounting
    /// is the wire size of each emitted message times its recipients.
    fn shuttle(&mut self, chunk: &[ClientSubmission<F>]) -> Vec<bool>
    where
        A: Sync,
    {
        let s = self.servers.len();
        for sub in chunk {
            assert_eq!(sub.blobs.len(), s, "one blob per server");
        }
        self.clock.add_submissions(chunk.len() as u64);
        let ctx = self.ctx.as_ref().expect("context refreshed");
        let (servers, clock, seed) = (&self.servers, &self.clock, self.ctx_seed);

        let (shares, unpack_span) = clock.time(Phase::Unpack, seed, 0, || {
            servers
                .iter()
                .enumerate()
                .map(|(i, server)| {
                    chunk
                        .iter()
                        .map(|sub| server.unpack(&sub.blobs[i], sub.prg_label).ok())
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });

        let mut engines = Vec::with_capacity(s);
        let mut queue = VecDeque::new();
        for (i, (server, shares)) in servers.iter().zip(shares).enumerate() {
            let (engine, first) =
                server.begin_batch(ctx, seed, shares, self.verify_threads, clock, unpack_span);
            engines.push(engine);
            queue.extend(first.map(|msg| (i, msg)));
        }
        while let Some((from, msg)) = queue.pop_front() {
            let targets = recipients(from, s);
            self.sent_bytes[from] += (msg.to_wire_bytes().len() * targets.len()) as u64;
            for to in targets {
                let released = engines[to]
                    .on_msg(from, msg.clone(), clock)
                    .expect("engines emit only what their peers are waiting for");
                queue.extend(released.map(|msg| (to, msg)));
            }
        }
        // Followers unpack the leader's bits: any server's copy is the batch's.
        let mut decisions = Vec::new();
        for (engine, server) in engines.into_iter().zip(&mut self.servers) {
            assert!(engine.decided(), "queue drained before every engine decided");
            decisions = engine.commit(server).0;
        }
        decisions
    }

    /// Publishes and sums the accumulators: `σ = Σ_j A_j` (Figure 1d).
    pub fn aggregate(&self) -> Vec<F> {
        let sum = || {
            let kp = self.servers[0].accumulator().len();
            let mut sigma = vec![F::zero(); kp];
            for server in &self.servers {
                for (acc, &v) in sigma.iter_mut().zip(server.accumulator()) {
                    *acc += v;
                }
            }
            sigma
        };
        self.clock.time(Phase::Publish, 0, 0, sum).0
    }

    /// Decodes the aggregate through the AFE.
    pub fn decode(&self) -> Result<A::Output, prio_afe::AfeError> {
        let sigma = self.aggregate();
        self.servers[0]
            .afe()
            .decode(&sigma, self.servers[0].accepted() as usize)
    }

    /// Number of accepted submissions.
    pub fn accepted(&self) -> u64 {
        self.servers[0].accepted()
    }

    /// Number of rejected submissions.
    pub fn rejected(&self) -> u64 {
        self.servers[0].rejected()
    }

    /// Verification bytes sent per server so far (index 0 = leader).
    pub fn verification_bytes_sent(&self) -> &[u64] {
        &self.sent_bytes
    }

    /// Accumulated per-phase verification timings.
    pub fn timings(&self) -> PhaseTimings {
        self.clock.timings()
    }

    /// Resets the per-phase timing accumulators (e.g. after warmup runs).
    pub fn reset_timings(&mut self) {
        self.clock.reset();
    }

    /// Number of servers.
    pub fn num_servers(&self) -> usize {
        self.servers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig, ShareBlob};
    use prio_afe::freq::FrequencyAfe;
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;
    use rand::SeedableRng;

    #[test]
    fn ctx_rng_is_domain_separated_prg_with_pinned_stream() {
        // The cluster's context-seed stream is ChaCha20 under a pinned
        // domain-separation label. Pin the first draw so any silent change
        // of generator, seed, or label breaks this test.
        let mut rng = PrgRng::from_u64_seed(0x5052_494f, CLUSTER_CTX_SEED_LABEL);
        let first: u64 = rng.random();
        assert_eq!(first, CLUSTER_CTX_FIRST_DRAW);
        // A different label (the per-context one) must yield a different
        // stream: domain separation is doing real work.
        let mut other = PrgRng::from_u64_seed(0x5052_494f, 0x5052_494f_2063_7478);
        let other_first: u64 = other.random();
        assert_ne!(first, other_first);
    }

    /// Pinned first `u64` of the cluster context-seed stream.
    const CLUSTER_CTX_FIRST_DRAW: u64 = 0xa902_6c5c_2ba5_3311;

    #[test]
    fn end_to_end_sum() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 3, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let values = [3u64, 14, 0, 7, 15, 9];
        for v in values {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        assert_eq!(cluster.accepted(), 6);
        let total = cluster.decode().unwrap();
        assert_eq!(total, values.iter().map(|&v| v as u128).sum::<u128>());
    }

    #[test]
    fn end_to_end_histogram() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let afe = FrequencyAfe::new(4);
        let mut cluster: Cluster<Field64, _> = Cluster::new(afe.clone(), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(afe, ClientConfig::new(2));
        for v in [0usize, 1, 1, 3, 1] {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        assert_eq!(cluster.decode().unwrap(), vec![1, 3, 0, 1]);
    }

    #[test]
    fn cheating_submission_is_rejected_and_not_aggregated() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        // Two honest submissions.
        for v in [5u64, 6] {
            let sub = client.submit(&v, &mut rng).unwrap();
            assert!(cluster.process(&sub));
        }
        // A cheater tampers with its explicit share to claim a huge value
        // (the Section-1 ballot-stuffing attack).
        let mut sub = client.submit(&1, &mut rng).unwrap();
        if let ShareBlob::Explicit(v) = &mut sub.blobs[1] {
            v[0] += Field64::from_u64(1000);
        } else {
            panic!("last blob should be explicit");
        }
        assert!(!cluster.process(&sub));
        assert_eq!(cluster.accepted(), 2);
        assert_eq!(cluster.rejected(), 1);
        // The aggregate only contains the honest values.
        assert_eq!(cluster.decode().unwrap(), 11);
    }

    #[test]
    fn malformed_blob_rejected_locally() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(4), 2, VerifyMode::FixedPoint);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        let mut sub = client.submit(&1, &mut rng).unwrap();
        sub.blobs[1] = ShareBlob::Explicit(vec![Field64::zero(); 2]);
        assert!(!cluster.process(&sub));
        assert_eq!(cluster.rejected(), 1);
    }

    #[test]
    fn non_leader_bytes_are_constant_in_submission_size() {
        // The heart of Figure 6: verification traffic is independent of L.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut small: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(2), 3, VerifyMode::FixedPoint);
        let mut big: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(60), 3, VerifyMode::FixedPoint);
        let mut c_small = Client::new(SumAfe::new(2), ClientConfig::new(3));
        let mut c_big = Client::new(SumAfe::new(60), ClientConfig::new(3));
        small.process(&c_small.submit(&1, &mut rng).unwrap());
        big.process(&c_big.submit(&(1 << 50), &mut rng).unwrap());
        assert_eq!(
            small.verification_bytes_sent()[1],
            big.verification_bytes_sent()[1]
        );
    }

    #[test]
    fn batched_byte_accounting_matches_full_serialization() {
        // process_batch counts the wire size of every message the engines
        // emit. Field encodings are fixed-width, so the totals must equal
        // directly serialized placeholder vectors of the same length.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 5usize;
        let mut cluster: Cluster<Field64, _> = Cluster::with_options(
            SumAfe::new(4),
            3,
            VerifyMode::FixedPoint,
            HForm::PointValue,
            1024,
        );
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let subs: Vec<_> = (0..n as u64)
            .map(|v| client.submit(&v, &mut rng).unwrap())
            .collect();
        assert!(cluster.process_batch(&subs).iter().all(|&d| d));
        let msg = prio_snip::Round1Msg {
            d: Field64::zero(),
            e: Field64::zero(),
        };
        let r2 = prio_snip::Round2Msg {
            sigma: Field64::one(),
            out: Field64::one(),
        };
        let expect_non_leader = ServerMsg::Round1 {
            ctx: 0,
            msgs: vec![msg; n],
        }
        .to_wire_bytes()
        .len()
            + ServerMsg::Round2 {
                ctx: 0,
                msgs: vec![r2; n],
            }
            .to_wire_bytes()
            .len();
        assert_eq!(cluster.verification_bytes_sent()[1], expect_non_leader as u64);
        assert_eq!(cluster.verification_bytes_sent()[2], expect_non_leader as u64);
        let expect_leader = 2
            * (ServerMsg::Round1Combined {
                ctx: 0,
                msgs: vec![msg; n],
            }
            .to_wire_bytes()
            .len()
                + ServerMsg::<Field64>::Decisions {
                    ctx: 0,
                    bits: pack_decisions(&vec![true; n]),
                }
                .to_wire_bytes()
                .len());
        assert_eq!(cluster.verification_bytes_sent()[0], expect_leader as u64);
    }

    #[test]
    fn interpolate_mode_agrees() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut cluster: Cluster<Field64, _> =
            Cluster::new(SumAfe::new(8), 2, VerifyMode::Interpolate);
        let mut client = Client::new(SumAfe::new(8), ClientConfig::new(2));
        for v in [100u64, 200] {
            assert!(cluster.process(&client.submit(&v, &mut rng).unwrap()));
        }
        assert_eq!(cluster.decode().unwrap(), 300);
    }
}
