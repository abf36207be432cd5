//! A multi-threaded Prio deployment: one OS thread per server, framed
//! messages over a pluggable transport, leader-coordinated batch
//! verification.
//!
//! This is the driver behind the throughput experiments (Figures 4 and 5,
//! Table 9): submissions are fed in batches, the servers run the two
//! SNIP broadcast rounds per batch, and the leader distributes decisions.
//! Per-batch message complexity matches the paper's deployment: the leader
//! transmits `s−1` times more than a non-leader, and adding servers leaves
//! per-server work nearly unchanged.
//!
//! The server loop is written purely against [`Endpoint`] and never learns
//! which fabric carries its bytes: [`DeploymentConfig::transport`] selects
//! the in-process sim fabric (default) or real localhost TCP sockets.

use crate::client::ClientSubmission;
use crate::driver::{BatchDriver, BatchOutcome, DriverError};
use crate::server::{Server, ServerConfig};
use crate::server_loop::{run_server_loop, ServerLoopOptions};
use prio_afe::Afe;
use prio_field::FieldElement;
use prio_net::{FaultPlan, NetStats, NodeId, RetryPolicy, TcpIoMode, Transport, TransportKind};
use prio_obs::trace::{MergedTrace, TraceRecorder};
use prio_snip::{HForm, VerifyMode};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Deployment configuration.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    /// Number of servers `s ≥ 2`.
    pub num_servers: usize,
    /// Verification strategy.
    pub verify_mode: VerifyMode,
    /// `h` transmission format clients use.
    pub h_form: HForm,
    /// Optional uniform link latency (WAN model).
    pub latency: Option<std::time::Duration>,
    /// Which fabric carries the server-to-server traffic.
    pub transport: TransportKind,
    /// How the TCP backend drives inbound connections (`Threaded` readers
    /// or the poll-based `Reactor`); ignored by the sim fabric.
    pub io_mode: TcpIoMode,
    /// Worker threads each server devotes to batched SNIP round-1
    /// verification (1 = verify inline on the server thread).
    pub verify_threads: usize,
    /// Deterministic fault injection on outbound sends. The driver
    /// endpoint is always wrapped when a plan is set; server endpoints
    /// are wrapped too only with [`DeploymentConfig::with_server_faults`].
    /// Setting a plan also arms bounded retry on every send path.
    pub fault_plan: Option<FaultPlan>,
    /// Whether the fault plan also wraps the server endpoints (server ↔
    /// server round traffic). Driver-only faults keep the sim fabric's
    /// ledger bit-replayable: the driver's outbound frame sequence is
    /// single-threaded and so seed-deterministic, while server-side round
    /// traffic interleaves with thread scheduling.
    pub fault_servers: bool,
    /// Per-batch deadline after which driver and servers symmetrically
    /// abandon a batch instead of blocking on a peer that never answers.
    pub batch_deadline: Option<std::time::Duration>,
    /// Record per-batch trace spans on every node and the driver into one
    /// shared recorder (all threads share a clock, so no offset estimation
    /// is needed); the merged timeline lands on the report.
    pub trace: bool,
}

impl DeploymentConfig {
    /// Default: `s` servers, fixed-point verification, no latency, sim
    /// fabric, inline verification.
    pub fn new(num_servers: usize) -> Self {
        DeploymentConfig {
            num_servers,
            verify_mode: VerifyMode::FixedPoint,
            h_form: HForm::PointValue,
            latency: None,
            transport: TransportKind::Sim,
            io_mode: TcpIoMode::default(),
            verify_threads: 1,
            fault_plan: None,
            fault_servers: false,
            batch_deadline: None,
            trace: false,
        }
    }

    /// Builder-style: uniform link latency (WAN model).
    pub fn with_latency(mut self, latency: std::time::Duration) -> Self {
        self.latency = Some(latency);
        self
    }

    /// Builder-style: verification strategy.
    pub fn with_verify_mode(mut self, mode: VerifyMode) -> Self {
        self.verify_mode = mode;
        self
    }

    /// Builder-style: `h` transmission format.
    pub fn with_h_form(mut self, h_form: HForm) -> Self {
        self.h_form = h_form;
        self
    }

    /// Builder-style: transport backend.
    pub fn with_transport(mut self, transport: TransportKind) -> Self {
        self.transport = transport;
        self
    }

    /// Builder-style: TCP inbound I/O mode (no effect on the sim fabric).
    pub fn with_io_mode(mut self, io_mode: TcpIoMode) -> Self {
        self.io_mode = io_mode;
        self
    }

    /// Builder-style: per-server verify worker pool size. Submission
    /// batches are chunked across the pool; decisions and accumulators are
    /// merged deterministically, so results are independent of the thread
    /// count.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_verify_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one verify thread");
        self.verify_threads = threads;
        self
    }

    /// Builder-style: seeded fault injection on the driver's outbound
    /// sends (plus the servers' with [`Self::with_server_faults`]). Arms
    /// bounded retry on every send path so transient faults are retried
    /// rather than fatal.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Builder-style: extend the fault plan to the server endpoints, so
    /// the round-protocol traffic is faulted too.
    pub fn with_server_faults(mut self) -> Self {
        self.fault_servers = true;
        self
    }

    /// Builder-style: per-batch abandon deadline for driver and servers.
    pub fn with_batch_deadline(mut self, deadline: std::time::Duration) -> Self {
        self.batch_deadline = Some(deadline);
        self
    }

    /// Builder-style: record per-batch trace spans; the merged timeline
    /// lands in [`DeploymentReport::trace`].
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Result of a deployment run.
#[derive(Clone, Debug)]
pub struct DeploymentReport {
    /// Submissions accepted.
    pub accepted: u64,
    /// Submissions rejected.
    pub rejected: u64,
    /// Submissions dropped with degraded or aborted batches.
    pub dropped: u64,
    /// `(complete, degraded, aborted)` batch outcome counts.
    pub batch_outcomes: (u64, u64, u64),
    /// The summed accumulator `σ`.
    pub sigma: Vec<u64>,
    /// Network statistics at publish time.
    pub stats: NetStats,
    /// Wall-clock time of each `run_batch` call, in order.
    pub batch_wall: Vec<std::time::Duration>,
    /// Bytes sent by each server over the whole run (index 0 = leader).
    /// Derived from the fabric so callers no longer have to map `NodeId`s
    /// back to server indices themselves.
    pub server_bytes_sent: Vec<u64>,
    /// Causally ordered span timeline, present when the deployment was
    /// started with [`DeploymentConfig::trace`].
    pub trace: Option<MergedTrace>,
}

impl DeploymentReport {
    /// Total wall-clock time spent inside `run_batch` calls.
    pub fn total_batch_wall(&self) -> std::time::Duration {
        self.batch_wall.iter().sum()
    }

    /// Leader bytes vs. the busiest non-leader — the Figure-6 asymmetry.
    /// Returns `(leader, max_non_leader)`.
    pub fn leader_vs_non_leader_bytes(&self) -> (u64, u64) {
        let leader = self.server_bytes_sent.first().copied().unwrap_or(0);
        let max_non_leader = self
            .server_bytes_sent
            .get(1..)
            .unwrap_or(&[])
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        (leader, max_non_leader)
    }
}

/// A running multi-threaded deployment.
///
/// This is a thin composition of the two shared protocol halves: a
/// [`BatchDriver`] on the driver endpoint and one
/// [`run_server_loop`] thread per server, all on one fabric. The
/// multi-process `prio_proc` subsystem runs the *same two halves* with the
/// threads replaced by OS processes.
pub struct Deployment<F: FieldElement> {
    driver: BatchDriver<F>,
    handles: Vec<JoinHandle<()>>,
    net: Arc<dyn Transport>,
    trace: Option<Arc<TraceRecorder>>,
}

impl<F: FieldElement> Deployment<F> {
    /// Spawns `s` server threads for the given AFE.
    pub fn start<A>(afe: A, cfg: DeploymentConfig) -> Self
    where
        A: Afe<F> + Clone + Send + Sync + 'static,
    {
        assert!(cfg.num_servers >= 2, "Prio needs at least two servers");
        assert!(cfg.verify_threads >= 1, "need at least one verify thread");
        let net = cfg.transport.build_io(cfg.latency, cfg.io_mode);
        let mut driver_ep = net.endpoint();
        if let Some(plan) = &cfg.fault_plan {
            driver_ep = plan.wrap(driver_ep);
        }
        let endpoints: Vec<_> = (0..cfg.num_servers)
            .map(|_| {
                let ep = net.endpoint();
                match &cfg.fault_plan {
                    Some(plan) if cfg.fault_servers => plan.wrap(ep),
                    _ => ep,
                }
            })
            .collect();
        let server_ids: Vec<NodeId> = endpoints.iter().map(|e| e.id()).collect();
        let driver_id = driver_ep.id();
        // A faulted fabric always gets bounded retry + the configured
        // abandon deadline, on both protocol halves — otherwise a single
        // injected drop would be a fatal send error instead of a fault.
        let retry = match &cfg.fault_plan {
            Some(_) => RetryPolicy::default().with_seed(0xD1),
            None => RetryPolicy::none(),
        };
        // One recorder for the whole cluster: every server thread and the
        // driver share a clock, so merged timelines need no offset
        // estimation (the multi-process deployment is where that lives).
        let recorder = cfg
            .trace
            .then(|| Arc::new(prio_obs::trace::TraceRecorder::new(prio_obs::trace::TRACE_CAPACITY)));

        let handles = endpoints
            .into_iter()
            .enumerate()
            .map(|(index, ep)| {
                let afe = afe.clone();
                let ids = server_ids.clone();
                let mut server = Server::new(
                    afe,
                    ServerConfig {
                        index,
                        num_servers: cfg.num_servers,
                        verify_mode: cfg.verify_mode,
                        h_form: cfg.h_form,
                    },
                );
                // Faulted servers also bound their idle receive: a
                // permanently dropped Shutdown frame must not wedge the
                // teardown join. 8x the batch deadline clears the
                // driver's worst inter-batch gap (one full abandoned
                // batch plus client-side work) with a wide margin.
                let idle_deadline = match (&cfg.fault_plan, cfg.batch_deadline) {
                    (Some(_), Some(d)) => Some(d * 8),
                    (Some(_), None) => Some(std::time::Duration::from_secs(16)),
                    (None, _) => None,
                };
                let opts = ServerLoopOptions {
                    verify_threads: cfg.verify_threads,
                    batch_deadline: cfg.batch_deadline,
                    retry: retry.clone(),
                    idle_deadline,
                    trace: recorder.clone(),
                    ..ServerLoopOptions::default()
                };
                std::thread::spawn(move || {
                    run_server_loop(&mut server, &ep, &ids, driver_id, opts);
                })
            })
            .collect();

        let mut driver = BatchDriver::new(driver_ep, server_ids).with_retry(retry);
        if let Some(rec) = &recorder {
            driver = driver.with_trace(rec.clone());
        }
        if let Some(deadline) = cfg.batch_deadline {
            driver = driver.with_batch_deadline(deadline);
        }
        if cfg.fault_plan.is_some() {
            // Bound the publish gather too: a permanently dropped
            // accumulator must surface as a typed timeout, not a hang.
            let publish_bound = cfg
                .batch_deadline
                .unwrap_or(std::time::Duration::from_secs(2));
            driver = driver.with_timeout(publish_bound);
        }
        Deployment {
            driver,
            handles,
            net,
            trace: recorder,
        }
    }

    /// Feeds a batch of submissions through the cluster; blocks until the
    /// leader reports the accept/reject decisions. Returns the decisions.
    pub fn run_batch(&mut self, subs: &[ClientSubmission<F>]) -> Vec<bool> {
        self.driver.run_batch(subs).expect("servers alive")
    }

    /// Feeds a batch and returns its typed outcome instead of panicking
    /// on degradation — the entry point for faulted deployments, where
    /// `Degraded` is an expected result, not a failure.
    pub fn run_batch_outcome(
        &mut self,
        subs: &[ClientSubmission<F>],
    ) -> Result<BatchOutcome, DriverError> {
        self.driver.run_batch_outcome(subs)
    }

    /// Submissions dropped with degraded or aborted batches so far.
    pub fn dropped(&self) -> u64 {
        self.driver.dropped()
    }

    /// `(complete, degraded, aborted)` batch outcome counts so far.
    pub fn outcome_counts(&self) -> (u64, u64, u64) {
        self.driver.outcome_counts()
    }

    /// Wall-clock durations of the batches run so far.
    pub fn batch_wall(&self) -> &[std::time::Duration] {
        self.driver.batch_wall()
    }

    /// Publishes the accumulators and shuts the servers down.
    pub fn finish(mut self) -> DeploymentReport {
        let sigma = self.driver.publish().expect("servers alive at publish");
        self.teardown(sigma)
    }

    /// [`Self::finish`] for faulted fabrics: a publish exchange lost to
    /// injected drops (request or accumulator gone after the full retry
    /// budget) degrades to an empty aggregate instead of panicking, so
    /// the exactness ledger — which is accumulated batch by batch, not
    /// at publish — still comes back intact. The join stays bounded:
    /// faulted servers carry an idle deadline, so even a server whose
    /// `Shutdown` frame was eaten exits on its own.
    pub fn finish_lossy(mut self) -> DeploymentReport {
        let sigma = self.driver.publish().unwrap_or_default();
        self.teardown(sigma)
    }

    fn teardown(self, sigma: Vec<F>) -> DeploymentReport {
        self.driver.shutdown();
        for h in self.handles {
            let _ = h.join();
        }
        // All recording threads have joined, so the drain sees every span.
        let trace = self.trace.as_ref().map(|rec| {
            let (spans, dropped) = rec.drain();
            MergedTrace::from_single_clock(spans, dropped)
        });
        let stats = self.net.stats();
        let server_bytes_sent = self
            .driver
            .server_ids()
            .iter()
            .map(|id| stats.bytes_sent.get(id).copied().unwrap_or(0))
            .collect();
        DeploymentReport {
            accepted: self.driver.accepted(),
            rejected: self.driver.rejected(),
            dropped: self.driver.dropped(),
            batch_outcomes: self.driver.outcome_counts(),
            sigma: sigma
                .iter()
                .map(|v| v.try_to_u128().map(|x| x as u64).unwrap_or(u64::MAX))
                .collect(),
            stats,
            batch_wall: self.driver.batch_wall().to_vec(),
            server_bytes_sent,
            trace,
        }
    }

    /// The fabric the servers communicate over, for live stats snapshots.
    pub fn network(&self) -> &dyn Transport {
        &*self.net
    }

    /// Server node ids (index 0 = leader).
    pub fn server_ids(&self) -> &[NodeId] {
        self.driver.server_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig, ShareBlob};
    use prio_afe::sum::SumAfe;
    use prio_field::Field64;
    use rand::SeedableRng;

    #[test]
    fn threaded_end_to_end() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let afe = SumAfe::new(4);
        let mut deployment: Deployment<Field64> =
            Deployment::start(afe, DeploymentConfig::new(3));
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let values = [1u64, 2, 3, 4, 5, 15];
        let subs: Vec<_> = values
            .iter()
            .map(|v| client.submit(v, &mut rng).unwrap())
            .collect();
        let decisions = deployment.run_batch(&subs);
        assert!(decisions.iter().all(|&d| d));
        let report = deployment.finish();
        assert_eq!(report.accepted, 6);
        assert_eq!(report.sigma[0], 30);
    }

    #[test]
    fn threaded_rejects_cheater() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let afe = SumAfe::new(4);
        let mut deployment: Deployment<Field64> =
            Deployment::start(afe, DeploymentConfig::new(2));
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        let good = client.submit(&7, &mut rng).unwrap();
        let mut bad = client.submit(&1, &mut rng).unwrap();
        if let ShareBlob::Explicit(v) = &mut bad.blobs[1] {
            v[0] += Field64::from_u64(500);
        }
        let decisions = deployment.run_batch(&[good, bad]);
        assert_eq!(decisions, vec![true, false]);
        let report = deployment.finish();
        assert_eq!(report.accepted, 1);
        assert_eq!(report.rejected, 1);
        assert_eq!(report.sigma[0], 7);
    }

    #[test]
    fn threaded_end_to_end_over_tcp() {
        // The same pipeline as `threaded_end_to_end`, but every message
        // crosses a real localhost socket.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let afe = SumAfe::new(4);
        let cfg = DeploymentConfig::new(3).with_transport(TransportKind::Tcp);
        let mut deployment: Deployment<Field64> = Deployment::start(afe, cfg);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let values = [1u64, 2, 3, 4, 5, 15];
        let subs: Vec<_> = values
            .iter()
            .map(|v| client.submit(v, &mut rng).unwrap())
            .collect();
        let decisions = deployment.run_batch(&subs);
        assert!(decisions.iter().all(|&d| d));
        let report = deployment.finish();
        assert_eq!(report.accepted, 6);
        assert_eq!(report.sigma[0], 30);
        // Byte accounting flows through the TCP fabric too.
        assert_eq!(report.server_bytes_sent.len(), 3);
        assert!(report.server_bytes_sent.iter().all(|&b| b > 0));
    }

    #[test]
    fn reactor_end_to_end_over_tcp() {
        // Same pipeline again, with the servers' inbound side multiplexed
        // by the poll reactor instead of thread-per-connection readers.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let afe = SumAfe::new(4);
        let cfg = DeploymentConfig::new(3)
            .with_transport(TransportKind::Tcp)
            .with_io_mode(TcpIoMode::Reactor);
        let mut deployment: Deployment<Field64> = Deployment::start(afe, cfg);
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
        let values = [1u64, 2, 3, 4, 5, 15];
        let subs: Vec<_> = values
            .iter()
            .map(|v| client.submit(v, &mut rng).unwrap())
            .collect();
        let decisions = deployment.run_batch(&subs);
        assert!(decisions.iter().all(|&d| d));
        let report = deployment.finish();
        assert_eq!(report.accepted, 6);
        assert_eq!(report.sigma[0], 30);
        assert!(report.server_bytes_sent.iter().all(|&b| b > 0));
    }

    #[test]
    fn tcp_tolerates_cross_sender_reordering() {
        // Over TCP each sender has its own connection and no cross-sender
        // ordering: the driver's PublishRequest can overtake the leader's
        // Decisions at a non-leader. Many short deployments give the race
        // plenty of chances; the loop must stay panic- and deadlock-free
        // and the counts exact (regression test for the message stash in
        // the server loop's receive).
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for round in 0..8 {
            let afe = SumAfe::new(4);
            let cfg = DeploymentConfig::new(3).with_transport(TransportKind::Tcp);
            let mut deployment: Deployment<Field64> = Deployment::start(afe, cfg);
            let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
            for _ in 0..2 {
                let subs: Vec<_> = (0..3u64)
                    .map(|v| client.submit(&v, &mut rng).unwrap())
                    .collect();
                assert!(deployment.run_batch(&subs).iter().all(|&d| d));
            }
            let report = deployment.finish();
            assert_eq!(report.accepted, 6, "round {round}");
        }
    }

    #[test]
    fn traced_sim_runs_replay_identical_span_trees() {
        // Two seeded runs over the sim fabric must produce the same span
        // tree — ids, parentage, kinds, phases, ordering — with only the
        // durations free to differ (ids are content-addressed and parents
        // ride the frames, so any divergence means nondeterministic
        // propagation).
        let tree = |seed: u64| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let afe = SumAfe::new(4);
            let cfg = DeploymentConfig::new(3).with_trace();
            let mut deployment: Deployment<Field64> = Deployment::start(afe, cfg);
            let mut client = Client::new(SumAfe::new(4), ClientConfig::new(3));
            for _ in 0..2 {
                let subs: Vec<_> = (0..3u64)
                    .map(|v| client.submit(&v, &mut rng).unwrap())
                    .collect();
                deployment.run_batch(&subs);
            }
            let report = deployment.finish();
            let trace = report.trace.expect("traced deployment yields a trace");
            assert_eq!(trace.dropped, 0);
            let mut shape: Vec<_> = trace
                .spans
                .iter()
                .map(|s| (s.trace, s.node, s.kind.name(), s.phase, s.id, s.parent))
                .collect();
            shape.sort_unstable();
            shape
        };
        let a = tree(5);
        let b = tree(5);
        assert!(!a.is_empty());
        assert_eq!(a, b);
        // Spans from every server and the driver (node 3) are present.
        let nodes: std::collections::HashSet<u64> = a.iter().map(|t| t.1).collect();
        assert_eq!(nodes, (0..4).collect());
    }

    #[test]
    fn untraced_deployment_reports_no_trace() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let afe = SumAfe::new(4);
        let mut deployment: Deployment<Field64> =
            Deployment::start(afe, DeploymentConfig::new(2));
        let mut client = Client::new(SumAfe::new(4), ClientConfig::new(2));
        let subs = vec![client.submit(&3u64, &mut rng).unwrap()];
        deployment.run_batch(&subs);
        let report = deployment.finish();
        assert!(report.trace.is_none());
    }

    #[test]
    fn multiple_batches_accumulate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let afe = SumAfe::new(8);
        let mut deployment: Deployment<Field64> =
            Deployment::start(afe, DeploymentConfig::new(4));
        let mut client = Client::new(SumAfe::new(8), ClientConfig::new(4));
        let mut expect = 0u64;
        for batch in 0..3 {
            let subs: Vec<_> = (0..4u64)
                .map(|i| {
                    let v = batch * 10 + i;
                    expect += v;
                    client.submit(&v, &mut rng).unwrap()
                })
                .collect();
            deployment.run_batch(&subs);
        }
        let report = deployment.finish();
        assert_eq!(report.accepted, 12);
        assert_eq!(report.sigma[0], expect);
        // Leader sent more bytes than any non-leader (star topology).
        let (leader, non_leader) = report.leader_vs_non_leader_bytes();
        assert!(leader >= non_leader, "{leader} vs {non_leader}");
        // One wall-time entry per batch, and per-server byte counts for
        // every server.
        assert_eq!(report.batch_wall.len(), 3);
        assert!(report.total_batch_wall() > std::time::Duration::ZERO);
        assert_eq!(report.server_bytes_sent.len(), 4);
    }
}
