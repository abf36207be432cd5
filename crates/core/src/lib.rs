//! The full Prio pipeline (Figure 1 / Appendix H of the paper):
//!
//! 1. **Upload** — each client AFE-encodes its private value, splits the
//!    encoding and a SNIP proof into one share per server (PRG-compressed:
//!    all but one share is a 32-byte seed, Appendix I), and sends each
//!    server its share over a sealed channel.
//! 2. **Validate** — the servers jointly verify the SNIP (two broadcast
//!    rounds, four field elements per server) and reject malformed
//!    submissions.
//! 3. **Aggregate** — each server adds the truncated encoding share of
//!    every *accepted* submission into its local accumulator.
//! 4. **Publish** — the servers reveal their accumulators; their sum is the
//!    sum of encodings, which the AFE decoder turns into the statistic.
//!
//! Steps 2–3 have one implementation, the sans-I/O
//! [`engine::BatchEngine`], and three drivers that move its messages:
//!
//! * [`cluster::Cluster`] — a deterministic simulation: `s` engines in one
//!   thread with exact byte accounting. Used by tests, examples, and the
//!   bandwidth experiment (Figure 6).
//! * [`deployment::Deployment`] — `s` server threads, each running
//!   [`run_server_loop`] (frame in → engine → frames out) over a pluggable
//!   [`prio_net`] transport (in-process sim fabric or real localhost TCP
//!   sockets, selected by [`DeploymentConfig::transport`]). Used by the
//!   throughput experiments (Figures 4 and 5, Table 9).
//! * `prio-node` processes (`prio_proc`) — the same [`run_server_loop`],
//!   one OS process per server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cluster;
pub mod driver;
pub mod deployment;
pub mod engine;
pub mod messages;
pub mod phase;
pub mod server;
pub mod server_loop;

pub use client::{Client, ClientConfig, ClientSubmission, ShareBlob};
pub use cluster::Cluster;
pub use deployment::{Deployment, DeploymentConfig, DeploymentReport};
pub use driver::{BatchDriver, BatchOutcome, DriverError};
pub use phase::PhaseTimings;
pub use server::{Server, ServerConfig};
pub use server_loop::{run_server_loop, FramePolicy, ServerLoopOptions, ServerLoopReport};
