//! The one way to time a protocol phase: [`PhaseClock::time`] reads the
//! clock once around a region and feeds that measurement to the
//! `server_phase_us{phase=...}` histogram, the [`PhaseTimings`] totals,
//! and — when a recorder is present — the per-batch trace span.

use prio_obs::trace::{SpanKind, TraceRecorder};
use prio_obs::{names, Histogram, Registry};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each verification phase, accumulated across
/// batches. This is the per-phase breakdown behind the Figure-5 cost
/// curves: `unpack` is dominated by PRG share expansion, `round1` by the
/// circuit re-evaluation and polynomial work, `round2` by the
/// Beaver-triple finish.
#[derive(Copy, Clone, Debug, Default)]
pub struct PhaseTimings {
    /// Blob parsing + PRG expansion into `(x, π)` shares.
    pub unpack: Duration,
    /// SNIP round 1 (wire re-derivation, `f·g·h` evaluations).
    pub round1: Duration,
    /// SNIP round 2.
    pub round2: Duration,
    /// Accumulator reveal (the publish phase).
    pub publish: Duration,
    /// Submissions these totals cover.
    pub submissions: u64,
}

/// A timed region of the per-server pipeline.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Blob parsing + share expansion.
    Unpack,
    /// SNIP round 1.
    Round1,
    /// SNIP round 2.
    Round2,
    /// Accumulator reveal.
    Publish,
}

/// Times phases for one node (a server loop, or the whole `Cluster`).
/// Interior-mutable so `Cluster::aggregate(&self)` times the same way.
pub struct PhaseClock {
    /// Indexed by `Phase as usize`.
    histograms: [Histogram; 4],
    trace: Option<Arc<TraceRecorder>>,
    node: u64,
    timings: Cell<PhaseTimings>,
}

impl PhaseClock {
    /// A clock feeding `registry` and, if given, recording `node`'s spans
    /// into `trace`.
    pub fn new(registry: &Registry, trace: Option<Arc<TraceRecorder>>, node: u64) -> PhaseClock {
        let h = |phase| registry.histogram(names::SERVER_PHASE_US, phase);
        PhaseClock {
            histograms: [
                h(&[("phase", "unpack")]),
                h(&[("phase", "round1")]),
                h(&[("phase", "round2")]),
                h(&[("phase", "publish")]),
            ],
            trace,
            node,
            timings: Cell::new(PhaseTimings::default()),
        }
    }

    /// Runs `f` as `phase` of batch `trace` (0 = out-of-batch), caused by
    /// span `parent`; returns its value and the span's id (0 if untraced).
    pub fn time<T>(
        &self,
        phase: Phase,
        trace: u64,
        parent: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.histograms[phase as usize].observe(us);
        let mut t = self.timings.get();
        let (slot, kind) = match phase {
            Phase::Unpack => (&mut t.unpack, SpanKind::Unpack),
            Phase::Round1 => (&mut t.round1, SpanKind::Round1),
            Phase::Round2 => (&mut t.round2, SpanKind::Round2),
            Phase::Publish => (&mut t.publish, SpanKind::Publish),
        };
        *slot += elapsed;
        self.timings.set(t);
        let span = self.trace.as_ref().map_or(0, |rec| {
            let start_us = rec.us_at(start);
            rec.record_span(
                trace,
                parent,
                self.node,
                kind,
                "",
                start_us,
                start_us.saturating_add(us),
            )
        });
        (out, span)
    }

    /// Counts `n` more submissions into [`PhaseTimings::submissions`].
    pub fn add_submissions(&self, n: u64) {
        let mut t = self.timings.get();
        t.submissions += n;
        self.timings.set(t);
    }

    /// The totals so far.
    pub fn timings(&self) -> PhaseTimings {
        self.timings.get()
    }

    /// Zeroes the totals (e.g. after warmup runs).
    pub fn reset(&self) {
        self.timings.set(PhaseTimings::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_measurement_reaches_histogram_timings_and_trace() {
        let registry = Registry::new();
        let rec = Arc::new(TraceRecorder::new(8));
        let clock = PhaseClock::new(&registry, Some(rec.clone()), 2);
        let ((), unpack) = clock.time(Phase::Unpack, 7, 99, || {
            std::thread::sleep(Duration::from_millis(2));
        });
        let (v, round1) = clock.time(Phase::Round1, 7, unpack, || 5);
        assert_eq!(v, 5);
        let t = clock.timings();
        assert!(t.unpack >= Duration::from_millis(2));
        assert_eq!(t.round2, Duration::ZERO);
        let snap = registry.snapshot();
        let h = snap.histogram(names::SERVER_PHASE_US, &[("phase", "unpack")]);
        assert_eq!(h.map(|h| h.count), Some(1));
        let (spans, _) = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(
            (spans[0].id, spans[0].parent, spans[0].node),
            (unpack, 99, 2)
        );
        assert_eq!((spans[1].id, spans[1].parent), (round1, unpack));
        // The span's extent is the same measurement the accumulator saw.
        assert_eq!(
            u128::from(spans[0].end_us - spans[0].start_us),
            t.unpack.as_micros()
        );
        // Untraced clocks hand out span id 0.
        let plain = PhaseClock::new(&registry, None, 0);
        assert_eq!(plain.time(Phase::Round2, 7, 0, || ()).1, 0);
    }
}
