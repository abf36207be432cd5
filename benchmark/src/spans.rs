//! The benchmark's own spans.
//!
//! Recorded from this package, around calls into the program's public
//! functions — never from inside the program, and never by reading the
//! program's `PhaseTimings`, phase histograms or `prio_obs::trace` spans,
//! which ROADMAP item 3 intends to collapse. Spans stay in memory and are
//! written out (Chrome trace-event JSON) when the run ends.

use crate::json::Json;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list;
/// `batch` is the identifier every span of one batch shares; `lane` is the
/// server the work belongs to (the Chrome `tid`), `s` for the driver.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
    pub lane: u32,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::enter`]; `None` inside when recording is off.
#[derive(Copy, Clone)]
pub struct SpanId(Option<usize>);

/// A single-threaded stack recorder: `enter` opens a span under whichever
/// span is open, `exit` closes it.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off between batches (the tracing-overhead
    /// measurement alternates). Must not be called with a span open.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggle only between spans");
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, batch: u64, lane: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.open.push(id);
        // Timestamp last, so the bookkeeping above is charged to the parent.
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            batch,
            lane,
        });
        SpanId(Some(id))
    }

    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        let Some(id) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so the rule also holds for spans
/// merged from several threads.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Chrome trace-event document (loadable in Perfetto / `chrome://tracing`):
/// one complete (`X`) event per span, microsecond timestamps, the span's
/// parent, batch and self time under `args`.
pub fn chrome_trace(workload: &str, spans: &[SpanRec]) -> Json {
    let selfs = self_times_ns(spans);
    let events = spans
        .iter()
        .zip(selfs)
        .enumerate()
        .map(|(id, (s, self_ns))| {
            Json::obj(vec![
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(f64::from(s.lane))),
                (
                    "args",
                    Json::obj(vec![
                        ("id", Json::Num(id as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("batch", Json::Num(s.batch as f64)),
                        ("self_us", Json::Num(self_ns as f64 / 1e3)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::obj(vec![
        ("displayTimeUnit", Json::str("ns")),
        (
            "otherData",
            Json::obj(vec![("workload", Json::str(workload))]),
        ),
        ("traceEvents", Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "t",
            start_ns,
            end_ns,
            parent,
            batch: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100] > child [10,60] > grandchild [20,30]
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_sibling_children() {
        // Two disjoint siblings, then two overlapping ones and one that
        // sticks out of the parent: covered time counts once, clipped.
        let spans = [
            span(0, 100, None),
            span(10, 20, Some(0)),
            span(30, 50, Some(0)),
            span(40, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        // covered = 10 + (30..70 = 40) + (90..100 = 10) = 60
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn recorder_builds_the_tree_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let batch = rec.enter("batch", 7, 3);
        let a = rec.enter("a", 7, 0);
        rec.exit(a);
        let b = rec.enter("b", 7, 1);
        let c = rec.enter("c", 7, 1);
        rec.exit(c);
        rec.exit(b);
        rec.exit(batch);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(rec
            .spans()
            .iter()
            .all(|s| s.batch == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times_ns(rec.spans());
        assert!(selfs[0] <= rec.spans()[0].dur_ns());

        rec.set_enabled(false);
        let off = rec.enter("off", 8, 0);
        rec.exit(off);
        assert_eq!(rec.spans().len(), 4);

        let doc = chrome_trace("w", rec.spans());
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(Json::parse(&doc.to_pretty()).unwrap(), doc);
    }
}
