//! Distributed per-batch tracing: span records, the bounded lock-free
//! [`TraceRecorder`], cross-node timeline merging, critical-path
//! attribution, and the Chrome trace-event exporter.
//!
//! The design mirrors the metrics registry's hot-path discipline: a
//! recording site claims a ring slot with one relaxed atomic
//! `fetch_add`, writes the span, and never blocks another recorder (each
//! claimed slot has exactly one writer). Overflow is drop-and-count —
//! the first `capacity` spans are kept, the rest increment
//! `trace_spans_dropped_total` — so a traced flood cannot amplify into
//! unbounded RAM.
//!
//! Identity is deterministic by construction: a trace id is the batch's
//! `ctx_seed`, and a span id is an FNV-1a hash of
//! `(trace, node, kind, phase)`. Each such tuple occurs at most once per
//! batch, so two runs of the same seeded scenario produce identical span
//! trees (ids, parentage) even though durations differ.
//!
//! Timestamps are node-monotonic (µs since the recorder's epoch). Nodes
//! in different processes have different epochs; the merge step aligns
//! them with a handshake-derived clock offset estimate and then enforces
//! happens-before from the parent edges (a child span recorded on a
//! frame-recv edge can never start before the sending span), which is
//! the authority wall clocks cannot provide.

use crate::json::{self, write_escaped, JVal};
use crate::metrics::{lock, Counter, Registry};
use crate::names;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Schema tag stamped into every trace exposition (the `GetTraces`
/// control reply, the bench `trace` block, and Chrome-export metadata).
pub const TRACE_SCHEMA: &str = "prio-trace/v1";

/// Default per-node span-buffer capacity. At ~8 spans per batch per node
/// this covers hundreds of batches; anything beyond is counted, not
/// stored. The resulting `GetTraces` reply stays far below the control
/// plane's 1 MiB frame cap (each span serializes to well under 200
/// bytes).
pub const TRACE_CAPACITY: usize = 4096;

/// Ceiling on spans accepted when *parsing* a trace exposition: the
/// bytes come off the control plane, so the parser must not let a
/// hostile length amplify allocation. Matches the frame-cap math:
/// `CTRL_MAX_FRAME / minimum-span-encoding` with slack.
pub const TRACE_PARSE_MAX_SPANS: usize = 16 * 1024;

/// The per-batch trace context that rides data-plane frames: which
/// batch this frame belongs to and which span caused it to be sent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceCtx {
    /// Trace id — the batch `ctx_seed` (0 is reserved for untraced /
    /// out-of-batch work such as publish).
    pub trace: u64,
    /// Span id of the sending-side span that caused this frame.
    pub parent: u64,
}

/// What a span measured. `GatherWait` spans carry the awaited phase in
/// [`SpanRecord::phase`]; compute spans leave it empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKind {
    /// The driver-side whole-batch span (root of a batch's tree).
    Batch,
    /// Decoding and splitting a client batch on a server.
    Unpack,
    /// SNIP verification round 1 on a server.
    Round1,
    /// SNIP verification round 2 on a server.
    Round2,
    /// Publishing accumulator shares (out-of-batch; trace id 0).
    Publish,
    /// Blocking on frames from peers (the network-wait edge).
    GatherWait,
}

impl SpanKind {
    /// Stable wire/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Batch => "batch",
            SpanKind::Unpack => "unpack",
            SpanKind::Round1 => "round1",
            SpanKind::Round2 => "round2",
            SpanKind::Publish => "publish",
            SpanKind::GatherWait => "gather-wait",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<SpanKind> {
        Some(match name {
            "batch" => SpanKind::Batch,
            "unpack" => SpanKind::Unpack,
            "round1" => SpanKind::Round1,
            "round2" => SpanKind::Round2,
            "publish" => SpanKind::Publish,
            "gather-wait" => SpanKind::GatherWait,
            _ => return None,
        })
    }

    fn code(self) -> u64 {
        match self {
            SpanKind::Batch => 1,
            SpanKind::Unpack => 2,
            SpanKind::Round1 => 3,
            SpanKind::Round2 => 4,
            SpanKind::Publish => 5,
            SpanKind::GatherWait => 6,
        }
    }
}

/// The phase attributes a `GatherWait` span may carry. Phase strings in
/// parsed expositions are folded onto these statics so `SpanRecord` can
/// stay allocation-free on the record path.
const KNOWN_PHASES: &[&str] = &["", "round1", "round1combined", "round2", "decisions"];

fn intern_phase(s: &str) -> &'static str {
    KNOWN_PHASES.iter().find(|&&p| p == s).copied().unwrap_or("")
}

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Deterministic span id ([`span_id`]); never 0.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Trace id (batch `ctx_seed`; 0 = out-of-batch).
    pub trace: u64,
    /// Recording node (server index; the driver uses `num_servers`).
    pub node: u64,
    /// What was measured.
    pub kind: SpanKind,
    /// Phase attribute for `GatherWait` spans; empty otherwise.
    pub phase: &'static str,
    /// Start, µs since the recording node's epoch.
    pub start_us: u64,
    /// End, µs since the recording node's epoch (`>= start_us`).
    pub end_us: u64,
}

/// Deterministic span id: FNV-1a over `(trace, node, kind, phase)`.
/// Each tuple occurs at most once per batch, so no sequence number is
/// needed and two seeded runs agree on every id. Never returns 0 (0
/// means "no parent").
pub fn span_id(trace: u64, node: u64, kind: SpanKind, phase: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&trace.to_le_bytes());
    eat(&node.to_le_bytes());
    eat(&kind.code().to_le_bytes());
    eat(phase.as_bytes());
    if h == 0 {
        1
    } else {
        h
    }
}

/// The bounded, lock-free-on-the-hot-path span buffer: a fixed ring of
/// slots claimed with a relaxed atomic cursor. Overflow spans are
/// dropped and counted (`trace_spans_dropped_total`), never stored.
pub struct TraceRecorder {
    enabled: AtomicBool,
    epoch: Instant,
    cursor: AtomicUsize,
    slots: Vec<Mutex<Option<SpanRecord>>>,
    dropped: AtomicU64,
    dropped_counter: Counter,
}

impl std::fmt::Debug for TraceRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRecorder")
            .field("capacity", &self.slots.len())
            .field("enabled", &self.enabled.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl TraceRecorder {
    /// An enabled recorder with the given slot capacity (in-process
    /// deployments and tests pin one of these per cluster).
    pub fn new(capacity: usize) -> TraceRecorder {
        TraceRecorder {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            cursor: AtomicUsize::new(0),
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            dropped: AtomicU64::new(0),
            dropped_counter: Registry::global().counter(names::TRACE_SPANS_DROPPED, &[]),
        }
    }

    /// The process-wide recorder ([`TRACE_CAPACITY`] slots), created
    /// *disabled*: a `prio-node` enables it at startup when its
    /// `NodeConfig` asks for tracing, which also pins the epoch near
    /// process start (what the orchestrator's clock-offset estimate
    /// assumes).
    pub fn global() -> &'static Arc<TraceRecorder> {
        static GLOBAL: std::sync::OnceLock<Arc<TraceRecorder>> = std::sync::OnceLock::new();
        GLOBAL.get_or_init(|| {
            let r = TraceRecorder::new(TRACE_CAPACITY);
            r.enabled.store(false, Ordering::Relaxed);
            Arc::new(r)
        })
    }

    /// Turns recording on (idempotent).
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether [`TraceRecorder::record`] currently stores spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Microseconds since this recorder's epoch (node-monotonic).
    pub fn now_us(&self) -> u64 {
        self.us_at(Instant::now())
    }

    /// `t` on this recorder's clock: microseconds since its epoch (0 for
    /// an instant before it). Lets a caller that already read the clock
    /// place a span without reading it again.
    pub fn us_at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_micros()).unwrap_or(u64::MAX)
    }

    /// Records a span. One relaxed `fetch_add` claims a slot; a claimed
    /// slot has exactly one writer, so the per-slot mutex is
    /// uncontended on the record path (it exists for the collector).
    /// Past capacity: drop and count.
    pub fn record(&self, rec: SpanRecord) {
        if !self.is_enabled() {
            return;
        }
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        match self.slots.get(idx) {
            Some(slot) => *lock(slot) = Some(rec),
            None => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.dropped_counter.inc();
            }
        }
    }

    /// Computes the deterministic id, records the span, and returns the
    /// id (which callers chain as the parent of follow-on spans whether
    /// or not the record was kept).
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        trace: u64,
        parent: u64,
        node: u64,
        kind: SpanKind,
        phase: &'static str,
        start_us: u64,
        end_us: u64,
    ) -> u64 {
        let id = span_id(trace, node, kind, phase);
        self.record(SpanRecord {
            id,
            parent,
            trace,
            node,
            kind,
            phase,
            start_us,
            end_us: end_us.max(start_us),
        });
        id
    }

    /// Spans dropped to the overflow policy so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Copies out every stored span plus the dropped count, without
    /// resetting.
    pub fn snapshot(&self) -> (Vec<SpanRecord>, u64) {
        let end = self.cursor.load(Ordering::Relaxed).min(self.slots.len());
        let mut spans = Vec::with_capacity(end);
        for slot in self.slots.iter().take(end) {
            if let Some(rec) = *lock(slot) {
                spans.push(rec);
            }
        }
        (spans, self.dropped())
    }

    /// Takes every stored span and resets the ring (the bench harness
    /// reuses one recorder across scenarios). Callers must quiesce
    /// recording threads first; a record racing a drain may land in
    /// either collection.
    pub fn drain(&self) -> (Vec<SpanRecord>, u64) {
        let end = self.cursor.load(Ordering::Relaxed).min(self.slots.len());
        let mut spans = Vec::with_capacity(end);
        for slot in self.slots.iter().take(end) {
            if let Some(rec) = lock(slot).take() {
                spans.push(rec);
            }
        }
        self.cursor.store(0, Ordering::Relaxed);
        let dropped = self.dropped.swap(0, Ordering::Relaxed);
        (spans, dropped)
    }
}

/// One node's span buffer as collected over the control plane (or
/// exported by the driver): spans on that node's clock plus the offset
/// the collector estimated for aligning it onto the orchestrator's
/// clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeTrace {
    /// The node the buffer came from.
    pub node: u64,
    /// Estimated µs to *add* to this node's timestamps to land on the
    /// collector's clock (handshake midpoint estimate; 0 in-process).
    pub clock_offset_us: i64,
    /// Spans dropped by the node's overflow policy.
    pub dropped: u64,
    /// The stored spans.
    pub spans: Vec<SpanRecord>,
}

impl NodeTrace {
    /// Serializes for the `GetTraces` control reply / `PRIO-TRACE`
    /// stdout line. Compact single-line JSON; bounded by the recorder
    /// capacity, so it always fits a control frame.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"schema\": ");
        write_escaped(&mut out, TRACE_SCHEMA);
        let _ = write!(out, ", \"node\": {}, \"dropped\": {}, \"spans\": [", self.node, self.dropped);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"node\": {}, \"kind\": ",
                s.id, s.parent, s.trace, s.node
            );
            write_escaped(&mut out, s.kind.name());
            out.push_str(", \"phase\": ");
            write_escaped(&mut out, s.phase);
            let _ = write!(out, ", \"start_us\": {}, \"end_us\": {}}}", s.start_us, s.end_us);
        }
        out.push_str("]}");
        out
    }

    /// Parses a [`NodeTrace::to_json`] document. The bytes come off the
    /// control plane: every malformation is a typed error, allocation is
    /// bounded by [`TRACE_PARSE_MAX_SPANS`], and nothing panics.
    pub fn from_json(text: &str) -> Result<NodeTrace, &'static str> {
        let doc = json::parse(text)?;
        if doc.get("schema").and_then(JVal::as_str) != Some(TRACE_SCHEMA) {
            return Err("missing or unknown trace schema");
        }
        let node = doc.get("node").and_then(JVal::as_u64).ok_or("trace lacks a node id")?;
        let dropped = doc.get("dropped").and_then(JVal::as_u64).unwrap_or(0);
        let raw = doc.get("spans").and_then(JVal::as_arr).ok_or("trace lacks a spans array")?;
        if raw.len() > TRACE_PARSE_MAX_SPANS {
            return Err("trace span list exceeds parse cap");
        }
        let mut spans = Vec::with_capacity(raw.len());
        for s in raw {
            let field = |k: &str| s.get(k).and_then(JVal::as_u64);
            let kind = s
                .get("kind")
                .and_then(JVal::as_str)
                .and_then(SpanKind::from_name)
                .ok_or("span lacks a known kind")?;
            let phase = intern_phase(s.get("phase").and_then(JVal::as_str).unwrap_or(""));
            let start_us = field("start_us").ok_or("span lacks start_us")?;
            let end_us = field("end_us").ok_or("span lacks end_us")?;
            if end_us < start_us {
                return Err("span ends before it starts");
            }
            spans.push(SpanRecord {
                id: field("id").ok_or("span lacks an id")?,
                parent: field("parent").ok_or("span lacks a parent")?,
                trace: field("trace").ok_or("span lacks a trace id")?,
                node: field("node").unwrap_or(node),
                kind,
                phase,
                start_us,
                end_us,
            });
        }
        Ok(NodeTrace {
            node,
            clock_offset_us: 0,
            dropped,
            spans,
        })
    }
}

/// A cluster-wide timeline on one clock: per-node buffers after clock
/// alignment and happens-before enforcement, sorted by start time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MergedTrace {
    /// All spans, aligned and sorted by `(start_us, trace, node, id)`.
    pub spans: Vec<SpanRecord>,
    /// Total spans dropped across all nodes.
    pub dropped: u64,
}

impl MergedTrace {
    /// Builds a timeline from spans that already share one clock (the
    /// in-process sim/tcp deployments, where every node thread records
    /// into one recorder).
    pub fn from_single_clock(spans: Vec<SpanRecord>, dropped: u64) -> MergedTrace {
        let mut spans = spans;
        sort_spans(&mut spans);
        MergedTrace { spans, dropped }
    }
}

fn sort_spans(spans: &mut [SpanRecord]) {
    spans.sort_by(|a, b| {
        (a.start_us, a.trace, a.node, a.id).cmp(&(b.start_us, b.trace, b.node, b.id))
    });
}

/// Merges per-node buffers onto one clock. Two steps:
///
/// 1. Apply each buffer's handshake-derived `clock_offset_us` estimate.
/// 2. Enforce happens-before from the parent edges. The constraint
///    depends on the child's kind: a `gather-wait` span's parent is the
///    span whose frame it waited for, and that frame was sent after the
///    parent closed and received before the wait closed — so the wait
///    cannot *end* before its parent ends (it may legitimately *start*
///    earlier: the waiter sits idle while the sender still computes).
///    Any other cross-node child records work triggered by a frame sent
///    after its parent started, so it cannot start before the parent
///    starts. Where the estimate disagrees, the child's whole buffer is
///    shifted later (bounded passes; per-node shifts only grow, so the
///    pass count bounds work even if an exposition is adversarially
///    cyclic).
///
/// Wall clocks suggest; frame edges decide.
pub fn merge_traces(nodes: &[NodeTrace]) -> MergedTrace {
    let mut shift: Vec<i64> = nodes.iter().map(|n| n.clock_offset_us).collect();
    // Span id -> (buffer index, start_us, end_us on its own clock).
    let mut owner: std::collections::BTreeMap<u64, (usize, u64, u64)> =
        std::collections::BTreeMap::new();
    for (bi, n) in nodes.iter().enumerate() {
        for s in &n.spans {
            owner.entry(s.id).or_insert((bi, s.start_us, s.end_us));
        }
    }
    let passes = nodes.len().saturating_mul(2).max(2);
    for _ in 0..passes {
        let mut changed = false;
        for (ci, n) in nodes.iter().enumerate() {
            for s in &n.spans {
                if s.parent == 0 {
                    continue;
                }
                if let Some(&(pi, pstart, pend)) = owner.get(&s.parent) {
                    if pi == ci {
                        continue;
                    }
                    // send/recv edge: ends for gather-waits, starts
                    // otherwise (see above).
                    let (child_t, parent_t) = if s.kind == SpanKind::GatherWait {
                        (s.end_us, pend)
                    } else {
                        (s.start_us, pstart)
                    };
                    let child = i64::try_from(child_t).unwrap_or(i64::MAX)
                        .saturating_add(shift[ci]);
                    let parent = i64::try_from(parent_t).unwrap_or(i64::MAX)
                        .saturating_add(shift[pi]);
                    if child < parent {
                        shift[ci] = shift[ci].saturating_add(parent - child);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    let mut spans = Vec::new();
    let mut dropped = 0u64;
    for (bi, n) in nodes.iter().enumerate() {
        dropped = dropped.saturating_add(n.dropped);
        for s in &n.spans {
            let apply = |t: u64| -> u64 {
                let shifted = i64::try_from(t).unwrap_or(i64::MAX).saturating_add(shift[bi]);
                u64::try_from(shifted.max(0)).unwrap_or(0)
            };
            let mut s = *s;
            s.start_us = apply(s.start_us);
            s.end_us = apply(s.end_us).max(s.start_us);
            spans.push(s);
        }
    }
    sort_spans(&mut spans);
    MergedTrace { spans, dropped }
}

/// Per-node cost attribution inside batches.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeCost {
    /// The node.
    pub node: u64,
    /// Σ durations of its compute spans (unpack/round1/round2).
    pub compute_us: u64,
    /// Σ durations of its gather-wait spans.
    pub wait_us: u64,
}

/// Where batch wall time went: the critical node's compute vs.
/// network-wait split, summed over batches, plus the per-node totals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CriticalPath {
    /// Distinct batches (trace ids ≠ 0) seen.
    pub batches: u64,
    /// Σ over batches of the critical node's compute time.
    pub compute_us: u64,
    /// Σ over batches of the critical node's network-wait time.
    pub network_wait_us: u64,
    /// Σ of driver batch-span durations (fallback: trace extent).
    pub batch_wall_us: u64,
    /// Per-node totals across all batches, sorted by node.
    pub per_node: Vec<NodeCost>,
}

/// Attributes each batch's wall time: per batch, every node's in-batch
/// spans split into compute (unpack/round1/round2) and network-wait
/// (gather-wait); the node with the largest busy time *among nodes that
/// computed in the batch* is the critical node, and its split is what the
/// batch "spent". A node with no compute span — the driver, whose one
/// `decisions` wait covers the whole batch — is on nobody's critical
/// path: picking it would report a batch that computed nothing. Spans
/// with trace id 0 (publish, out-of-batch) are excluded.
pub fn critical_path(spans: &[SpanRecord]) -> CriticalPath {
    use std::collections::BTreeMap;
    // (trace, node) -> (compute, wait); trace -> wall.
    let mut costs: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    let mut wall: BTreeMap<u64, u64> = BTreeMap::new();
    let mut extent: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in spans {
        if s.trace == 0 {
            continue;
        }
        let dur = s.end_us.saturating_sub(s.start_us);
        match s.kind {
            SpanKind::Batch => {
                let w = wall.entry(s.trace).or_insert(0);
                *w = (*w).max(dur);
            }
            SpanKind::Unpack | SpanKind::Round1 | SpanKind::Round2 => {
                costs.entry((s.trace, s.node)).or_insert((0, 0)).0 += dur;
            }
            SpanKind::GatherWait => {
                costs.entry((s.trace, s.node)).or_insert((0, 0)).1 += dur;
            }
            SpanKind::Publish => {}
        }
        let e = extent.entry(s.trace).or_insert((u64::MAX, 0));
        e.0 = e.0.min(s.start_us);
        e.1 = e.1.max(s.end_us);
    }
    let mut out = CriticalPath::default();
    let mut per_node: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let traces: std::collections::BTreeSet<u64> = extent.keys().copied().collect();
    for &t in &traces {
        out.batches += 1;
        out.batch_wall_us = out.batch_wall_us.saturating_add(match wall.get(&t) {
            Some(&w) => w,
            None => extent.get(&t).map(|&(lo, hi)| hi.saturating_sub(lo)).unwrap_or(0),
        });
        let mut best: Option<(u64, u64, u64)> = None; // (busy, compute, wait)
        // The range bound pins the trace component, so only the per-node
        // costs of batch `t` are visible here.
        for (_, &(c, w)) in costs.range((t, 0)..=(t, u64::MAX)) {
            if c == 0 {
                continue;
            }
            let busy = c.saturating_add(w);
            if best.map(|(b, _, _)| busy > b).unwrap_or(true) {
                best = Some((busy, c, w));
            }
        }
        if let Some((_, c, w)) = best {
            out.compute_us = out.compute_us.saturating_add(c);
            out.network_wait_us = out.network_wait_us.saturating_add(w);
        }
    }
    for (&(_, node), &(c, w)) in &costs {
        let e = per_node.entry(node).or_insert((0, 0));
        e.0 = e.0.saturating_add(c);
        e.1 = e.1.saturating_add(w);
    }
    out.per_node = per_node
        .into_iter()
        .map(|(node, (compute_us, wait_us))| NodeCost {
            node,
            compute_us,
            wait_us,
        })
        .collect();
    out
}

/// Exports a merged timeline as Chrome trace-event JSON (the
/// `{"traceEvents": [...]}` array form; loads in Perfetto /
/// `chrome://tracing`). Events are complete (`ph: "X"`) with `ts`/`dur`
/// in µs, `pid` = node, `tid` = trace (batch), and the span identity in
/// `args`. The critical-path breakdown rides in `metadata`.
pub fn to_chrome_json(merged: &MergedTrace) -> String {
    let cp = critical_path(&merged.spans);
    let mut out = String::new();
    out.push_str("{\"traceEvents\": [");
    for (i, s) in merged.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        let name = if s.phase.is_empty() {
            s.kind.name().to_string()
        } else {
            format!("{}:{}", s.kind.name(), s.phase)
        };
        write_escaped(&mut out, &name);
        let _ = write!(
            out,
            ", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \"tid\": {}, \"args\": {{\"id\": {}, \"parent\": {}, \"trace\": {}}}}}",
            s.start_us,
            s.end_us.saturating_sub(s.start_us),
            s.node,
            s.trace,
            s.id,
            s.parent,
            s.trace
        );
    }
    out.push_str("], \"displayTimeUnit\": \"ms\", \"metadata\": {\"schema\": ");
    write_escaped(&mut out, TRACE_SCHEMA);
    let _ = write!(
        out,
        ", \"dropped\": {}, \"critical_path\": {{\"batches\": {}, \"compute_us\": {}, \"network_wait_us\": {}, \"batch_wall_us\": {}, \"per_node\": [",
        merged.dropped, cp.batches, cp.compute_us, cp.network_wait_us, cp.batch_wall_us
    );
    for (i, n) in cp.per_node.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{{\"node\": {}, \"compute_us\": {}, \"wait_us\": {}}}",
            n.node, n.compute_us, n.wait_us
        );
    }
    out.push_str("]}}}");
    out
}

/// What `check_chrome_json` verified (for reporting).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChromeCheck {
    /// Events in the file.
    pub events: u64,
    /// Distinct nodes (`pid`s) seen.
    pub nodes: u64,
    /// Distinct batches (`tid`s ≠ 0) seen.
    pub batches: u64,
}

/// Validates a Chrome trace-event JSON export: structure, unique span
/// ids, resolvable acyclic parent edges, no span ending before it
/// starts, causal order (no recv before its send: a `gather-wait` span
/// cannot end before the parent span it waited for ends, any other
/// child cannot start before its parent starts), and — when the
/// critical-path metadata is present — that the attributed compute +
/// network-wait totals sum to within the batch wall time (10% + 1 ms per
/// batch tolerance for measurement overlap).
pub fn check_chrome_json(text: &str) -> Result<ChromeCheck, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JVal::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("traceEvents is empty".to_string());
    }
    // Span id -> (parent, ts, end, is_gather_wait).
    let mut ids: std::collections::BTreeMap<u64, (u64, u64, u64, bool)> =
        std::collections::BTreeMap::new();
    let mut nodes = std::collections::BTreeSet::new();
    let mut batches = std::collections::BTreeSet::new();
    // Pass 1: shape, uniqueness, end >= start.
    for e in events {
        let name = e.get("name").and_then(JVal::as_str).ok_or("event lacks a name")?;
        if e.get("ph").and_then(JVal::as_str) != Some("X") {
            return Err(format!("event {name:?} is not a complete (ph=X) event"));
        }
        let ts = e.get("ts").and_then(JVal::as_u64).ok_or("event lacks a u64 ts")?;
        let Some(dur) = e.get("dur").and_then(JVal::as_u64) else {
            return Err(format!("event {name:?} lacks a non-negative dur (ends before it starts?)"));
        };
        let pid = e.get("pid").and_then(JVal::as_u64).ok_or("event lacks a pid")?;
        let tid = e.get("tid").and_then(JVal::as_u64).ok_or("event lacks a tid")?;
        let args = e.get("args").ok_or("event lacks args")?;
        let id = args.get("id").and_then(JVal::as_u64).ok_or("event lacks args.id")?;
        let parent = args.get("parent").and_then(JVal::as_u64).ok_or("event lacks args.parent")?;
        if id == 0 {
            return Err("span id 0 is reserved".to_string());
        }
        let is_gather = name.starts_with("gather-wait");
        if ids.insert(id, (parent, ts, ts.saturating_add(dur), is_gather)).is_some() {
            return Err(format!("duplicate span id {id}"));
        }
        nodes.insert(pid);
        if tid != 0 {
            batches.insert(tid);
        }
    }
    // Pass 2: parents resolve, chains are acyclic, and frame edges are
    // causal (no recv before its send): a gather-wait cannot end before
    // the span it waited for ends, any other child cannot start before
    // its parent starts.
    for (&id, &(parent, ts, end, is_gather)) in &ids {
        if parent != 0 {
            let &(_, pts, pend, _) = ids
                .get(&parent)
                .ok_or(format!("span {id} has orphan parent {parent}"))?;
            if is_gather {
                if end < pend {
                    return Err(format!(
                        "gather-wait span {id} ends {}us before its parent {parent}",
                        pend - end
                    ));
                }
            } else if ts < pts {
                return Err(format!("span {id} starts {}us before its parent {parent}", pts - ts));
            }
        }
        let mut hops = 0usize;
        let mut cur = id;
        while cur != 0 {
            cur = ids.get(&cur).map(|&(p, ..)| p).unwrap_or(0);
            hops += 1;
            if hops > ids.len() {
                return Err(format!("span {id} sits on a parent cycle"));
            }
        }
    }
    // Critical-path sanity, when present.
    if let Some(cp) = doc.get("metadata").and_then(|m| m.get("critical_path")) {
        let field = |k: &str| cp.get(k).and_then(JVal::as_u64).unwrap_or(0);
        let (batches_n, compute, wait, wall) = (
            field("batches"),
            field("compute_us"),
            field("network_wait_us"),
            field("batch_wall_us"),
        );
        let attributed = compute.saturating_add(wait);
        let budget = wall
            .saturating_add(wall / 10)
            .saturating_add(batches_n.saturating_mul(1000));
        if attributed > budget {
            return Err(format!(
                "critical path attributes {attributed}us but batch wall is only {wall}us"
            ));
        }
    }
    Ok(ChromeCheck {
        events: events.len() as u64,
        nodes: nodes.len() as u64,
        batches: batches.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, node: u64, kind: SpanKind, phase: &'static str, parent: u64, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: span_id(trace, node, kind, phase),
            parent,
            trace,
            node,
            kind,
            phase,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn span_ids_are_deterministic_distinct_and_nonzero() {
        let a = span_id(1, 0, SpanKind::Round1, "");
        assert_eq!(a, span_id(1, 0, SpanKind::Round1, ""));
        assert_ne!(a, span_id(1, 1, SpanKind::Round1, ""));
        assert_ne!(a, span_id(2, 0, SpanKind::Round1, ""));
        assert_ne!(a, span_id(1, 0, SpanKind::Round2, ""));
        assert_ne!(
            span_id(1, 0, SpanKind::GatherWait, "round1"),
            span_id(1, 0, SpanKind::GatherWait, "round2")
        );
        assert_ne!(a, 0);
    }

    #[test]
    fn recorder_stores_up_to_capacity_then_drops_and_counts() {
        let r = TraceRecorder::new(4);
        for i in 0..6u64 {
            r.record_span(1, 0, 0, SpanKind::Round1, "", i, i + 1);
        }
        let (spans, dropped) = r.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 2);
        assert_eq!(r.dropped(), 2);
        // drain resets the ring.
        let (spans, dropped) = r.drain();
        assert_eq!(spans.len(), 4);
        assert_eq!(dropped, 2);
        let (spans, dropped) = r.snapshot();
        assert!(spans.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn disabled_recorder_records_nothing_but_still_returns_ids() {
        let r = TraceRecorder::new(4);
        r.enabled.store(false, Ordering::Relaxed);
        let id = r.record_span(1, 0, 0, SpanKind::Unpack, "", 0, 5);
        assert_eq!(id, span_id(1, 0, SpanKind::Unpack, ""));
        assert!(r.snapshot().0.is_empty());
    }

    #[test]
    fn node_trace_json_roundtrips() {
        let nt = NodeTrace {
            node: 2,
            clock_offset_us: 0,
            dropped: 7,
            spans: vec![
                span(1, 2, SpanKind::Unpack, "", 99, 10, 20),
                span(1, 2, SpanKind::GatherWait, "round1combined", 5, 20, 400),
            ],
        };
        let parsed = NodeTrace::from_json(&nt.to_json()).unwrap();
        assert_eq!(parsed, nt);
    }

    #[test]
    fn hostile_trace_json_is_an_error_not_a_panic() {
        for bad in [
            "",
            "{}",
            "{\"schema\": \"prio-trace/v1\"}",
            "{\"schema\": \"other\", \"node\": 0, \"spans\": []}",
            "{\"schema\": \"prio-trace/v1\", \"node\": 0, \"spans\": [{}]}",
            // end before start is a clock-skew smell, rejected at parse.
            "{\"schema\": \"prio-trace/v1\", \"node\": 0, \"spans\": [{\"id\": 1, \"parent\": 0, \"trace\": 1, \"node\": 0, \"kind\": \"round1\", \"phase\": \"\", \"start_us\": 10, \"end_us\": 3}]}",
        ] {
            assert!(NodeTrace::from_json(bad).is_err(), "{bad:?} must fail");
        }
    }

    #[test]
    fn merge_enforces_happens_before_over_clock_estimates() {
        // Node 0 sends (span P closes at its t=200); node 1's receiving
        // gather-wait C claims to finish at its t=80. The offset estimate
        // (0) would have C receive the frame before P sent it; the frame
        // edge forbids that and shifts node 1's buffer later.
        let p = span(1, 0, SpanKind::Round1, "", 0, 100, 200);
        let mut c = span(1, 1, SpanKind::GatherWait, "round1", 0, 50, 80);
        c.parent = p.id;
        let merged = merge_traces(&[
            NodeTrace { node: 0, clock_offset_us: 0, dropped: 0, spans: vec![p] },
            NodeTrace { node: 1, clock_offset_us: 0, dropped: 1, spans: vec![c] },
        ]);
        assert_eq!(merged.dropped, 1);
        let find = |id: u64| merged.spans.iter().find(|s| s.id == id).copied().unwrap();
        assert!(find(c.id).end_us >= find(p.id).end_us);
        // Durations survive the shift.
        assert_eq!(find(c.id).end_us - find(c.id).start_us, 30);
        // A gather-wait may START before its parent — the waiter sits
        // idle while the sender still computes — as long as it doesn't
        // END first. A wait spanning the parent needs no repair.
        let p = span(2, 0, SpanKind::Round1, "", 0, 100, 200);
        let mut w = span(2, 1, SpanKind::GatherWait, "round1", 0, 10, 250);
        w.parent = p.id;
        let merged = merge_traces(&[
            NodeTrace { node: 0, clock_offset_us: 0, dropped: 0, spans: vec![p] },
            NodeTrace { node: 1, clock_offset_us: 0, dropped: 0, spans: vec![w] },
        ]);
        let find = |id: u64| merged.spans.iter().find(|s| s.id == id).copied().unwrap();
        assert_eq!(find(w.id).start_us, 10, "no shift applied to a causal wait");
        assert!(check_chrome_json(&to_chrome_json(&merged)).is_ok());
    }

    #[test]
    fn critical_path_attributes_the_busiest_node() {
        let spans = vec![
            span(1, 9, SpanKind::Batch, "", 0, 0, 1000),
            span(1, 0, SpanKind::Round1, "", 0, 10, 110), // 100us compute
            span(1, 0, SpanKind::GatherWait, "round1", 0, 110, 710), // 600us wait
            span(1, 1, SpanKind::Round1, "", 0, 10, 60), // 50us compute
            span(0, 0, SpanKind::Publish, "", 0, 2000, 2100), // out-of-batch
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.batches, 1);
        assert_eq!(cp.batch_wall_us, 1000);
        assert_eq!(cp.compute_us, 100);
        assert_eq!(cp.network_wait_us, 600);
        assert_eq!(cp.per_node.len(), 2);
        assert_eq!(cp.per_node[0], NodeCost { node: 0, compute_us: 100, wait_us: 600 });
    }

    #[test]
    fn critical_path_never_picks_a_node_that_only_waited() {
        // The driver (node 3) records one `decisions` wait spanning the
        // whole batch and no compute; its wait exceeds every server's
        // compute + wait. It must not be the critical node.
        let spans = vec![
            span(1, 3, SpanKind::Batch, "", 0, 0, 1000),
            span(1, 3, SpanKind::GatherWait, "decisions", 0, 5, 995), // 990us wait
            span(1, 0, SpanKind::Round1, "", 0, 10, 110),             // 100us compute
            span(1, 0, SpanKind::GatherWait, "round1", 0, 110, 710),  // 600us wait
            span(1, 1, SpanKind::Round1, "", 0, 10, 60),              // 50us compute
        ];
        let cp = critical_path(&spans);
        assert_eq!(cp.batches, 1);
        assert_eq!((cp.compute_us, cp.network_wait_us), (100, 600));
        // The driver still shows up in the per-node totals.
        assert_eq!(cp.per_node.len(), 3);
        assert_eq!(cp.per_node[2], NodeCost { node: 3, compute_us: 0, wait_us: 990 });
    }

    #[test]
    fn chrome_export_passes_its_own_check() {
        let root = span(1, 9, SpanKind::Batch, "", 0, 0, 1000);
        let mut u = span(1, 0, SpanKind::Unpack, "", 0, 5, 50);
        u.parent = root.id;
        let mut r1 = span(1, 0, SpanKind::Round1, "", 0, 50, 200);
        r1.parent = u.id;
        let merged = MergedTrace::from_single_clock(vec![root, u, r1], 0);
        let text = to_chrome_json(&merged);
        let check = check_chrome_json(&text).unwrap();
        assert_eq!(check.events, 3);
        assert_eq!(check.nodes, 2);
        assert_eq!(check.batches, 1);
    }

    #[test]
    fn chrome_check_rejects_cycles_orphans_and_causality_violations() {
        // Orphan parent.
        let mut s = span(1, 0, SpanKind::Round1, "", 0, 0, 10);
        s.parent = 12345;
        let text = to_chrome_json(&MergedTrace::from_single_clock(vec![s], 0));
        assert!(check_chrome_json(&text).unwrap_err().contains("orphan"));
        // Two spans pointing at each other: a cycle (and a causality trip).
        let mut a = span(1, 0, SpanKind::Round1, "", 0, 0, 10);
        let mut b = span(1, 1, SpanKind::Round2, "", 0, 5, 15);
        a.parent = b.id;
        b.parent = a.id;
        let text = to_chrome_json(&MergedTrace::from_single_clock(vec![a, b], 0));
        let err = check_chrome_json(&text).unwrap_err();
        assert!(err.contains("cycle") || err.contains("before its parent"), "{err}");
        // Child starting before its parent.
        let p = span(1, 0, SpanKind::Round1, "", 0, 100, 200);
        let mut c = span(1, 1, SpanKind::GatherWait, "round1", 0, 50, 80);
        c.parent = p.id;
        let text = to_chrome_json(&MergedTrace { spans: vec![c, p], dropped: 0 });
        assert!(check_chrome_json(&text).unwrap_err().contains("before its parent"));
        // Empty.
        assert!(check_chrome_json("{\"traceEvents\": []}").is_err());
    }

    #[test]
    fn chrome_check_rejects_overattributed_critical_path() {
        let text = "{\"traceEvents\": [{\"name\": \"round1\", \"ph\": \"X\", \"ts\": 0, \"dur\": 10, \"pid\": 0, \"tid\": 1, \"args\": {\"id\": 7, \"parent\": 0, \"trace\": 1}}], \"metadata\": {\"critical_path\": {\"batches\": 1, \"compute_us\": 90000, \"network_wait_us\": 90000, \"batch_wall_us\": 10}}}";
        assert!(check_chrome_json(text).unwrap_err().contains("critical path"));
    }
}
