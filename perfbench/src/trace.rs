//! The benchmark's own spans: recorded in memory into a vcad-obs
//! collector, dumped once as a Chrome trace, stitched back with the same
//! analyzer `obs-report report --require-no-orphans` runs, and reduced to
//! per-layer busy and self times.
//!
//! Span identity (trace, span, parent) is stamped explicitly instead of
//! through vcad-obs's ambient context stack: the RMI client copies an
//! ambient context into every call frame it encodes, so an ambient span
//! here would change the bytes the program puts on the wire.

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use vcad_obs::analyze::{analyze, SpanNode};
use vcad_obs::context::{next_span_id, next_trace_id, PARENT_ARG, SPAN_ARG, TRACE_ARG};
use vcad_obs::{chrome, Collector, SpanGuard};

/// Ring capacity of the benchmark's collector. A dropped span could
/// orphan its children, so the traced phase stops early rather than
/// overflow it (see [`Tracer::full`]).
const CAPACITY: usize = 1 << 16;

/// Span budget of one traced phase: half of [`CAPACITY`], leaving room for
/// the round in flight when it is spent and for the replays after it.
const SPAN_BUDGET: u64 = (CAPACITY as u64) / 2;

thread_local! {
    /// This thread's open benchmark spans, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One workload run's trace: a single trace id, one collector.
pub struct Tracer {
    obs: Collector,
    trace_id: u64,
    /// Parent for spans opened on threads with no open benchmark span
    /// (shard workers): the current round.
    fallback_parent: AtomicU64,
    spans: AtomicU64,
}

/// An open span; records itself when dropped.
pub struct Span {
    guard: Option<SpanGuard>,
    id: u64,
}

impl Span {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&self.id) {
                open.pop();
            }
        });
        drop(self.guard.take());
    }
}

impl Tracer {
    pub fn new(process: &str) -> Tracer {
        Tracer {
            obs: Collector::with_capacity(CAPACITY).with_process_name(process),
            trace_id: next_trace_id(),
            fallback_parent: AtomicU64::new(0),
            spans: AtomicU64::new(0),
        }
    }

    /// Opens a span under this thread's innermost open span, else under
    /// the fallback parent, else as the trace root.
    pub fn span(&self, category: &'static str, name: &'static str) -> Span {
        let id = next_span_id();
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.fallback_parent.load(Ordering::Relaxed));
        let mut guard = self.obs.span(category, name);
        guard.arg(TRACE_ARG, self.trace_id);
        guard.arg(SPAN_ARG, id);
        if parent != 0 {
            guard.arg(PARENT_ARG, parent);
        }
        OPEN.with(|open| open.borrow_mut().push(id));
        self.spans.fetch_add(1, Ordering::Relaxed);
        Span {
            guard: Some(guard),
            id,
        }
    }

    /// Makes `parent` the parent of spans opened on threads that have no
    /// open benchmark span of their own.
    pub fn set_fallback_parent(&self, parent: u64) {
        self.fallback_parent.store(parent, Ordering::Relaxed);
    }

    /// Whether the span budget is spent: the traced phase ends its rounds.
    pub fn full(&self) -> bool {
        self.spans.load(Ordering::Relaxed) >= SPAN_BUDGET
    }

    /// Writes every recorded span to `path` as a Chrome trace, reads the
    /// file back and stitches it.
    pub fn dump_and_stitch(&self, path: &Path) -> Result<Stitched, String> {
        let trace = self.obs.trace();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        chrome::write_chrome_trace(&trace, path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        let body =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let lanes = chrome::parse_chrome_json(&body)?;
        let analysis = analyze(&lanes);
        Ok(Stitched {
            spans: analysis.spans.clone(),
            orphans: analysis.orphans.len(),
            inconsistent: analysis.crossed.len() + analysis.duplicates.len(),
            dropped: trace.dropped,
        })
    }
}

/// A stitched trace dump.
pub struct Stitched {
    pub spans: Vec<SpanNode>,
    pub orphans: usize,
    /// Crossed-trace parents plus duplicate span ids.
    pub inconsistent: usize,
    pub dropped: u64,
}

/// Busy and self time per span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    /// Sum of span durations, ns.
    pub busy_ns: u64,
    /// Sum of span durations minus the part of each span its children
    /// cover (children on other threads overlap; the union counts once).
    pub self_ns: u64,
}

impl Stitched {
    /// Aggregates busy and self time by span name.
    pub fn layer_times(&self) -> HashMap<String, LayerTime> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children
                    .entry(p)
                    .or_default()
                    .push((s.start_ns, s.start_ns + s.dur_ns));
            }
        }
        let mut out: HashMap<String, LayerTime> = HashMap::new();
        for s in &self.spans {
            let start = s.start_ns;
            let end = s.start_ns + s.dur_ns;
            let covered = children
                .get_mut(&s.span_id)
                .map_or(0, |intervals| union_within(intervals, start, end));
            let entry = out.entry(s.name.clone()).or_default();
            entry.count += 1;
            entry.busy_ns += s.dur_ns;
            entry.self_ns += s.dur_ns.saturating_sub(covered);
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end)`.
fn union_within(intervals: &mut [(u64, u64)], start: u64, end: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::union_within;

    #[test]
    fn overlapping_children_count_once() {
        let mut v = vec![(10, 20), (15, 30), (40, 50), (45, 48), (90, 120)];
        assert_eq!(union_within(&mut v, 0, 100), 20 + 10 + 10);
    }
}
