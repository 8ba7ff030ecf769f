//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent, job)`, kept in memory and
//! written out as JSON when the benchmark ends. Spans opened with
//! [`Recorder::enter`] nest through a per-thread stack; a thread with
//! nothing open (a mapping-engine worker) parents its spans to the
//! recorder's *ambient* span, which the driving thread points at the
//! iteration in flight.
//!
//! Leaf calls that happen millions of times per run (`model.assess`)
//! are not stored one by one: [`Recorder::leaf`] folds each into the
//! span open on the calling thread as a `(count, busy)` pair, which
//! bounds memory while keeping that span's self time exact.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (1-based; `0` is never used).
    pub id: u64,
    /// Layer-qualified name, e.g. `mapping.run_until`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Enclosing span, if any.
    pub parent: Option<u64>,
    /// The operation (co-design run, service job, reboot) it belongs to.
    pub job: u64,
    /// Leaf calls folded into this span.
    pub leaf_calls: u64,
    /// Nanoseconds those leaf calls took (disjoint: one thread).
    pub leaf_busy: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

struct Open {
    recorder: usize,
    id: u64,
    name: &'static str,
    start: u64,
    parent: Option<u64>,
    job: u64,
    leaf_calls: u64,
    leaf_busy: u64,
}

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    ambient_parent: AtomicU64,
    ambient_job: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            ambient_parent: AtomicU64::new(0),
            ambient_job: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// Closes its span on drop.
pub struct Guard<'r> {
    recorder: &'r Recorder,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let key = self.recorder.key();
        let open = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let pos = s.iter().rposition(|o| o.recorder == key);
            pos.map(|p| s.remove(p))
        });
        if let Some(o) = open {
            let end = self.recorder.now();
            self.recorder.push(Span {
                id: o.id,
                name: o.name,
                start: o.start,
                end,
                parent: o.parent,
                job: o.job,
                leaf_calls: o.leaf_calls,
                leaf_busy: o.leaf_busy,
            });
        }
    }
}

impl Recorder {
    fn key(&self) -> usize {
        self as *const Recorder as usize
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder thread")
            .push(span);
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.at(Instant::now())
    }

    /// `t` in nanoseconds since the epoch (0 for an earlier instant).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id, for spans recorded after the fact.
    pub fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Points threads with no open span of their own at `parent`
    /// (`None` clears it) and tags their spans with `job`.
    pub fn set_ambient(&self, parent: Option<u64>, job: u64) {
        self.ambient_parent
            .store(parent.unwrap_or(0), Ordering::Relaxed);
        self.ambient_job.store(job, Ordering::Relaxed);
    }

    fn ambient(&self) -> (Option<u64>, u64) {
        let p = self.ambient_parent.load(Ordering::Relaxed);
        (
            (p != 0).then_some(p),
            self.ambient_job.load(Ordering::Relaxed),
        )
    }

    /// Opens a span on this thread, nested under the innermost span this
    /// thread has open (or the ambient span); it closes when the guard
    /// drops.
    pub fn enter(&self, name: &'static str) -> Guard<'_> {
        let key = self.key();
        let id = self.alloc_id();
        let start = self.now();
        let ambient = self.ambient();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            let (parent, job) = s
                .iter()
                .rev()
                .find(|o| o.recorder == key)
                .map_or(ambient, |o| (Some(o.id), o.job));
            s.push(Open {
                recorder: key,
                id,
                name,
                start,
                parent,
                job,
                leaf_calls: 0,
                leaf_busy: 0,
            });
        });
        Guard { recorder: self }
    }

    /// Folds one leaf call of `busy` ns into the innermost span this
    /// thread has open (a call outside any span is not recorded).
    pub fn leaf(&self, busy: u64) {
        let key = self.key();
        STACK.with(|s| {
            if let Some(o) = s.borrow_mut().iter_mut().rev().find(|o| o.recorder == key) {
                o.leaf_calls += 1;
                o.leaf_busy += busy;
            }
        });
    }

    /// Records a span whose bounds were measured elsewhere.
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<u64>,
        job: u64,
    ) {
        self.push(Span {
            id,
            name,
            start,
            end,
            parent,
            job,
            leaf_calls: 0,
            leaf_busy: 0,
        });
    }

    /// Every finished span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking recorder thread")
            .clone()
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, by id: its duration minus the part of its
/// interval its children cover (their union, so parallel children are
/// not double-counted) minus its folded leaf time.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| by_id.get(&p)) {
            let (a, b) = (s.start.max(p.start), s.end.min(p.end));
            if a < b {
                children.entry(p.id).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |c| union_len(c));
            (s.id, s.duration().saturating_sub(covered + s.leaf_busy))
        })
        .collect()
}

/// Whether a span is the benchmark's own (set-up, phases, checks)
/// rather than a layer's.
pub fn is_bench(name: &str) -> bool {
    name.starts_with("bench.")
}

/// Wall-clock nanoseconds the top-level layer spans cover: spans not
/// named `bench.*` whose parent is absent or a `bench.*` span. The
/// benchmark's own spans cover nothing, so time no layer accounts for
/// stays uncovered.
pub fn layers_covered(spans: &[Span]) -> u64 {
    let bench_ids: BTreeSet<u64> = spans
        .iter()
        .filter(|s| is_bench(s.name))
        .map(|s| s.id)
        .collect();
    let mut tops: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| !is_bench(s.name))
        .filter(|s| s.parent.map_or(true, |p| bench_ids.contains(&p)))
        .map(|s| (s.start, s.end))
        .collect();
    union_len(&mut tops)
}

/// Per-name totals: `(spans, summed duration ns, summed self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration();
        e.2 += selfs[&s.id];
    }
    out
}

/// Renders spans as a JSON array (one object per span).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{},\"leaf_calls\":{},\"leaf_busy_ns\":{}}}",
            s.id, s.name, s.start, s.end, parent, s.job, s.leaf_calls, s.leaf_busy
        );
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "t",
            start,
            end,
            parent,
            job: 0,
            leaf_calls: 0,
            leaf_busy: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut [(0, 10), (2, 3)]), 10);
        assert_eq!(union_len(&mut []), 0);
    }

    #[test]
    fn self_time_subtracts_covered_part_of_children() {
        let spans = vec![
            span(1, 0, 100, None),
            // Two parallel children overlapping in [30, 40]: covered 50.
            span(2, 10, 40, Some(1)),
            span(3, 30, 60, Some(1)),
            // A child reaching past its parent counts only inside it.
            span(4, 90, 120, Some(1)),
            // Grandchild: reduces its own parent only.
            span(5, 15, 25, Some(2)),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 50 - 10);
        assert_eq!(s[&2], 30 - 10);
        assert_eq!(s[&3], 30);
        assert_eq!(s[&5], 10);
        assert_eq!(layers_covered(&spans), 100);
    }

    #[test]
    fn bench_spans_cover_nothing() {
        let named = |name, id, start, end, parent| Span {
            name,
            ..span(id, start, end, parent)
        };
        let spans = vec![
            // A benchmark phase with one layer span inside it ...
            named("bench.phase", 1, 0, 100, None),
            named("serve.job", 2, 10, 30, Some(1)),
            // ... a top-level layer span with a nested one ...
            named("serve.reboot", 3, 50, 70, None),
            named("serve.recover", 4, 55, 60, Some(3)),
            // ... and a benchmark check with no layer under it.
            named("bench.check", 5, 80, 100, None),
        ];
        assert_eq!(layers_covered(&spans), 20 + 20);
    }

    #[test]
    fn self_time_subtracts_folded_leaves() {
        let mut s = span(1, 0, 100, None);
        s.leaf_calls = 3;
        s.leaf_busy = 70;
        assert_eq!(self_times(&[s])[&1], 30);
    }

    #[test]
    fn guards_nest_and_fold_leaves_per_thread() {
        let rec = Recorder::default();
        {
            let _outer = rec.enter("outer");
            {
                let _inner = rec.enter("inner");
                rec.leaf(5);
                rec.leaf(7);
            }
        }
        rec.leaf(3);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!((inner.leaf_calls, inner.leaf_busy), (2, 12));
        assert_eq!((outer.parent, outer.leaf_calls), (None, 0));
    }

    #[test]
    fn worker_threads_attach_to_the_ambient_span() {
        let rec = Recorder::default();
        let it = rec.alloc_id();
        rec.set_ambient(Some(it), 9);
        std::thread::scope(|s| {
            s.spawn(|| drop(rec.enter("worker")));
        });
        let spans = rec.spans();
        assert_eq!(spans[0].parent, Some(it));
        assert_eq!(spans[0].job, 9);
    }
}
