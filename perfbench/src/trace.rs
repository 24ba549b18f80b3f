//! Spans recorded by the benchmark's own code around each call into a
//! layer's public functions (traced runs only).
//!
//! A span is `(request id, layer, start, end)` on the host-wide clock of
//! [`now_ns`]. Spans are kept in memory and written out when the process
//! ends; rank 1 writes its own, and rank 0 merges them by request id.
//! Nesting is found from the intervals themselves, and a layer's *self
//! time* is its span's duration minus the part its direct children cover.

use crate::util::now_ns;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Where a span sits. The name is the layer and the call, in the
/// runtime's module names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// One whole request, as the generator saw it.
    Request,
    /// `new_future` (runtime or ctx).
    NewFuture,
    /// `Runtime::send_action`.
    Send,
    /// `FutureRef::wait`.
    Wait,
    /// A benchmark handler or continuation body.
    Execute,
    /// `Ctx::spawn`.
    Spawn,
    /// `Ctx::spawn_at`.
    SpawnAt,
    /// `Ctx::when_future` (registration only).
    WhenFuture,
    /// `Ctx::set_future`.
    SetFuture,
    /// `Ctx::spawn` call → closure entry.
    SpawnToRun,
    /// `Ctx::spawn_at` call → closure entry at the other locality.
    InprocHop,
    /// `set_future` call → `when_future` continuation entry.
    Wake,
    /// `Runtime::migrate_data`.
    Migrate,
    /// `Runtime::lookup_name`.
    LookupName,
}

impl Layer {
    pub const ALL: [Layer; 14] = [
        Layer::Request,
        Layer::NewFuture,
        Layer::Send,
        Layer::Wait,
        Layer::Execute,
        Layer::Spawn,
        Layer::SpawnAt,
        Layer::WhenFuture,
        Layer::SetFuture,
        Layer::SpawnToRun,
        Layer::InprocHop,
        Layer::Wake,
        Layer::Migrate,
        Layer::LookupName,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::NewFuture => "lco.new_future",
            Layer::Send => "parcel.send_action",
            Layer::Wait => "lco.wait",
            Layer::Execute => "action.execute",
            Layer::Spawn => "sched.spawn",
            Layer::SpawnAt => "net.spawn_at",
            Layer::WhenFuture => "lco.when_future",
            Layer::SetFuture => "lco.set_future",
            Layer::SpawnToRun => "sched.spawn_to_run",
            Layer::InprocHop => "net.inproc_hop",
            Layer::Wake => "lco.wake",
            Layer::Migrate => "agas.migrate_data",
            Layer::LookupName => "agas.lookup_name",
        }
    }

    fn code(self) -> usize {
        Layer::ALL.iter().position(|&l| l == self).unwrap_or(0)
    }

    fn from_name(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == s)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Self time of each span: its duration minus the time covered by its
/// direct children. A child is a span of the same request whose interval
/// lies inside the parent's; spans of one request must nest or be
/// disjoint. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents before their children: earlier start first, and on a tie
    // the longer span first.
    order.sort_by_key(|&i| (spans[i].id, spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = spans[i];
        while let Some(&top) = stack.last() {
            let p = spans[top];
            if p.id == s.id && s.start >= p.start && s.end <= p.end {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            own[parent] = own[parent].saturating_sub(s.dur());
        }
        stack.push(i);
    }
    own
}

// ---- recording ---------------------------------------------------------

static ON: AtomicBool = AtomicBool::new(false);
static KEPT: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static TOTALS: Mutex<Vec<Arc<Totals>>> = Mutex::new(Vec::new());

pub fn enable() {
    // Relaxed: set once before any worker records.
    ON.store(true, Ordering::Relaxed);
}

#[inline]
pub fn on() -> bool {
    // Relaxed: a plain flag, set before the workload starts.
    ON.load(Ordering::Relaxed)
}

/// Keep one span (no-op when tracing is off).
pub fn record(id: u64, layer: Layer, start: u64, end: u64) {
    if on() {
        KEPT.lock().unwrap().push(Span {
            id,
            layer,
            start,
            end,
        });
    }
}

/// Time `f` as one span of `layer`; `f` runs untimed when tracing is off.
pub fn timed<T>(id: u64, layer: Layer, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    let t0 = now_ns();
    let out = f();
    record(id, layer, t0, now_ns());
    out
}

/// Every span kept so far, and the per-thread self-time totals.
pub fn take_kept() -> Vec<Span> {
    std::mem::take(&mut *KEPT.lock().unwrap())
}

/// Per-layer self-time sums and counts of one thread.
#[derive(Default)]
pub struct Totals {
    ns: [AtomicU64; Layer::ALL.len()],
    n: [AtomicU64; Layer::ALL.len()],
}

/// Per-thread buffer for high-volume work (tree nodes): the spans of one
/// node body are collected, reduced to self times that go into the
/// thread's totals, and kept only if the node is sampled.
struct Local {
    cur: Vec<Span>,
    totals: Arc<Totals>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new({
        let totals = Arc::new(Totals::default());
        TOTALS.lock().unwrap().push(totals.clone());
        Local { cur: Vec::new(), totals }
    });
}

/// Open a body on this thread; pass the mark to [`flush_local`]. Bodies
/// may nest (a continuation run inline inside another body).
pub fn begin_local() -> usize {
    LOCAL.with(|l| l.borrow().cur.len())
}

/// Add a span to this thread's current body.
pub fn push_local(id: u64, layer: Layer, start: u64, end: u64) {
    LOCAL.with(|l| {
        l.borrow_mut().cur.push(Span {
            id,
            layer,
            start,
            end,
        })
    });
}

/// Time `f` as a span of the current body (untimed when tracing is off).
pub fn timed_local<T>(id: u64, layer: Layer, f: impl FnOnce() -> T) -> T {
    if !on() {
        return f();
    }
    let t0 = now_ns();
    let out = f();
    push_local(id, layer, t0, now_ns());
    out
}

/// Close the body opened at `mark`: fold its self times into the thread
/// totals, and keep its spans when `keep` is set.
pub fn flush_local(mark: usize, keep: bool) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let at = mark.min(l.cur.len());
        let body = l.cur.split_off(at);
        let own = self_times(&body);
        for (s, ns) in body.iter().zip(own) {
            // Relaxed: each Totals is written by its own thread only and
            // read after the workload has quiesced.
            l.totals.ns[s.layer.code()].fetch_add(ns, Ordering::Relaxed);
            l.totals.n[s.layer.code()].fetch_add(1, Ordering::Relaxed);
        }
        if keep {
            KEPT.lock().unwrap().extend(body);
        }
    });
}

/// Sum of every thread's totals: `(self ns, count)` per layer.
pub fn totals() -> HashMap<Layer, (u64, u64)> {
    let all = TOTALS.lock().unwrap();
    Layer::ALL
        .iter()
        .map(|&layer| {
            let c = layer.code();
            // Relaxed: read after the workload has quiesced.
            let ns = all.iter().map(|t| t.ns[c].load(Ordering::Relaxed)).sum();
            let n = all.iter().map(|t| t.n[c].load(Ordering::Relaxed)).sum();
            (layer, (ns, n))
        })
        .collect()
}

/// Zero every thread's totals (between the warm-up and the timed trees).
pub fn reset_totals() {
    for t in TOTALS.lock().unwrap().iter() {
        for c in 0..Layer::ALL.len() {
            // Relaxed: called while no tree runs.
            t.ns[c].store(0, Ordering::Relaxed);
            t.n[c].store(0, Ordering::Relaxed);
        }
    }
}

// ---- the exit report -----------------------------------------------------

/// A peer's end-of-run report: named numbers plus its spans, one per
/// line (`k <key> <value>` / `s <id> <layer> <start> <end>`).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Report {
    pub values: Vec<(String, f64)>,
    pub spans: Vec<Span>,
}

impl Report {
    pub fn get(&self, key: &str) -> f64 {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            out.push_str(&format!("k {k} {v}\n"));
        }
        for s in &self.spans {
            out.push_str(&format!(
                "s {} {} {} {}\n",
                s.id,
                s.layer.name(),
                s.start,
                s.end
            ));
        }
        out
    }

    pub fn parse(text: &str) -> Report {
        let mut r = Report::default();
        for line in text.lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["k", k, v] => r.values.push((k.to_string(), v.parse().unwrap_or(0.0))),
                ["s", id, layer, start, end] => {
                    if let (Ok(id), Some(layer), Ok(start), Ok(end)) = (
                        id.parse(),
                        Layer::from_name(layer),
                        start.parse(),
                        end.parse(),
                    ) {
                        r.spans.push(Span {
                            id,
                            layer,
                            start,
                            end,
                        });
                    }
                }
                _ => {}
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, layer: Layer, start: u64, end: u64) -> Span {
        Span {
            id,
            layer,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            sp(1, Layer::Request, 0, 100),
            sp(1, Layer::Send, 10, 30),
            sp(1, Layer::Wait, 40, 90),
            sp(1, Layer::Execute, 45, 50),
            // Another request overlapping in time is not a child.
            sp(2, Layer::Request, 20, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 45, 5, 40]);
        let total: u64 = self_times(&spans[..4]).iter().sum();
        assert_eq!(total, 100, "self times of one request add up to its whole");
    }

    #[test]
    fn adjacent_spans_do_not_nest() {
        let spans = [
            sp(7, Layer::InprocHop, 0, 10),
            sp(7, Layer::Execute, 10, 25),
        ];
        assert_eq!(self_times(&spans), vec![10, 15]);
    }

    #[test]
    fn report_round_trips() {
        let r = Report {
            values: vec![("vm_hwm_kb".into(), 1234.0), ("parks".into(), 5.5)],
            spans: vec![sp(3, Layer::Execute, 10, 20)],
        };
        assert_eq!(Report::parse(&r.render()), r);
        assert_eq!(r.get("parks"), 5.5);
        assert_eq!(r.get("missing"), 0.0);
    }
}
