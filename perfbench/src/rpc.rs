//! `rpc-tcp`: spawn/await of an echo action on rank 1, over loopback
//! TCP with the e14 deployment's batching (16 parcels a frame).
//!
//! After an untimed warm-up, four phases share the run: **serial** (a
//! closed loop, one request in flight), **window** (a closed loop, 64
//! in flight), and two **open** loops with evenly spaced arrivals at
//! 5 000/s and 50 000/s. Open-loop latency runs from each request's
//! intended send time to its completion, which a benchmark action on
//! rank 0 records as the echo's continuation.

use crate::gen::{echo_input, echo_of};
use crate::outcome::{durations, start_pair, Budget, Counters, Outcome, RunCfg, OP_TIMEOUT};
use crate::peer::*;
use crate::trace::{self, self_times, Layer, Span};
use crate::util::{now_ns, open_latency_ns, os_threads, proc_status_kb, summarize, trimmed_mean};
use crate::window::Window;
use px_core::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const OPEN_LO_PER_S: u64 = 5_000;
pub const OPEN_HI_PER_S: u64 = 50_000;
/// Shares of the run given to serial, window, open-lo and open-hi.
const SHARES: [f64; 4] = [0.3, 0.3, 0.2, 0.2];
/// Rounds of the four phases: one per 2 s of run, at most 10, so a
/// window phase always spans several 100 ms slices.
fn rounds(seconds: f64) -> usize {
    ((seconds / 2.0) as usize).clamp(1, 10)
}
/// In the open loops, a traced run keeps one send span in this many.
const SEND_SAMPLE: u64 = 16;

type Fut = FutureRef<(u64, u64)>;

fn rank1() -> Gid {
    Gid::locality_root(LocalityId(1))
}

/// Closed loop, one in flight. Returns round-trip times in µs; in the
/// traced serial phase every runtime call is a span.
fn serial(
    rt: &Runtime,
    seed: u64,
    o: &mut Outcome,
    (phase, seq): (u64, &mut u64),
    dur: Duration,
) -> Vec<f64> {
    let traced = trace::on() && phase == PHASE_SERIAL;
    let span = |id, layer, t0| {
        if traced {
            trace::record(id, layer, t0, now_ns());
        }
    };
    let mut rtts = Vec::new();
    let deadline = Instant::now() + dur;
    while Instant::now() < deadline {
        let id = request_id(phase, *seq);
        let x = echo_input(seed, id);
        *seq += 1;
        o.attempted += 1;
        let t_req = now_ns();
        let r0 = Instant::now();
        let fut: Fut = rt.new_future(LocalityId(0));
        span(id, Layer::NewFuture, t_req);
        let t_send = now_ns();
        let sent = rt.send_action::<Echo>(rank1(), (id, x), Continuation::set(fut.gid()));
        span(id, Layer::Send, t_send);
        let t_wait = now_ns();
        let got = sent.and_then(|()| fut.wait_timeout(rt, OP_TIMEOUT));
        span(id, Layer::Wait, t_wait);
        let rtt = r0.elapsed();
        span(id, Layer::Request, t_req);
        match got {
            Ok(Some(v)) => {
                o.check(v == (id, echo_of(id, x)), || {
                    format!("echo {id:#x} returned {v:?}")
                });
                rtts.push(rtt.as_secs_f64() * 1e6);
            }
            _ => o.failed += 1,
        }
    }
    rtts
}

/// Closed loop, `WINDOW` in flight. Returns completions per second of
/// each 100 ms slice.
fn window(
    rt: &Runtime,
    seed: u64,
    o: &mut Outcome,
    (phase, seq): (u64, &mut u64),
    dur: Duration,
) -> Vec<f64> {
    let w = Window::start(rt, seed, phase, *seq);
    let t0 = Instant::now();
    std::thread::sleep(dur);
    let t1 = Instant::now();
    let (slices, next) = w.stop(o);
    *seq = next;
    slices.rates(t0, t1)
}

/// State of the open-loop phase in progress, shared with [`Record`].
struct OpenPhase {
    phase: u64,
    /// Sequence number of the phase's first request.
    first: u64,
    seed: u64,
    start: Instant,
    period_ns: u64,
    lat_ns: Vec<AtomicU64>,
    settled: AtomicU64,
    wrong: AtomicU64,
}

static OPEN: Mutex<Option<Arc<OpenPhase>>> = Mutex::new(None);

/// Called by [`Record`] on rank 0 when an open-loop echo comes back.
pub fn complete_open(id: u64, y: u64) {
    let now = Instant::now();
    let Some(p) = OPEN.lock().unwrap().clone() else {
        return;
    };
    let seq = (id & ((1 << PHASE_SHIFT) - 1)).wrapping_sub(p.first) as usize;
    // Relaxed: counters read by the generator after it sees `settled`
    // reach the total; each slot is written once.
    if id >> PHASE_SHIFT != p.phase
        || seq >= p.lat_ns.len()
        || y != echo_of(id, echo_input(p.seed, id))
    {
        p.wrong.fetch_add(1, Ordering::Relaxed);
    } else {
        let done = now.saturating_duration_since(p.start).as_nanos() as u64;
        let lat = open_latency_ns(0, p.period_ns, seq as u64, done);
        p.lat_ns[seq].store(lat, Ordering::Relaxed);
    }
    p.settled.fetch_add(1, Ordering::Release);
}

/// Open loop at `rate` per second for `dur`. Returns latencies (µs,
/// from intended send) and how late the generator sent each request.
/// The generator sleeps between arrivals: spinning would take one of
/// the host's cores away from the runtime.
fn open(
    rt: &Runtime,
    seed: u64,
    o: &mut Outcome,
    (phase, first): (u64, &mut u64),
    rate: u64,
    dur: Duration,
) -> (Vec<f64>, Vec<f64>) {
    let n = (rate as f64 * dur.as_secs_f64()) as usize;
    let period_ns = 1_000_000_000 / rate;
    let p = Arc::new(OpenPhase {
        phase,
        first: *first,
        seed,
        start: Instant::now() + Duration::from_millis(1),
        period_ns,
        lat_ns: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        settled: AtomicU64::new(0),
        wrong: AtomicU64::new(0),
    });
    *OPEN.lock().unwrap() = Some(p.clone());
    let reply = Continuation::call(Record::id(), Gid::locality_root(LocalityId(0)));
    let mut lag = Vec::with_capacity(n);
    let mut send_errors = 0u64;
    for seq in 0..n as u64 {
        let due = p.start + Duration::from_nanos(seq * period_ns);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lag.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
        let id = request_id(phase, *first + seq);
        let t0 = (trace::on() && seq % SEND_SAMPLE == 0).then(now_ns);
        let args = (id, echo_input(seed, id));
        if rt
            .send_action::<Echo>(rank1(), args, reply.clone())
            .is_err()
        {
            send_errors += 1;
        }
        if let Some(t0) = t0 {
            trace::record(id, Layer::Send, t0, now_ns());
        }
    }
    *first += n as u64;
    let expected = n as u64 - send_errors;
    let deadline = Instant::now() + OP_TIMEOUT;
    while p.settled.load(Ordering::Acquire) < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    *OPEN.lock().unwrap() = None;
    let lat: Vec<f64> = p
        .lat_ns
        .iter()
        // Relaxed: after the Acquire load of `settled` above.
        .map(|l| l.load(Ordering::Relaxed))
        .filter(|&l| l != u64::MAX)
        .map(|l| l as f64 / 1e3)
        .collect();
    let wrong = p.wrong.load(Ordering::Relaxed);
    o.attempted += n as u64;
    o.failed += n as u64 - lat.len() as u64 - wrong;
    for _ in 0..wrong {
        o.check(false, || {
            format!("open-loop phase {phase}: wrong echo value")
        });
    }
    (lat, lag)
}

pub fn run(c: &RunCfg) -> Outcome {
    let mut o = Outcome::default();
    let pair = start_pair(c, &mut o);
    o.config = format!(
        "{:?}",
        tcp_config(0, vec!["<rank0>".into(), "<rank1>".into()], c.traced)
    );
    let rt = &pair.rt;
    let seed = c.seed;

    // Untimed warm-up: connections, caches, allocator.
    let mut seqs = [0u64; 5];
    let [warm, ser, win, lo_seq, hi_seq] = &mut seqs;
    serial(
        rt,
        seed,
        &mut o,
        (PHASE_WARMUP, &mut *warm),
        Duration::from_millis(300),
    );
    window(
        rt,
        seed,
        &mut o,
        (PHASE_WARMUP, warm),
        Duration::from_millis(500),
    );
    let threads = os_threads();

    // The phases take turns in rounds, so a slow stretch of the host is
    // shared among them rather than landing on one.
    let rounds = rounds(c.seconds);
    let dur = |i: usize| Duration::from_secs_f64(c.seconds * SHARES[i] / rounds as f64);
    let before = rt.stats();
    let t0 = Instant::now();
    let attempted0 = o.attempted;
    let (mut rtt, mut rates, mut lo, mut hi) = (vec![], vec![], vec![], vec![]);
    let (mut lag_lo, mut lag_hi) = (vec![], vec![]);
    for _ in 0..rounds {
        rtt.extend(serial(rt, seed, &mut o, (PHASE_SERIAL, &mut *ser), dur(0)));
        rates.extend(window(rt, seed, &mut o, (PHASE_WINDOW, &mut *win), dur(1)));
        let (l, g) = open(
            rt,
            seed,
            &mut o,
            (PHASE_OPEN_LO, &mut *lo_seq),
            OPEN_LO_PER_S,
            dur(2),
        );
        lo.extend(l);
        lag_lo.extend(g);
        let (l, g) = open(
            rt,
            seed,
            &mut o,
            (PHASE_OPEN_HI, &mut *hi_seq),
            OPEN_HI_PER_S,
            dur(3),
        );
        hi.extend(l);
        lag_hi.extend(g);
    }
    let rpc_per_s = trimmed_mean(&mut rates);
    let elapsed = t0.elapsed().as_secs_f64();
    let ops = (o.attempted - attempted0) as f64;
    let delta = rt.stats().delta_from(&before);
    let rank0_hwm = proc_status_kb("VmHWM");
    let build_ms = pair.build.as_secs_f64() * 1e3;
    let kept = trace::take_kept();
    let report = pair.finish();

    o.latency_p50_us = o.push_lat("rtt", &mut rtt).unwrap_or(0.0);
    o.push("rpc_per_s", "1/s", rpc_per_s);
    o.throughput_per_s = rpc_per_s;
    o.push_lat("open_lo", &mut lo);
    o.push_lat("open_hi", &mut hi);
    o.peak_rss_mb = (rank0_hwm as f64 + report.get("vm_hwm_kb")) / 1024.0;
    lag_lo.append(&mut lag_hi);
    let lag = summarize(&mut lag_lo);
    o.notes.push(format!(
        "open-loop generator lag: p50 {:.1} us, p99 {:.1} us over {} sends",
        lag.p50.unwrap_or(0.0),
        lag.p99.unwrap_or(0.0),
        lag.n
    ));

    let counters = Counters::new(&delta.total(), &[&report]);
    counters.common_layers(&mut o, ops, elapsed);
    if !c.traced {
        return o;
    }
    o.layer("runtime.build_ms", "ms", build_ms);
    o.layer("runtime.os_threads", "count", threads as f64);
    o.layer("loadgen.lag_p99_us", "us", lag.p99.unwrap_or(0.0));
    o.layer_lat(
        "parcel.send_ns",
        "ns",
        &mut durations(&kept, Layer::Send, 1.0),
    );
    o.layer_lat(
        "lco.new_future_ns",
        "ns",
        &mut durations(&kept, Layer::NewFuture, 1.0),
    );
    let bytes: u64 = delta.transport.peers.iter().map(|p| p.bytes_sent).sum();
    o.layer("parcel.bytes_per_rpc", "B", bytes as f64 / ops.max(1.0));
    let mut exec = durations(&report.spans, Layer::Execute, 1.0);
    o.layer_lat("action.execute_ns", "ns", &mut exec);
    let (mut outbound, mut back, budget) = serial_budget(&kept, &report.spans);
    o.layer_lat("net.outbound_us", "us", &mut outbound);
    o.layer_lat("net.return_us", "us", &mut back);
    o.budget = Some(budget);
    o.spans = kept;
    o.spans.extend(report.spans);
    o
}

/// Break each traced serial request into its layers, on the clock both
/// ranks share. Returns the outbound and return legs (µs) and the mean
/// per-request budget, whose rows add up to the mean traced RTT.
fn serial_budget(rank0: &[Span], rank1: &[Span]) -> (Vec<f64>, Vec<f64>, Budget) {
    let mut by_id: HashMap<u64, Vec<Span>> = HashMap::new();
    for s in rank0.iter().chain(rank1) {
        if s.id >> PHASE_SHIFT == PHASE_SERIAL {
            by_id.entry(s.id).or_default().push(*s);
        }
    }
    let names = [
        "lco.new_future",
        "parcel.send_action",
        "net.outbound",
        "action.execute",
        "net.return",
    ];
    let mut sums = [0f64; 5];
    let (mut outbound, mut back) = (Vec::new(), Vec::new());
    let mut whole = 0.0;
    let mut n = 0usize;
    for spans in by_id.values() {
        let find = |l: Layer| spans.iter().position(|s| s.layer == l);
        let (Some(req), Some(wait), Some(exec), Some(nf), Some(send)) = (
            find(Layer::Request),
            find(Layer::Wait),
            find(Layer::Execute),
            find(Layer::NewFuture),
            find(Layer::Send),
        ) else {
            continue;
        };
        let own = self_times(spans);
        let us = |ns: u64| ns as f64 / 1e3;
        // The wait's self time is the two wire legs around the handler.
        let out_ns = spans[exec].start.saturating_sub(spans[wait].start);
        let ret_ns = own[wait].saturating_sub(out_ns);
        let row = [own[nf], own[send], out_ns, own[exec], ret_ns];
        for (s, v) in sums.iter_mut().zip(row) {
            *s += us(v);
        }
        outbound.push(us(out_ns));
        back.push(us(ret_ns));
        whole += us(spans[req].dur());
        n += 1;
    }
    let n = n.max(1) as f64;
    let budget = Budget {
        title: "rpc-tcp serial round trip, mean per request".into(),
        unit: "us",
        whole: whole / n,
        rows: names
            .iter()
            .zip(sums)
            .map(|(name, s)| (name.to_string(), s / n))
            .collect(),
    };
    (outbound, back, budget)
}
