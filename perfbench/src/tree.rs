//! `task-tree`: a seeded unbalanced tree of fine-grained tasks in one
//! process, two localities of one worker each, on the in-process
//! instant wire with the default (unbatched) `Config`.
//!
//! Each tree runs inside one `create_process`. A node spawns each child
//! with `Ctx::spawn`, or about one child in eight with `Ctx::spawn_at`
//! to the other locality, and joins them through `Ctx::new_future` and
//! a chain of `Ctx::when_future` continuations. A tree is done when the
//! root's value has arrived and `ProcessRef::wait` has returned; the
//! value is checked against a sequential walk.

use crate::gen::Tree;
use crate::outcome::{durations, set_setup, Budget, Counters, Outcome, RunCfg, OP_TIMEOUT};
use crate::peer::stats_values;
use crate::trace::{self, begin_local, flush_local, push_local, timed_local, Layer, Report};
use crate::util::{median, mix, now_ns, os_threads, proc_status_kb};
use px_core::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Nodes per tree.
pub const NODES: usize = 50_000;
/// A traced run keeps the spans of one node in this many.
const KEEP_ONE_IN: u64 = 256;
/// Timed trees per run, at least (more if time allows).
const MIN_TREES: usize = 3;
/// Set-ups per run. An in-process set-up takes about a millisecond, so
/// the median needs more of them than a two-process one.
pub const SETUP_REPS: usize = 51;

/// A node's value, and (traced runs) when it was set.
type Fut = FutureRef<(u64, u64)>;

pub fn config(traced: bool) -> Config {
    Config::small(2, 1).with_metrics(traced)
}

fn keep(node: u32) -> bool {
    mix(node as u64).is_multiple_of(KEEP_ONE_IN)
}

fn stamp() -> u64 {
    if trace::on() {
        now_ns()
    } else {
        0
    }
}

/// Run `node`: spawn its children, then join them into `out`.
/// `called` is when its parent asked for it (traced runs), and `hop`
/// the layer that carried it here.
fn visit(ctx: &mut Ctx<'_>, tree: &Arc<Tree>, node: u32, out: Fut, called: u64, hop: Layer) {
    let mark = begin_local();
    let entry = stamp();
    if trace::on() {
        push_local(node as u64, hop, called, entry);
    }
    let id = node as u64;
    let weight = tree.weight[node as usize];
    let kids = tree.children(node);
    if kids.is_empty() {
        set(ctx, id, out, weight);
    } else {
        let here = ctx.here();
        let other = LocalityId(1 - here.0);
        let futs: Vec<Fut> = kids
            .iter()
            .map(|&kid| {
                let f: Fut = timed_local(id, Layer::NewFuture, || ctx.new_future());
                let t = tree.clone();
                let called = stamp();
                if tree.remote[kid as usize] {
                    timed_local(id, Layer::SpawnAt, || {
                        ctx.spawn_at(other, move |ctx| {
                            visit(ctx, &t, kid, f, called, Layer::InprocHop)
                        })
                    });
                } else {
                    timed_local(id, Layer::Spawn, || {
                        ctx.spawn(move |ctx| visit(ctx, &t, kid, f, called, Layer::SpawnToRun))
                    });
                }
                f
            })
            .collect();
        join(ctx, id, futs, 0, weight, out);
    }
    close_body(id, entry, mark);
}

/// Record the body span opened at `entry` and fold it into the totals.
fn close_body(id: u64, entry: u64, mark: usize) {
    if trace::on() {
        push_local(id, Layer::Execute, entry, now_ns());
        flush_local(mark, keep(id as u32));
    }
}

fn set(ctx: &mut Ctx<'_>, id: u64, out: Fut, value: u64) {
    let at = stamp();
    if timed_local(id, Layer::SetFuture, || ctx.set_future(out, &(value, at))).is_err() {
        SET_ERRORS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
}

static SET_ERRORS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Wait for `futs[idx]`, add it to `acc`, and go on to the next child;
/// after the last, set `out`.
fn join(ctx: &mut Ctx<'_>, id: u64, futs: Vec<Fut>, idx: usize, acc: u64, out: Fut) {
    let f = futs[idx];
    timed_local(id, Layer::WhenFuture, || {
        ctx.when_future(f, move |ctx, (v, set_at): (u64, u64)| {
            let mark = begin_local();
            let entry = stamp();
            if trace::on() {
                push_local(id, Layer::Wake, set_at, entry);
            }
            let acc = acc.wrapping_add(v);
            if idx + 1 == futs.len() {
                set(ctx, id, out, acc);
            } else {
                join(ctx, id, futs, idx + 1, acc, out);
            }
            close_body(id, entry, mark);
        })
    });
}

/// Run one tree to completion. Returns `(root value, root seen,
/// quiesced)` times from the start, or `None` if it timed out.
fn run_tree(rt: &Runtime, tree: &Arc<Tree>) -> Option<(u64, f64, f64)> {
    let t0 = Instant::now();
    let process = rt.create_process(LocalityId(0));
    let root: Fut = rt.new_future(LocalityId(0));
    let t = tree.clone();
    let called = stamp();
    process.spawn_at(rt, LocalityId(0), move |ctx| {
        visit(ctx, &t, 0, root, called, Layer::SpawnToRun)
    });
    process.finish_root(rt);
    let (value, _) = root.wait_timeout(rt, OP_TIMEOUT * 12).ok()??;
    let seen = t0.elapsed().as_secs_f64();
    process.done_future().wait_timeout(rt, OP_TIMEOUT).ok()??;
    Some((value, seen, t0.elapsed().as_secs_f64()))
}

pub fn run(c: &RunCfg) -> Outcome {
    let mut o = Outcome {
        config: format!("{:?}", config(c.traced)),
        ..Outcome::default()
    };
    // Set-up: generate the tree and build the runtime, several times.
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t0 = Instant::now();
        let tree = Arc::new(Tree::generate(c.seed, NODES));
        let b0 = Instant::now();
        let rt = RuntimeBuilder::new(config(c.traced))
            .build()
            .expect("build");
        let build = b0.elapsed();
        setups.push(t0.elapsed().as_secs_f64());
        kept = Some((tree, rt, build));
    }
    set_setup(&mut o, &setups);
    let (tree, rt, build) = kept.expect("set up");
    let expected = tree.sequential_sum();

    let check = |o: &mut Outcome, r: Option<(u64, f64, f64)>| {
        o.attempted += 1;
        match r {
            Some((v, seen, done)) => {
                o.check(v == expected, || {
                    format!("tree sum {v:#x}, expected {expected:#x}")
                });
                Some((seen, done))
            }
            None => {
                o.failed += 1;
                None
            }
        }
    };
    // Untimed warm-up: the first tree in a process runs much slower.
    let warm = run_tree(&rt, &tree);
    check(&mut o, warm);
    let threads = os_threads();
    rt.shutdown();
    trace::reset_totals();
    let _ = trace::take_kept();

    // Each timed tree gets a fresh runtime (built untimed): the runtime
    // never frees a future's LCO, so on a reused runtime every tree would
    // run against the leftovers of all trees before it.
    let t0 = Instant::now();
    let (mut makespans, mut quiesce) = (Vec::new(), Vec::new());
    let mut counts: Vec<Report> = Vec::new();
    let mut wall = 0.0;
    while makespans.len() < MIN_TREES || t0.elapsed().as_secs_f64() < c.seconds {
        let rt = RuntimeBuilder::new(config(c.traced))
            .build()
            .expect("build");
        let r0 = Instant::now();
        let r = run_tree(&rt, &tree);
        counts.push(Report {
            values: stats_values(&rt.stats().total()),
            spans: Vec::new(),
        });
        wall += r0.elapsed().as_secs_f64();
        rt.shutdown();
        let Some((seen, done)) = check(&mut o, r) else {
            break;
        };
        makespans.push(done * 1e3);
        quiesce.push((done - seen) * 1e6);
    }
    let errors = SET_ERRORS.load(std::sync::atomic::Ordering::Relaxed);
    o.failed += errors;

    let makespan = median(&makespans);
    o.push("makespan_ms", "ms", makespan);
    o.push("nodes_per_s", "1/s", tree.len() as f64 / (makespan / 1e3));
    o.notes.push(format!(
        "{} timed trees of {} nodes (depth {}, root fan-out {})",
        makespans.len(),
        tree.len(),
        tree.depth(),
        tree.children(0).len()
    ));
    o.latency_p50_us = makespan * 1e3;
    o.throughput_per_s = tree.len() as f64 / (makespan / 1e3);
    o.peak_rss_mb = proc_status_kb("VmHWM") as f64 / 1024.0;

    let nodes = (makespans.len() * tree.len()) as f64;
    let counters = Counters::new(&Default::default(), &counts.iter().collect::<Vec<_>>());
    counters.common_layers(&mut o, nodes, wall);
    if !c.traced {
        return o;
    }
    let spans = trace::take_kept();
    o.layer("runtime.build_ms", "ms", build.as_secs_f64() * 1e3);
    o.layer("runtime.os_threads", "count", threads as f64);
    let own = trace::self_times(&spans);
    let mut exec: Vec<f64> = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.layer == Layer::Execute)
        .map(|(_, &ns)| ns as f64)
        .collect();
    o.layer_lat("action.execute_ns", "ns", &mut exec);
    o.layer_lat(
        "sched.spawn_ns",
        "ns",
        &mut durations(&spans, Layer::Spawn, 1.0),
    );
    o.layer_lat(
        "sched.spawn_to_run_us",
        "us",
        &mut durations(&spans, Layer::SpawnToRun, 1e3),
    );
    o.layer_lat(
        "net.inproc_hop_us",
        "us",
        &mut durations(&spans, Layer::InprocHop, 1e3),
    );
    o.layer_lat(
        "lco.new_future_ns",
        "ns",
        &mut durations(&spans, Layer::NewFuture, 1.0),
    );
    o.layer_lat(
        "lco.wake_us",
        "us",
        &mut durations(&spans, Layer::Wake, 1e3),
    );
    // One sample per tree: too few for a percentile, so a mean.
    o.layer(
        "process.quiesce_us.mean",
        "us",
        quiesce.iter().sum::<f64>() / quiesce.len().max(1) as f64,
    );
    o.spans = spans;

    // Budget: the two workers' time over the timed trees, split by the
    // self time of every traced call; idle time comes from the counters.
    let totals = trace::totals();
    let ms = |layer: Layer| totals.get(&layer).map_or(0.0, |&(ns, _)| ns as f64 / 1e6);
    let rows = [
        Layer::Execute,
        Layer::Spawn,
        Layer::SpawnAt,
        Layer::NewFuture,
        Layer::WhenFuture,
        Layer::SetFuture,
    ];
    let mut budget = Budget {
        title: format!(
            "task-tree worker time, 2 workers x {:.1} ms wall",
            wall * 1e3
        ),
        unit: "ms",
        whole: 2.0 * wall * 1e3,
        rows: rows
            .iter()
            .map(|&l| (l.name().to_string(), ms(l)))
            .collect(),
    };
    budget
        .rows
        .push(("sched.idle".into(), counters.get("idle_ns") / 1e6));
    o.budget = Some(budget);
    o
}
