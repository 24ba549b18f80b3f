//! `migrate-tcp`: AGAS migration and lookups behind a data backlog, on
//! the same two-rank TCP deployment as `rpc-tcp`.
//!
//! 32 objects of 256 B, half born on each rank. Generator thread 1 runs
//! a seeded script: each step migrates one object to the other rank,
//! then sends an action to a different object's gid, half of the time
//! relayed through rank 1 (whose cache may be stale, so the parcel
//! chases and the home directory is asked). Every 8th step resolves a
//! process-scoped name homed at rank 1. A window-64 echo stream to
//! rank 1 (see [`crate::window`]) runs the whole time. At the end every
//! object is read back and compared.

use crate::gen::{objects, Script};
use crate::outcome::{durations, start_pair, Counters, Outcome, RunCfg, OP_TIMEOUT};
use crate::peer::*;
use crate::trace::{self, Layer};
use crate::util::{fnv, median, now_ns, os_threads, proc_status_kb};
use crate::window::Window;
use px_core::prelude::*;
use std::time::Instant;

pub const OBJECTS: usize = 32;
pub const OBJECT_BYTES: usize = 256;
/// Steps per script; `makespan_ms` is the median over scripts.
pub const SCRIPT_STEPS: usize = 64;
const WARMUP_STEPS: usize = 64;

fn rank(n: u16) -> Gid {
    Gid::locality_root(LocalityId(n))
}

struct World {
    gids: Vec<Gid>,
    blobs: Vec<Vec<u8>>,
    digests: Vec<u64>,
    /// Which rank each object lives on, as the script moved it.
    at: Vec<u16>,
    name: String,
    named: Gid,
}

#[derive(Default)]
struct Samples {
    migrate_us: Vec<f64>,
    access_us: Vec<f64>,
    lookup_us: Vec<f64>,
    makespan_ms: Vec<f64>,
    accesses: u64,
}

/// Run `steps` of the script; `phase` tags the request ids.
fn script(
    rt: &Runtime,
    w: &mut World,
    steps: &mut Script,
    n: usize,
    o: &mut Outcome,
    s: &mut Samples,
    seq: &mut u64,
) {
    for step in steps.take(n) {
        let id = request_id(PHASE_SCRIPT, *seq);
        *seq += 1;

        let to = 1 - w.at[step.migrate];
        o.attempted += 1;
        let t0 = Instant::now();
        let migrated = trace::timed(id, Layer::Migrate, || {
            rt.migrate_data(w.gids[step.migrate], LocalityId(to))
        });
        match migrated {
            Ok(()) => {
                s.migrate_us.push(t0.elapsed().as_secs_f64() * 1e6);
                w.at[step.migrate] = to;
            }
            Err(_) => o.failed += 1,
        }

        let b = step.access;
        o.attempted += 1;
        s.accesses += 1;
        let t_req = trace::on().then(now_ns);
        let t0 = Instant::now();
        let fut: FutureRef<(u64, u64)> = rt.new_future(LocalityId(0));
        let sent = trace::timed(id, Layer::Send, || {
            if step.relay {
                let args = (w.gids[b].0, id, fut.gid().0);
                rt.send_action::<Relay>(rank(1), args, Continuation::none())
            } else {
                rt.send_action::<Access>(w.gids[b], id, Continuation::set(fut.gid()))
            }
        });
        let got =
            sent.and_then(|()| trace::timed(id, Layer::Wait, || fut.wait_timeout(rt, OP_TIMEOUT)));
        match got {
            Ok(Some(v)) => {
                s.access_us.push(t0.elapsed().as_secs_f64() * 1e6);
                o.check(v == (id, w.digests[b]), || {
                    format!("access to object {b} returned {v:?}")
                });
            }
            _ => o.failed += 1,
        }
        if let Some(t) = t_req {
            trace::record(id, Layer::Request, t, now_ns());
        }

        if step.lookup {
            o.attempted += 1;
            let t0 = Instant::now();
            match trace::timed(id, Layer::LookupName, || rt.lookup_name(&w.name)) {
                Ok(g) => {
                    s.lookup_us.push(t0.elapsed().as_secs_f64() * 1e6);
                    o.check(g == w.named, || format!("lookup_name gave {g:?}"));
                }
                Err(_) => o.failed += 1,
            }
        }
    }
}

pub fn run(c: &RunCfg) -> Outcome {
    let mut o = Outcome::default();
    let pair = start_pair(c, &mut o);
    o.config = format!(
        "{:?}",
        tcp_config(0, vec!["<rank0>".into(), "<rank1>".into()], c.traced)
    );
    let rt = &pair.rt;

    // Objects: the first half born here, the second half on rank 1.
    let blobs = objects(c.seed, OBJECTS, OBJECT_BYTES);
    let half = OBJECTS / 2;
    let mut gids: Vec<Gid> = blobs[..half]
        .iter()
        .map(|b| rt.new_data_at(LocalityId(0), b.clone()))
        .collect();
    let made = rt.new_future::<Vec<u64>>(LocalityId(0));
    rt.send_action::<MakeObjects>(
        rank(1),
        blobs[half..].to_vec(),
        Continuation::set(made.gid()),
    )
    .expect("send object set-up");
    let made = made
        .wait_timeout(rt, OP_TIMEOUT)
        .ok()
        .flatten()
        .expect("objects on rank 1");
    assert_eq!(made.len(), OBJECTS - half, "rank 1 made every object");
    gids.extend(made.into_iter().map(Gid));
    let info = rt.new_future::<(Vec<u8>, u64)>(LocalityId(0));
    rt.send_action::<NameInfo>(rank(1), (), Continuation::set(info.gid()))
        .expect("send name query");
    let (name, named) = info
        .wait_timeout(rt, OP_TIMEOUT)
        .ok()
        .flatten()
        .expect("name info");
    let mut w = World {
        digests: blobs.iter().map(|b| fnv(b)).collect(),
        at: (0..OBJECTS).map(|i| (i >= half) as u16).collect(),
        gids,
        blobs,
        name: String::from_utf8(name).expect("utf-8 name"),
        named: Gid(named),
    };

    let mut steps = Script::new(c.seed, OBJECTS);
    let mut s = Samples::default();
    let mut seq = 0u64;
    // The background stream runs from before the warm-up to the end.
    let background = Window::start(rt, c.seed, PHASE_BACKGROUND, 0);
    let mut warm = Samples::default();
    script(
        rt,
        &mut w,
        &mut steps,
        WARMUP_STEPS,
        &mut o,
        &mut warm,
        &mut seq,
    );

    let threads = os_threads();
    let before = rt.stats();
    let attempted0 = o.attempted;
    let t0 = Instant::now();
    while s.makespan_ms.len() < 3 || t0.elapsed().as_secs_f64() < c.seconds {
        let r0 = Instant::now();
        script(
            rt,
            &mut w,
            &mut steps,
            SCRIPT_STEPS,
            &mut o,
            &mut s,
            &mut seq,
        );
        s.makespan_ms.push(r0.elapsed().as_secs_f64() * 1e3);
    }
    let t1 = Instant::now();
    let elapsed = (t1 - t0).as_secs_f64();
    let delta = rt.stats().delta_from(&before);
    let script_ops = o.attempted - attempted0;
    let rpc_per_s = background.stop(&mut o).0.rate(t0, t1);
    let rpcs = o.attempted - attempted0 - script_ops;

    // Every object must come back intact, wherever the script left it.
    for (i, g) in w.gids.iter().enumerate() {
        o.attempted += 1;
        match rt.read_data(*g) {
            Ok(bytes) => o.check(bytes == w.blobs[i], || format!("object {i} changed")),
            Err(_) => o.failed += 1,
        }
    }
    let metrics = c.traced.then(|| rt.cluster_metrics());
    let rank0_hwm = proc_status_kb("VmHWM");
    let build_ms = pair.build.as_secs_f64() * 1e3;
    let kept = trace::take_kept();
    let report = pair.finish();

    let makespan = median(&s.makespan_ms);
    o.push("makespan_ms", "ms", makespan);
    o.push("rpc_per_s", "1/s", rpc_per_s);
    o.latency_p50_us = o.push_lat("migrate", &mut s.migrate_us).unwrap_or(0.0);
    o.push_lat("access", &mut s.access_us);
    o.push_lat("lookup_name", &mut s.lookup_us);
    // The gate takes the script's own rate. The background `rpc_per_s`
    // is reported but swings by a quarter between runs on a 2-core host.
    o.throughput_per_s = SCRIPT_STEPS as f64 / (makespan / 1e3);
    o.push("steps_per_s", "1/s", o.throughput_per_s);
    o.peak_rss_mb = (rank0_hwm as f64 + report.get("vm_hwm_kb")) / 1024.0;
    o.notes.push(format!(
        "{} scripts of {SCRIPT_STEPS} steps; {} background echoes",
        s.makespan_ms.len(),
        rpcs
    ));

    let counters = Counters::new(&delta.total(), &[&report]);
    let ops = (s.accesses + rpcs) as f64;
    counters.common_layers(&mut o, ops, elapsed);
    if !c.traced {
        return o;
    }
    o.layer("runtime.build_ms", "ms", build_ms);
    o.layer("runtime.os_threads", "count", threads as f64);
    o.layer_lat(
        "agas.lookup_name_us",
        "us",
        &mut durations(&kept, Layer::LookupName, 1e3),
    );
    o.layer_lat(
        "agas.migrate_us",
        "us",
        &mut durations(&kept, Layer::Migrate, 1e3),
    );
    o.layer(
        "agas.chase_hops_per_access",
        "ratio",
        counters.ratio("chase_hops_total", s.accesses as f64),
    );
    match metrics {
        Some(Ok(m)) => {
            for (name, inst) in [
                ("agas.control_lane_us.p50", Instrument::ControlLane),
                ("agas.dir_lookup_us.p50", Instrument::DirLookup),
            ] {
                let h = m.merged.get(inst);
                o.layers.push(crate::outcome::Metric {
                    name: name.into(),
                    unit: "us",
                    value: Some(h.quantile(0.5) as f64 / 1e3),
                    n: Some(h.count as usize),
                });
            }
        }
        _ => o.notes.push("cluster metrics pull failed".into()),
    }
    o.spans = kept;
    o.spans.extend(report.spans);
    o
}
