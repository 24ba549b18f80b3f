//! The two-rank TCP deployment: the benchmark's actions, rank 1's
//! serve loop, and rank 0's start-up and tear-down of the pair.
//!
//! Rank 1 is this same binary re-executed with `PERFBENCH_RANK=1`. It
//! only serves; rank 0 generates all load. When rank 0 closes its stdin,
//! rank 1 writes an end-of-run [`Report`] (its counters, peak RSS and,
//! in a traced run, its spans) and exits.

use crate::gen::echo_of;
use crate::trace::{self, Layer, Report};
use crate::util::{fnv, now_ns, proc_status_kb};
use px_core::prelude::*;
use px_core::stats::LocalityStats;
use std::io::Read;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const RANK_ENV: &str = "PERFBENCH_RANK";
const ADDRS_ENV: &str = "PERFBENCH_ADDRS";
const TRACE_ENV: &str = "PERFBENCH_TRACE";
const REPORT_ENV: &str = "PERFBENCH_REPORT";

/// Request ids carry their phase in the top 16 bits. Only the phases a
/// traced run breaks down record spans on the serving rank.
pub const PHASE_SHIFT: u32 = 48;
pub const PHASE_WARMUP: u64 = 0;
pub const PHASE_SERIAL: u64 = 1;
pub const PHASE_WINDOW: u64 = 2;
pub const PHASE_OPEN_LO: u64 = 3;
pub const PHASE_OPEN_HI: u64 = 4;
pub const PHASE_SCRIPT: u64 = 5;
pub const PHASE_BACKGROUND: u64 = 6;

pub fn request_id(phase: u64, seq: u64) -> u64 {
    (phase << PHASE_SHIFT) | seq
}

fn spans_wanted(id: u64) -> bool {
    trace::on() && matches!(id >> PHASE_SHIFT, PHASE_SERIAL | PHASE_SCRIPT)
}

/// The two-rank configuration of `rpc-tcp` and `migrate-tcp` (the e14
/// deployment). Metrics are on only in a traced run.
/// The bootstrap timeout is shortened from the 30 s default so a failed
/// start is retried quickly.
pub fn tcp_config(rank: u16, addrs: Vec<String>, traced: bool) -> Config {
    let mut tcp = TcpConfig::new(rank, addrs);
    tcp.bootstrap_timeout = Duration::from_secs(10);
    Config::small(2, 1)
        .with_transport(TransportKind::Tcp(tcp))
        .with_max_batch_parcels(16)
        .with_metrics(traced)
}

// ---- actions ---------------------------------------------------------------

/// Echo `(id, x)` back as `(id, echo_of(id, x))`.
pub struct Echo;
impl Action for Echo {
    const NAME: &'static str = "perfbench/echo";
    type Args = (u64, u64);
    type Out = (u64, u64);
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (id, x): (u64, u64)) -> (u64, u64) {
        if !spans_wanted(id) {
            return (id, echo_of(id, x));
        }
        let t0 = now_ns();
        let out = (id, echo_of(id, x));
        trace::record(id, Layer::Execute, t0, now_ns());
        out
    }
}

/// An echo's reply, run on rank 0 as the echo's continuation: an
/// open-loop completion, or the next step of a window loop.
pub struct Record;
impl Action for Record {
    const NAME: &'static str = "perfbench/record";
    type Args = (u64, u64);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (id, y): (u64, u64)) {
        match id >> PHASE_SHIFT {
            PHASE_OPEN_LO | PHASE_OPEN_HI => crate::rpc::complete_open(id, y),
            _ => crate::window::on_reply(ctx, id, y),
        }
    }
}

/// Create data objects here; returns their gids.
pub struct MakeObjects;
impl Action for MakeObjects {
    const NAME: &'static str = "perfbench/make_objects";
    type Args = Vec<Vec<u8>>;
    type Out = Vec<u64>;
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, blobs: Vec<Vec<u8>>) -> Vec<u64> {
        blobs.into_iter().map(|b| ctx.new_data(b).0).collect()
    }
}

/// Digest of the target object's bytes, wherever it lives now.
pub struct Access;
impl Action for Access {
    const NAME: &'static str = "perfbench/access";
    type Args = u64;
    type Out = (u64, u64);
    fn execute(ctx: &mut Ctx<'_>, target: Gid, id: u64) -> (u64, u64) {
        let t0 = now_ns();
        let digest = ctx.read_local_data(target).map_or(0, |b| fnv(&b));
        if spans_wanted(id) {
            trace::record(id, Layer::Execute, t0, now_ns());
        }
        (id, digest)
    }
}

/// Forward an [`Access`] from this rank, through this rank's (possibly
/// stale) view of where the object lives. Args: `(object, id, reply)`.
pub struct Relay;
impl Action for Relay {
    const NAME: &'static str = "perfbench/relay";
    type Args = (u64, u64, u64);
    type Out = ();
    fn execute(ctx: &mut Ctx<'_>, _t: Gid, (object, id, reply): (u64, u64, u64)) {
        let t0 = now_ns();
        // A send that fails here leaves the reply unset; rank 0 then
        // counts the access as failed when its wait times out.
        let _ = ctx.send::<Access>(Gid(object), id, Continuation::set(Gid(reply)));
        if spans_wanted(id) {
            trace::record(id, Layer::Send, t0, now_ns());
        }
    }
}

/// The process-scoped name rank 1 registered, and the gid it names.
pub struct NameInfo;
impl Action for NameInfo {
    const NAME: &'static str = "perfbench/name_info";
    type Args = ();
    type Out = (Vec<u8>, u64);
    fn execute(_ctx: &mut Ctx<'_>, _t: Gid, (): ()) -> (Vec<u8>, u64) {
        NAME.lock()
            .unwrap()
            .clone()
            .map_or((Vec::new(), 0), |(n, g)| (n.into_bytes(), g))
    }
}

static NAME: Mutex<Option<(String, u64)>> = Mutex::new(None);

pub fn register_actions(b: RuntimeBuilder) -> RuntimeBuilder {
    b.register::<Echo>()
        .register::<Record>()
        .register::<MakeObjects>()
        .register::<Access>()
        .register::<Relay>()
        .register::<NameInfo>()
}

// ---- rank 1 ---------------------------------------------------------------

/// If this process is rank 1, serve until stdin closes, write the
/// report and exit. Call first thing in `main`.
pub fn maybe_serve() {
    let Ok(rank) = std::env::var(RANK_ENV) else {
        return;
    };
    let rank: u16 = rank.parse().expect("numeric rank");
    let addrs: Vec<String> = std::env::var(ADDRS_ENV)
        .expect("peer needs the address list")
        .split(',')
        .map(String::from)
        .collect();
    let traced = std::env::var(TRACE_ENV).is_ok();
    if traced {
        trace::enable();
    }
    let rt = register_actions(RuntimeBuilder::new(tcp_config(rank, addrs, traced)))
        .build()
        .expect("peer bootstrap");
    // A process homed here with a name under it. The root token is never
    // released, so the process (and its names) live until shutdown.
    let process = rt.create_process(LocalityId(rank));
    let target = rt.new_data_at(LocalityId(rank), b"named".to_vec());
    let full = process
        .register_name(&rt, "perfbench/target", target)
        .expect("register the process-scoped name");
    *NAME.lock().unwrap() = Some((full, target.0));

    let mut sink = String::new();
    let _ = std::io::stdin().read_to_string(&mut sink);
    let mut report = Report {
        values: stats_values(&rt.stats().total()),
        spans: trace::take_kept(),
    };
    report
        .values
        .push(("vm_hwm_kb".into(), proc_status_kb("VmHWM") as f64));
    if let Ok(path) = std::env::var(REPORT_ENV) {
        let _ = std::fs::write(path, report.render());
    }
    rt.shutdown();
    std::process::exit(0);
}

/// The counters a rank contributes to the per-layer table.
pub fn stats_values(s: &LocalityStats) -> Vec<(String, f64)> {
    let v = |k: &str, x: u64| (k.to_string(), x as f64);
    vec![
        v("parks", s.parks),
        v("busy_ns", s.busy_ns),
        v("idle_ns", s.idle_ns),
        v("threads_executed", s.threads_executed),
        v("steals", s.steals),
        v("frames_sent", s.frames_sent),
        v("coalesced_parcels", s.coalesced_parcels),
        v("batch_flush_timer", s.batch_flush_timer),
        v("parcels_sent", s.parcels_sent),
        v("chase_hops_total", s.chase_hops_total),
        v("chased_parcels", s.chased_parcels),
        v("agas_cache_hits", s.agas_cache_hits),
        v("agas_cache_misses", s.agas_cache_misses),
        v("dir_lookups_remote", s.dir_lookups_remote),
        v("dir_repairs", s.dir_repairs),
        v("dead_parcels", s.dead_parcels),
        v("deaths_by_cause", s.deaths_by_cause_total()),
    ]
}

// ---- rank 0 ---------------------------------------------------------------

/// A running pair, seen from rank 0.
pub struct Pair {
    pub rt: Runtime,
    child: Child,
    report_path: PathBuf,
    pub build: Duration,
}

static PORT_CURSOR: AtomicU32 = AtomicU32::new(0);

/// Free loopback ports below the kernel's ephemeral range (which starts
/// at 32768), so no outgoing connection can take one between the check
/// here and the bind in the runtime.
fn reserve_addrs(n: usize) -> Vec<String> {
    let base = std::process::id().wrapping_mul(131);
    let mut out = Vec::new();
    while out.len() < n {
        // Relaxed: a cursor; only distinctness matters.
        let k = PORT_CURSOR.fetch_add(1, Ordering::Relaxed);
        let port = 20_000 + base.wrapping_add(k) % 12_000;
        if TcpListener::bind(("127.0.0.1", port as u16)).is_ok() {
            out.push(format!("127.0.0.1:{port}"));
        }
    }
    out
}

impl Pair {
    /// Spawn rank 1 and build rank 0. Returns the pair and the set-up
    /// time: spawn until both ranks are past the bootstrap barrier. A
    /// failed bootstrap is retried on fresh ports.
    pub fn start(out_dir: &Path, traced: bool) -> (Pair, Duration) {
        let mut last = String::new();
        for _ in 0..3 {
            match Pair::try_start(out_dir, traced) {
                Ok(p) => return p,
                Err(e) => {
                    eprintln!("perfbench: pair start failed ({e})");
                    last = e;
                }
            }
        }
        panic!("pair start failed three times: {last}")
    }

    fn try_start(out_dir: &Path, traced: bool) -> Result<(Pair, Duration), String> {
        let t0 = Instant::now();
        let addrs = reserve_addrs(2);
        let report_path = out_dir.join(format!("rank1-{}.txt", std::process::id()));
        let _ = std::fs::remove_file(&report_path);
        let mut cmd = Command::new(std::env::current_exe().expect("own path"));
        cmd.env(RANK_ENV, "1")
            .env(ADDRS_ENV, addrs.join(","))
            .env(REPORT_ENV, &report_path)
            .stdin(Stdio::piped())
            .stdout(Stdio::null());
        if traced {
            cmd.env(TRACE_ENV, "1");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn rank 1: {e}"))?;
        let b0 = Instant::now();
        let rt = match register_actions(RuntimeBuilder::new(tcp_config(0, addrs, traced))).build() {
            Ok(rt) => rt,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("rank 0 bootstrap: {e:?}"));
            }
        };
        let build = b0.elapsed();
        let setup = t0.elapsed();
        let pair = Pair {
            rt,
            child,
            report_path,
            build,
        };
        Ok((pair, setup))
    }

    /// Stop rank 1, wait for it, and return its report.
    pub fn finish(mut self) -> Report {
        drop(self.child.stdin.take());
        let status = self.child.wait().expect("wait for rank 1");
        self.rt.shutdown();
        assert!(status.success(), "rank 1 failed: {status:?}");
        let text = std::fs::read_to_string(&self.report_path).unwrap_or_default();
        let _ = std::fs::remove_file(&self.report_path);
        Report::parse(&text)
    }
}
