//! `perfbench`: the ParalleX runtime's repeatable benchmark.
//!
//! ```text
//! perfbench --workload <rpc-tcp|task-tree|migrate-tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then, as its last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end gate; with `--trace 1`
//! the run is split into an untraced and a traced part, and the metrics
//! are the per-layer figures of the traced part. Exits non-zero on a
//! wrong value. See `perfbench/README.md`.

mod gen;
mod migrate;
mod outcome;
mod peer;
mod rpc;
mod trace;
mod tree;
mod util;
mod window;

use outcome::{Metric, Outcome, RunCfg};
use std::path::PathBuf;
use std::process::Command;
use util::{fnv, json_num, json_str};

pub const WORKLOADS: [&str; 3] = ["rpc-tcp", "task-tree", "migrate-tcp"];

/// The per-layer figures a traced run reports, in `BENCHMARK.json`
/// order. A figure the workload does not produce is reported as 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runtime.build_ms", "ms"),
    ("runtime.os_threads", "count"),
    ("parcel.send_ns.p50", "ns"),
    ("parcel.send_ns.p99", "ns"),
    ("parcel.bytes_per_rpc", "B"),
    ("net.outbound_us.p50", "us"),
    ("net.outbound_us.p99", "us"),
    ("net.return_us.p50", "us"),
    ("net.return_us.p99", "us"),
    ("net.parcels_per_frame", "ratio"),
    ("net.timer_flush_frac", "ratio"),
    ("net.inproc_hop_us.p50", "us"),
    ("net.inproc_hop_us.p99", "us"),
    ("action.execute_ns.p50", "ns"),
    ("sched.parks_per_op", "ratio"),
    ("sched.busy_frac", "ratio"),
    ("sched.spawn_ns.p50", "ns"),
    ("sched.spawn_to_run_us.p50", "us"),
    ("sched.spawn_to_run_us.p99", "us"),
    ("sched.tasks_per_s", "1/s"),
    ("sched.steals", "count"),
    ("lco.new_future_ns.p50", "ns"),
    ("lco.wake_us.p50", "us"),
    ("lco.wake_us.p99", "us"),
    ("process.quiesce_us.mean", "us"),
    ("agas.lookup_name_us.p50", "us"),
    ("agas.lookup_name_us.p99", "us"),
    ("agas.migrate_us.p50", "us"),
    ("agas.chase_hops_per_access", "ratio"),
    ("agas.cache_hit_frac", "ratio"),
    ("agas.dir_lookups_remote", "count"),
    ("agas.dir_repairs", "count"),
    ("agas.control_lane_us.p50", "us"),
    ("agas.dir_lookup_us.p50", "us"),
    ("loadgen.lag_p99_us", "us"),
    ("budget.unexplained_frac", "ratio"),
    ("trace.overhead.latency_frac", "ratio"),
    ("trace.overhead.throughput_frac", "ratio"),
];

/// Where run records, span files and peer reports go, inside the
/// checkout the benchmark runs from.
const OUT_DIR: &str = ".perfbench-out";

/// Share of a `--trace 1` run given to the untraced reference part.
const UNTRACED_SHARE: f64 = 0.4;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {v}");
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().map_err(bad)?,
            "--seconds" => a.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?,
            "--trace" => a.trace = v == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn run(workload: &str, c: &RunCfg) -> Outcome {
    match workload {
        "rpc-tcp" => rpc::run(c),
        "task-tree" => tree::run(c),
        _ => migrate::run(c),
    }
}

/// `nproc`, the commit (when run from a git checkout), a digest of the
/// runtime's sources (always), and `rustc -V`.
fn run_record() -> Vec<(&'static str, String)> {
    let cmd = |prog: &str, args: &[&str]| {
        Command::new(prog)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        ("nproc", nproc.to_string()),
        ("commit", cmd("git", &["rev-parse", "--short=12", "HEAD"])),
        ("source_digest", format!("{:016x}", source_digest())),
        ("rustc", cmd("rustc", &["-V"])),
    ]
}

/// FNV over every file under `crates/` (sorted by path), so a figure can
/// be matched to the code even where there is no git metadata.
fn source_digest() -> u64 {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(std::path::Path::new("crates"), &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend(std::fs::read(&f).unwrap_or_default());
    }
    fnv(&all)
}

fn fmt_value(m: &Metric) -> String {
    match m.value {
        Some(v) => format!("{v:.4}"),
        None => "withheld".into(),
    }
}

fn print_metrics(title: &str, ms: &[Metric]) {
    println!("{title}:");
    for m in ms {
        let n = m.n.map_or(String::new(), |n| format!("n={n}"));
        println!("  {:<30} {:>16} {:<6} {n}", m.name, fmt_value(m), m.unit);
    }
}

/// Every end-to-end figure of a run: the three every workload has, then
/// the workload's own.
fn print_e2e(title: &str, o: &Outcome) {
    let common = [
        ("setup_s", o.setup_s, "s", Some(o.setup_reps)),
        ("peak_rss_mb", o.peak_rss_mb, "MB", None),
        (
            "failed_frac",
            o.failed_frac(),
            "ratio",
            Some(o.attempted as usize),
        ),
    ];
    let mut ms: Vec<Metric> = common
        .into_iter()
        .map(|(name, v, unit, n)| Metric {
            name: name.into(),
            unit,
            value: Some(v),
            n,
        })
        .collect();
    ms.extend(o.e2e.iter().cloned());
    print_metrics(title, &ms);
}

/// The end-to-end gate: the same three figures on every workload.
fn gate(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    vec![
        ("setup_s", o.setup_s, "s"),
        ("latency_p50_us", o.latency_p50_us, "us"),
        ("throughput_per_s", o.throughput_per_s, "1/s"),
    ]
}

fn main() {
    peer::maybe_serve();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let cfg = |traced: bool, seconds: f64| RunCfg {
        seed: args.seed,
        seconds,
        traced,
        out_dir: out_dir.clone(),
    };

    let (base, traced) = if args.trace {
        let base = run(&args.workload, &cfg(false, args.seconds * UNTRACED_SHARE));
        trace::enable();
        let t = run(
            &args.workload,
            &cfg(true, args.seconds * (1.0 - UNTRACED_SHARE)),
        );
        (base, Some(t))
    } else {
        (run(&args.workload, &cfg(false, args.seconds)), None)
    };

    let mut record = run_record();
    record.push(("workload", args.workload.clone()));
    record.push(("seed", args.seed.to_string()));
    record.push(("seconds", args.seconds.to_string()));
    record.push(("trace", (args.trace as u8).to_string()));
    println!("== perfbench {} ==", args.workload);
    for (k, v) in &record {
        println!("{k}: {v}");
    }
    println!("config: {}", base.config);

    let mut out = base.clone();
    if let Some(t) = &traced {
        print_e2e("end-to-end (untraced part)", &base);
        print_e2e("end-to-end (traced part)", t);
        out.attempted += t.attempted;
        out.failed += t.failed;
        out.wrong += t.wrong;
        out.wrong_examples.extend(t.wrong_examples.clone());
    } else {
        print_e2e("end-to-end", &base);
    }
    println!("gate:");
    for (name, v, unit) in gate(&base) {
        println!("  {name:<30} {v:>16.4} {unit}");
    }
    println!(
        "ops: attempted {}, failed {} (failed_frac {:.6}), wrong values {}",
        out.attempted,
        out.failed,
        out.failed_frac(),
        out.wrong
    );
    for w in &out.wrong_examples {
        println!("  wrong: {w}");
    }
    for n in base
        .notes
        .iter()
        .chain(traced.iter().flat_map(|t| &t.notes))
    {
        println!("note: {n}");
    }

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    match &traced {
        None => {
            for (name, v, unit) in gate(&base) {
                metrics.push((name.into(), v, unit));
            }
        }
        Some(t) => {
            let mut layers = t.layers.clone();
            let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b - 1.0 };
            let overhead = [
                (
                    "trace.overhead.latency_frac",
                    ratio(t.latency_p50_us, base.latency_p50_us),
                ),
                (
                    "trace.overhead.throughput_frac",
                    ratio(t.throughput_per_s, base.throughput_per_s),
                ),
            ];
            for (name, v) in overhead {
                layers.push(Metric {
                    name: name.into(),
                    unit: "ratio",
                    value: Some(v),
                    n: None,
                });
            }
            if let Some(b) = &t.budget {
                println!("budget: {} ({})", b.title, b.unit);
                for (name, v) in &b.rows {
                    println!("  {name:<30} {v:>16.3}");
                }
                println!("  {:<30} {:>16.3}", "unexplained", b.unexplained());
                println!("  {:<30} {:>16.3}", "= measured whole", b.whole);
                layers.push(Metric {
                    name: "budget.unexplained_frac".into(),
                    unit: "ratio",
                    value: Some(b.unexplained() / b.whole.max(f64::MIN_POSITIVE)),
                    n: None,
                });
            }
            print_metrics("per-layer (traced part)", &layers);
            for &(name, unit) in PER_LAYER {
                let m = layers.iter().find(|m| m.name == name);
                debug_assert!(m.is_none_or(|m| m.unit == unit), "unit of {name}");
                let v = m.and_then(|m| m.value).unwrap_or(0.0);
                metrics.push((name.to_string(), v, unit));
            }
            let spans = out_dir.join(format!("spans-{}-{}.txt", args.workload, args.seed));
            let report = trace::Report {
                values: Vec::new(),
                spans: t.spans.clone(),
            };
            if std::fs::write(&spans, report.render()).is_ok() {
                println!("spans: {} written to {}", t.spans.len(), spans.display());
            }
        }
    }

    let correct = out.wrong == 0 && base.latency_p50_us > 0.0 && base.throughput_per_s > 0.0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    let rec: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .chain([format!("\"config\": {}", json_str(&base.config))])
        .collect();
    let _ = std::fs::write(
        out_dir.join(format!(
            "run-{}-{}-{}.json",
            args.workload, args.seed, args.trace as u8
        )),
        format!("{{{}, \"result\": {line}}}\n", rec.join(", ")),
    );
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the names and units the runs print.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let gate_names: Vec<(&str, &str)> = gate(&Outcome::default())
            .into_iter()
            .map(|(n, _, u)| (n, u))
            .collect();
        for (name, unit) in PER_LAYER.iter().chain(&gate_names) {
            let at = doc
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
            let entry = &doc[at..doc[at..].find('}').map_or(doc.len(), |e| at + e)];
            assert!(
                entry.contains(&format!("\"unit\": \"{unit}\"")),
                "unit of {name}"
            );
        }
        let declared = doc.matches("\"name\": ").count();
        assert_eq!(
            declared,
            PER_LAYER.len() + gate_names.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(doc.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
        }
    }
}
