//! What a workload run returns, and the shared pieces the workloads
//! use to fill it in.

use crate::peer::{stats_values, Pair};
use crate::trace::{Layer, Report, Span};
use crate::util::{median, summarize};
use px_core::stats::LocalityStats;
use std::path::PathBuf;
use std::time::Duration;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// How long a blocking wait may take before the op counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Seconds of measured load.
    pub seconds: f64,
    pub traced: bool,
    /// Where peers write their end-of-run reports.
    pub out_dir: PathBuf,
}

/// One named figure. `n` is its sample count where it is a percentile.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// `None` when the percentile rule withholds it.
    pub value: Option<f64>,
    pub n: Option<usize>,
}

/// A traced run's budget: rows that, with `unexplained`, add up to the
/// measured whole.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    pub title: String,
    pub unit: &'static str,
    pub whole: f64,
    pub rows: Vec<(String, f64)>,
}

impl Budget {
    pub fn unexplained(&self) -> f64 {
        self.whole - self.rows.iter().map(|(_, v)| v).sum::<f64>()
    }
}

#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The `Config` of every rank, as `Debug` prints it.
    pub config: String,
    pub attempted: u64,
    pub failed: u64,
    /// Wrong values seen; any makes the run incorrect.
    pub wrong: u64,
    pub wrong_examples: Vec<String>,
    /// End-to-end figures under the names the docs use.
    pub e2e: Vec<Metric>,
    /// The workload's figures behind the `latency_p50_us` and
    /// `throughput_per_s` slots of the gate.
    pub latency_p50_us: f64,
    pub throughput_per_s: f64,
    pub setup_s: f64,
    /// How many set-ups `setup_s` is the median of.
    pub setup_reps: usize,
    pub peak_rss_mb: f64,
    /// Per-layer figures (traced runs).
    pub layers: Vec<Metric>,
    pub budget: Option<Budget>,
    /// Spans kept by a traced run (both ranks), written out at exit.
    pub spans: Vec<Span>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.e2e.push(Metric {
            name: name.into(),
            unit,
            value: Some(value),
            n: None,
        });
    }

    /// `<prefix>_p50_<unit>` and `<prefix>_p99_<unit>` of `samples`.
    pub fn push_lat(&mut self, prefix: &str, samples: &mut [f64]) -> Option<f64> {
        push_percentiles(&mut self.e2e, prefix, "us", samples)
    }

    pub fn layer(&mut self, name: &str, unit: &'static str, value: f64) {
        self.layers.push(Metric {
            name: name.into(),
            unit,
            value: Some(value),
            n: None,
        });
    }

    /// `<name>.p50` and `<name>.p99` of `samples` as per-layer figures.
    pub fn layer_lat(&mut self, name: &str, unit: &'static str, samples: &mut [f64]) {
        let s = summarize(samples);
        for (q, v) in [("p50", s.p50), ("p99", s.p99)] {
            self.layers.push(Metric {
                name: format!("{name}.{q}"),
                unit,
                value: v,
                n: Some(s.n),
            });
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.wrong += 1;
            if self.wrong_examples.len() < 5 {
                self.wrong_examples.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

pub fn push_percentiles(
    out: &mut Vec<Metric>,
    prefix: &str,
    unit: &'static str,
    samples: &mut [f64],
) -> Option<f64> {
    let s = summarize(samples);
    for (q, v) in [("p50", s.p50), ("p99", s.p99)] {
        out.push(Metric {
            name: format!("{prefix}_{q}_{unit}"),
            unit,
            value: v,
            n: Some(s.n),
        });
    }
    s.p50
}

/// Record `setup_s` as the median of `times` (seconds), with a note on
/// their spread.
pub fn set_setup(o: &mut Outcome, times: &[f64]) {
    let mut t = times.to_vec();
    t.sort_by(f64::total_cmp);
    o.setup_s = median(&t);
    o.setup_reps = t.len();
    o.notes.push(format!(
        "set-up: {} reps, min {:.3} ms, median {:.3} ms, max {:.3} ms",
        t.len(),
        t.first().copied().unwrap_or(0.0) * 1e3,
        o.setup_s * 1e3,
        t.last().copied().unwrap_or(0.0) * 1e3
    ));
}

/// Start `SETUP_REPS` pairs one after another, keeping the last, and
/// record the set-up time.
pub fn start_pair(c: &RunCfg, o: &mut Outcome) -> Pair {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some(p) = kept.take() {
            Pair::finish(p);
        }
        let (pair, setup) = Pair::start(&c.out_dir, c.traced);
        times.push(setup.as_secs_f64());
        kept = Some(pair);
    }
    set_setup(o, &times);
    kept.expect("at least one set-up")
}

/// Durations in `unit_ns` units of every kept span of `layer`.
pub fn durations(spans: &[Span], layer: Layer, unit_ns: f64) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.layer == layer)
        .map(|s| s.dur() as f64 / unit_ns)
        .collect()
}

/// Counters summed over ranks: rank 0's delta plus the peers' reports.
pub struct Counters(Vec<(String, f64)>);

impl Counters {
    pub fn new(rank0: &LocalityStats, peers: &[&Report]) -> Counters {
        let mut all = stats_values(rank0);
        for r in peers {
            for (k, v) in all.iter_mut() {
                *v += r.get(k);
            }
        }
        Counters(all)
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }

    /// `a / b`, 0 when `b` is 0.
    pub fn ratio(&self, a: &str, b: f64) -> f64 {
        if b == 0.0 {
            0.0
        } else {
            self.get(a) / b
        }
    }

    /// The counters every workload reports in its per-layer table, and
    /// the invariant that every dead parcel has a recorded cause.
    pub fn common_layers(&self, o: &mut Outcome, ops: f64, seconds: f64) {
        o.check(self.get("dead_parcels") == 0.0, || {
            format!("{} dead parcels", self.get("dead_parcels"))
        });
        o.check(
            self.get("dead_parcels") == self.get("deaths_by_cause"),
            || "dead_parcels differs from deaths_by_cause_total".into(),
        );
        let frames = self.get("frames_sent");
        o.layer("net.parcels_per_frame", "ratio", {
            if frames == 0.0 {
                0.0
            } else {
                (self.get("coalesced_parcels") + frames) / frames
            }
        });
        o.layer(
            "net.timer_flush_frac",
            "ratio",
            self.ratio("batch_flush_timer", frames),
        );
        o.layer("sched.parks_per_op", "ratio", self.ratio("parks", ops));
        let busy = self.get("busy_ns");
        o.layer(
            "sched.busy_frac",
            "ratio",
            self.ratio("busy_ns", busy + self.get("idle_ns")),
        );
        o.layer(
            "sched.tasks_per_s",
            "1/s",
            self.ratio("threads_executed", seconds),
        );
        o.layer("sched.steals", "count", self.get("steals"));
        let lookups = self.get("agas_cache_hits") + self.get("agas_cache_misses");
        o.layer(
            "agas.cache_hit_frac",
            "ratio",
            self.ratio("agas_cache_hits", lookups),
        );
        o.layer(
            "agas.dir_lookups_remote",
            "count",
            self.get("dir_lookups_remote"),
        );
        o.layer("agas.dir_repairs", "count", self.get("dir_repairs"));
    }
}
