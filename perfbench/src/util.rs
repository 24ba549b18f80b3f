//! Helpers with no runtime in them: the seeded generator, the
//! percentile rule, the shared clock, `/proc` readers and JSON output.

use std::fmt::Write as _;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// splitmix64: a tiny seeded generator. The benchmark derives every
/// input from it, so one seed always gives the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0f7a_11e1)
    }

    /// A generator for one named stream of a seed, so that adding draws
    /// to one stream never shifts another.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        Rng::new(mix(seed.wrapping_add(mix(stream))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The splitmix64 finaliser; also the echo action's transform.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Nanoseconds on `CLOCK_REALTIME`. Every process on the host reads the
/// same clock, so a span opened on rank 0 and one closed on rank 1 can be
/// subtracted. Used only for spans; timed figures use `Instant`.
pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// A latency summary under the percentile rule: a percentile is reported
/// only when at least ten samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: Option<f64>,
    pub p99: Option<f64>,
}

/// Nearest-rank percentile `q` of sorted samples, or `None` when fewer
/// than ten samples lie strictly beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + 10).then(|| sorted[rank - 1])
}

pub fn summarize(samples: &mut [f64]) -> Summary {
    samples.sort_by(f64::total_cmp);
    Summary {
        n: samples.len(),
        p50: percentile(samples, 0.50),
        p99: percentile(samples, 0.99),
    }
}

/// Plain median (no tail rule): for repeated whole-run figures such as
/// set-up times and makespans, where a handful of samples is the design.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The mean with the top and bottom tenth dropped; 0 when empty. For
/// per-slice throughput: the trim drops short stalls, and the mean,
/// unlike a median, moves smoothly when the runtime switches between a
/// slow and a fast batching pattern within a run.
pub fn trimmed_mean(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let k = v.len() / 10;
    let kept = &v[k..v.len() - k];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Completions counted in fixed slices of time, so a throughput figure
/// can be taken over the slices rather than as one total.
pub struct Slices {
    start: Instant,
    counts: Vec<u64>,
}

/// Width of one [`Slices`] slice.
pub const SLICE: Duration = Duration::from_millis(100);

impl Slices {
    /// Counts already gathered, slice `i` covering `start + i * SLICE`.
    pub fn from_counts(start: Instant, counts: Vec<u64>) -> Slices {
        Slices { start, counts }
    }

    fn index(&self, at: Instant) -> usize {
        (at.saturating_duration_since(self.start).as_nanos() / SLICE.as_nanos()) as usize
    }

    /// Completions per second of each slice lying wholly in `[from, to)`.
    pub fn rates(&self, from: Instant, to: Instant) -> Vec<f64> {
        let first =
            self.index(from) + usize::from(from > self.start + SLICE * self.index(from) as u32);
        (first..self.index(to))
            .map(|i| self.counts.get(i).copied().unwrap_or(0) as f64 / SLICE.as_secs_f64())
            .collect()
    }

    /// [`trimmed_mean`] of [`Slices::rates`].
    pub fn rate(&self, from: Instant, to: Instant) -> f64 {
        trimmed_mean(&mut self.rates(from, to))
    }
}

/// Latency of an open-loop request, timed from when it was due to be
/// sent (`start + id * period`), not from when the generator got round
/// to sending it: a stall is charged to every request queued behind it.
pub fn open_latency_ns(start_ns: u64, period_ns: u64, id: u64, done_ns: u64) -> u64 {
    done_ns.saturating_sub(start_ns + id * period_ns)
}

/// A `/proc/self/status` field in kB (`VmHWM`, `VmRSS`, ...).
pub fn proc_status_kb(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// OS threads of this process.
pub fn os_threads() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit kept (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), None, "999 samples leave 9 beyond p99");
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.99), Some(990.0));
        assert_eq!(percentile(&s, 0.50), Some(500.0));
        let s: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), None);
        let s: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn summary_sorts_and_counts() {
        let mut s: Vec<f64> = (0..2000).rev().map(f64::from).collect();
        let sum = summarize(&mut s);
        assert_eq!(sum.n, 2000);
        assert_eq!(sum.p50, Some(999.0));
        assert_eq!(sum.p99, Some(1979.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn open_loop_latency_counts_from_intended_send() {
        // Request 3 was due at 1000 + 3*200 = 1600 ns. The generator sent
        // it late, at 2500, and it completed at 2600: its latency is
        // 1000 ns, not the 100 ns since the late send.
        assert_eq!(open_latency_ns(1000, 200, 3, 2600), 1000);
        assert_eq!(open_latency_ns(1000, 200, 0, 1000), 0);
    }

    #[test]
    fn same_seed_same_stream() {
        let draws = |seed, stream| {
            let mut r = Rng::stream(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(7, 1), draws(7, 1));
        assert_ne!(draws(7, 1), draws(8, 1));
        assert_ne!(draws(7, 1), draws(7, 2));
        let mut r = Rng::new(1);
        assert!((0..1000).all(|_| r.below(10) < 10 && r.unit() < 1.0));
    }

    #[test]
    fn throughput_is_the_trimmed_mean_of_full_slices() {
        let t = Instant::now();
        let s = Slices::from_counts(t, vec![2, 4, 6]);
        let ms = |n| t + Duration::from_millis(n);
        assert_eq!(s.rate(t, ms(300)), 40.0);
        assert_eq!(
            s.rate(ms(10), ms(300)),
            50.0,
            "a partial first slice is skipped"
        );
        assert_eq!(s.rate(t, ms(250)), 30.0, "a partial last slice is skipped");
        let mut counts = vec![10; 18];
        counts.extend([0, 1000]);
        let s = Slices::from_counts(t, counts);
        assert_eq!(s.rate(t, ms(2000)), 100.0, "the outer tenths are trimmed");
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.25), "1.25");
    }
}
