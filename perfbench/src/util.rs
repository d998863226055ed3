//! Measurement plumbing shared by every workload: a seeded generator,
//! latency histograms, per-second op counts, the deterministic value
//! generator behind the correctness oracles, and process/host probes.

use std::time::{Duration, Instant};

/// splitmix64: small, fast and identical on every platform, so a seed
/// names the same inputs everywhere.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// splitmix64 finalizer.
pub fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The 64-byte-family value the `mixed_large` and `served_durable`
/// workloads write for `(key, version)`: one of the throughput harness's
/// four fill patterns chosen by `key % 4`, plus an 8-byte tail that is a
/// hash of seed, key and version. The oracles regenerate it instead of
/// storing values.
pub fn fill_value(seed: u64, key: u64, version: u32, out: &mut [u8]) {
    let fill = match key % 4 {
        0 => 0x00,
        1 => 0xFF,
        2 => 0x0F,
        _ => 0xAA,
    };
    out.fill(fill);
    let tail = mix(seed ^ mix(key ^ ((version as u64) << 40)));
    let n = out.len().min(8);
    let start = out.len() - n;
    out[start..].copy_from_slice(&tail.to_le_bytes()[..n]);
}

/// Zipf(theta) rank sampler over `0..n` via an inverted CDF table. The
/// benchmark keeps its own copy of this and of `fill_value` rather than
/// using `pnw-bench`'s, so its inputs cannot change when that harness
/// does.
pub struct Zipf {
    cum: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Self {
        let mut cum = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cum.push(acc);
        }
        for c in &mut cum {
            *c /= acc;
        }
        Zipf { cum }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1) as u64
    }
}

/// Linearly interpolated quantile of an unsorted sample (reorders it).
pub fn quantile(xs: &mut [u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let h = q * (xs.len() - 1) as f64;
    let i = h.floor() as usize;
    let (_, lo, rest) = xs.select_nth_unstable(i);
    let lo = *lo as f64;
    let hi = rest.iter().min().map_or(lo, |&v| v as f64);
    lo + (h - i as f64) * (hi - lo)
}

/// Interpolated median of floats.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let h = 0.5 * (v.len() - 1) as f64;
    let i = h.floor() as usize;
    let j = (i + 1).min(v.len() - 1);
    v[i] + (h - i as f64) * (v[j] - v[i])
}

/// Log-linear latency histogram: exact below 2^SUB ns, then 2^SUB
/// buckets per power of two (under 0.8 % relative width). Fixed size, so
/// recording inside a measured window never allocates.
const SUB: u32 = 7;
const BUCKETS: usize = (64 - SUB as usize + 1) << SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    n: u64,
}

/// One percentile as reported, with the sample count behind it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Pct {
    pub value_ns: f64,
    pub samples: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

impl Hist {
    fn index(v: u64) -> usize {
        if v < 1 << SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB;
        (((shift + 1) << SUB) as u64 + (v >> shift) - (1 << SUB)) as usize
    }

    /// `(low edge, width)` of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let sub = 1usize << SUB;
        if i < sub {
            return (i as f64, 1.0);
        }
        let shift = (i >> SUB) as u32 - 1;
        let mantissa = (i & (sub - 1)) as u64 + sub as u64;
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
    }

    pub fn absorb(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q` quantile (rank `q * (n - 1)`, placed inside its bucket by
    /// rank) over every sample recorded.
    pub fn pct(&self, q: f64) -> Pct {
        let mut value_ns = 0.0;
        if self.n > 0 {
            let rank = q * (self.n - 1) as f64;
            let mut below = 0u64;
            for (i, &c) in self.counts.iter().enumerate() {
                if c > 0 && (below + c as u64) as f64 > rank {
                    let (lo, width) = Self::bounds(i);
                    value_ns = lo + width * (rank - below as f64 + 0.5) / c as f64;
                    break;
                }
                below += c as u64;
            }
        }
        Pct {
            value_ns,
            samples: self.n,
        }
    }
}

/// Completed-op counts per one-second sub-window. The reported rate is
/// total ops over total time; the per-second counts feed the provenance
/// note and the traced run's odd/even comparison.
pub struct Rate {
    origin: Instant,
    width: Duration,
    counts: Vec<u64>,
    paused: Duration,
}

impl Rate {
    pub fn new(origin: Instant, width: Duration) -> Self {
        Rate {
            origin,
            width,
            counts: Vec::new(),
            paused: Duration::ZERO,
        }
    }

    /// Excludes `d` of wall time (a deliberate measurement pause) from
    /// the sub-window clock.
    pub fn pause(&mut self, d: Duration) {
        self.paused += d;
    }

    #[inline]
    pub fn tick(&mut self, at: Instant, n: u64) {
        let t = at
            .saturating_duration_since(self.origin)
            .saturating_sub(self.paused);
        let i = (t.as_nanos() / self.width.as_nanos()) as usize;
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += n;
    }

    pub fn absorb(&mut self, other: &Rate) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
    }

    /// Median rate of the odd full sub-windows over that of the even ones
    /// (traced over untraced, see `Tracer::alternate`).
    pub fn odd_even_ratio(&self, full: usize) -> f64 {
        let n = full.min(self.counts.len());
        let pick = |odd: usize| -> Vec<f64> {
            self.counts[..n]
                .iter()
                .skip(odd)
                .step_by(2)
                .map(|&c| c as f64)
                .collect()
        };
        median(&pick(1)) / median(&pick(0)).max(1.0)
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Ops/s of each full sub-window.
    pub fn full_rates(&self, full: usize) -> Vec<f64> {
        let secs = self.width.as_secs_f64();
        let n = full.min(self.counts.len());
        self.counts[..n].iter().map(|&c| c as f64 / secs).collect()
    }
}

/// The sample note for a set of per-second rates.
pub fn describe_rates(rates: &[f64]) -> String {
    let mut v = rates.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| {
        v.get(((v.len().max(1) - 1) as f64 * q).round() as usize)
            .copied()
            .unwrap_or(0.0)
    };
    format!(
        "{} one-second sub-windows; per-second min {:.0} q1 {:.0} q3 {:.0} max {:.0}",
        v.len(),
        at(0.0),
        at(0.25),
        at(0.75),
        at(1.0)
    )
}

/// Restarts the kernel's peak-RSS tracking, so `peak_rss_mb` covers the
/// measured phase and not the repeated set-ups before it.
pub fn reset_peak_rss() {
    release_free_memory();
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// Pins glibc's mmap threshold at its 128 KiB default. Left dynamic, it
/// rises after the first large free, so later set-ups' big arrays land in
/// the heap or not depending on earlier frees, and the resident size of
/// the same workload varied by megabytes from process to process.
pub fn fix_allocator() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt takes plain integers and is called once, before any
    // other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

/// Hands memory freed by earlier set-ups back to the kernel, so the peak
/// RSS of the measured phase does not include it.
pub fn release_free_memory() {
    // SAFETY: malloc_trim takes no pointers and may be called at any time
    // from any thread.
    unsafe {
        malloc_trim(0);
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Total bytes of the regular files directly under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Bytes of the files under `dir` whose names start with `prefix`.
pub fn prefixed_bytes(dir: &std::path::Path, prefix: &str) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Host facts stamped on every result.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
}

pub fn host() -> Host {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']))
        })
        .unwrap_or("unknown")
        .to_string();
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Host { nproc, cpu, kernel }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`).
pub fn fs_type(path: &std::path::Path) -> String {
    let abs = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    let mut best: (usize, String) = (0, "unknown".into());
    for line in mounts.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 3 {
            continue;
        }
        let mp = std::path::Path::new(f[1]);
        if abs.starts_with(mp) && f[1].len() >= best.0 {
            best = (f[1].len(), f[2].to_string());
        }
    }
    best.1
}

/// JSON string escaping for the hand-written result lines.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
