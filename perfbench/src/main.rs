//! `perfbench` — the PNW benchmark binary.
//!
//! ```text
//! perfbench --workload <amazon_update|mixed_large|served_durable>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Builds its inputs from `--seed` before the measured window, measures
//! for `--seconds`, checks every acknowledged write with a correctness
//! oracle, and prints one JSON object as the last line of standard
//! output: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set. With `--trace 1` the
//! window records a span per layer call in every other second, the
//! recorded ops are replayed through standalone layer instances
//! (`layers`), and the metrics are the per-layer set. The line before
//! the result carries provenance, sample counts and the facts that are
//! not bounded metrics. The process exits 1 when an oracle trips.

mod amazon;
mod layers;
mod mixed;
mod served;
mod trace;
mod util;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use util::{json_num, json_str};

/// Parsed command line.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// Self-test hook: write one value behind the oracle's back after the
    /// window, which the oracle must catch.
    pub plant_wrong: bool,
    /// Clock origin shared by every tracer of the run.
    pub origin: Instant,
}

impl Ctx {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back: metrics in output order, extra facts that
/// are reported but not bounded, the sample counts behind every
/// percentile, and the oracle's verdict.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub info: Vec<(String, f64, &'static str)>,
    pub samples: Vec<(String, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &'static str) {
        self.info.push((name.to_string(), value, unit));
    }

    pub fn sample(&mut self, name: &str, p: &util::Pct) {
        self.samples
            .push((name.to_string(), format!("{} samples", p.samples)));
    }

    pub fn note(&mut self, name: &str, text: String) {
        self.samples.push((name.to_string(), text));
    }

    /// Records an oracle violation (keeps the first few for the log).
    pub fn violation(&mut self, text: String) {
        if self.violations.len() < 16 {
            eprintln!("oracle: {text}");
        }
        self.violations.push(text);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <amazon_update|mixed_large|served_durable> \
         --seed <n> --seconds <s> --trace <0|1> [--out <dir>]"
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut plant_wrong = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => workload = Some(val()),
            "--seed" => seed = val().parse().ok(),
            "--seconds" => seconds = val().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = val() == "1",
            "--out" => out = PathBuf::from(val()),
            "--plant-wrong-value" => plant_wrong = true,
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds)) = (workload, seed, seconds) else {
        usage()
    };
    Ctx {
        workload,
        seed,
        seconds,
        trace,
        out,
        plant_wrong,
        origin: Instant::now(),
    }
}

fn main() {
    util::fix_allocator();
    let ctx = parse_args();
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("cannot create {}: {e}", ctx.out.display());
        std::process::exit(2);
    }
    let report = match ctx.workload.as_str() {
        "amazon_update" => amazon::run(&ctx),
        "mixed_large" => mixed::run(&ctx),
        "served_durable" => served::run(&ctx),
        other => {
            eprintln!("unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    emit(&ctx, &report);
    if !report.correct() {
        eprintln!(
            "perfbench: {} oracle violation(s) on {}",
            report.violations.len(),
            ctx.workload
        );
        std::process::exit(1);
    }
}

fn metrics_json(items: &[(String, f64, &'static str)]) -> String {
    let body: Vec<String> = items
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(n),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the provenance line and the result line, and keeps a copy of
/// both under the output directory.
fn emit(ctx: &Ctx, r: &Report) {
    let host = util::host();
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into());
    let samples: Vec<String> = r
        .samples
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    let provenance = format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"commit\": {}, \"nproc\": {}, \"cpu\": {}, \"kernel\": {}, \"out_fs\": {}}}, \
         \"samples\": {{{}}}, \"info\": {}}}",
        json_str(&ctx.workload),
        ctx.seed,
        json_num(ctx.seconds),
        u8::from(ctx.trace),
        json_str(&commit),
        host.nproc,
        json_str(&host.cpu),
        json_str(&host.kernel),
        json_str(&util::fs_type(&ctx.out)),
        samples.join(", "),
        metrics_json(&r.info),
    );
    println!("{provenance}");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics_json(&r.metrics)
    );
    println!("{result}");
    let file = ctx.out.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let _ = std::fs::write(file, format!("{provenance}\n{result}\n"));
}
