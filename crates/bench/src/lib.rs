//! # pnw-bench — the experiment harness
//!
//! One module per concern:
//!
//! * [`replace`] — the replacement-workload engines behind Figures 6 and 7:
//!   warm a data zone with "old data", then stream new items over it, either
//!   through a write scheme (baselines, in-place updates) or through the PNW
//!   store (predicted placement).
//! * [`figures`] — one function per paper table/figure, returning the rows
//!   the paper plots. Every function takes a [`Scale`] so the same code
//!   runs as a quick smoke test or a full reproduction.
//! * [`table`] — plain-text table rendering for the harness binaries.
//! * [`throughput`] — the multi-threaded throughput harness over any
//!   [`Store`](pnw_core::Store) backend (PNW at any shard count, FPTree,
//!   NoveLSM, Path hashing): configurable thread count,
//!   PUT/GET/DELETE mix, Zipfian keys and an optional
//!   [`Store::apply`](pnw_core::Store::apply) batch size, reporting
//!   ops/sec plus p50/p99 modeled and prediction latency. (Figure 9 and
//!   this harness drive every backend through the one `Store` trait — the
//!   old `KvStore` adapter shim is gone.)
//! * [`predictbench`] — the prediction-kernel microbenchmark: packed
//!   bit-domain LUT path vs the reference float featurize-then-scan path,
//!   across value sizes and cluster counts (`BENCH_predict.json`).
//! * [`trainbench`] — the retraining benchmark: the packed bit-domain
//!   training pipeline vs the float featurize-then-Lloyd reference, across
//!   value sizes, cluster counts and sample counts (`BENCH_train.json`).
//! * [`scenario`] — the scenario engine: declarative phased workloads
//!   (per-phase key distribution, op mix, value-pattern family, TTL,
//!   arrival rate, burst/quiesce) replayed against any `Store` backend
//!   with windowed time-series metrics — flips/PUT, retrains, model
//!   epoch, prediction latency, TTL expiry/eviction per window
//!   (`BENCH_scenario.json`).
//! * [`serverbench`] — the open-loop, coordinated-omission-safe load
//!   generator against a running `pnw-server`: Poisson arrivals at a
//!   fixed offered rate, sojourn-time percentiles from *scheduled*
//!   arrival, bounded full-jitter retries, and scheduled fault injection
//!   (connection kills, torn frames, corrupt frames)
//!   (`BENCH_server.json`).
//!
//! Binaries (`cargo run --release -p pnw-bench --bin <name>`):
//! `fig3 fig4 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 table1 table2
//! repro_all throughput predict train server_load scenario`.

#![warn(missing_docs)]

pub mod figures;
pub mod predictbench;
pub mod replace;
pub mod scenario;
pub mod serverbench;
pub mod table;
pub mod throughput;
pub mod trainbench;

/// Experiment scale, so harnesses run both as smoke tests and full repros.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale: CI / `cargo bench` smoke runs.
    Quick,
    /// Minutes-scale: the numbers recorded in `EXPERIMENTS.md`.
    Full,
}

impl Scale {
    /// Reads the scale from argv (`--quick`) or the `PNW_SCALE` env var
    /// (`quick`/`full`). Defaults to `Full` for binaries.
    pub fn from_env() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            return Scale::Quick;
        }
        match std::env::var("PNW_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Picks between quick and full parameter values.
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}
