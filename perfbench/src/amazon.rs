//! `amazon_update` — the paper's replacement stream on its headline
//! dataset: an in-process, volatile `ShardedPnwStore` holding 256-byte
//! Amazon-like sparse rows with K = 14, warmed with old rows and trained
//! once (`RetrainMode::Manual`, so device counts repeat exactly), then one
//! client thread streams new rows over the warm keys through
//! `Store::apply` in batches of 64.
//!
//! The paper-axis metrics (`flips_per_put`, `lines_per_put`,
//! `projected_lifetime_ops`) are read after exactly [`PAPER_PUTS`] PUTs,
//! so they are a function of the seed alone; the speed metrics cover the
//! whole timed window.

use std::time::{Duration, Instant};

use pnw_core::{Batch, PnwConfig, RetrainMode, ShardedPnwStore, Store};
use pnw_nvm_sim::{projected_lifetime_ops, MemoryTech};
use pnw_workloads::{SparseBinary, Workload};

use crate::layers::{self, RecOp, ReplayInput, WindowFacts};
use crate::trace::{TraceSet, Tracer};
use crate::util::{describe_rates, median, peak_rss_mb, reset_peak_rss, Hist, Rate, Rng};
use crate::{Ctx, Report};

pub const KEYS: u64 = 16_384;
const CAPACITY: usize = 32_768;
const CLUSTERS: usize = 14;
const SHARDS: usize = 2;
pub const BATCH: usize = 64;
/// PUTs after which the paper-axis counts are read.
pub const PAPER_PUTS: u64 = 1_000_000;
/// Distinct new rows the update stream cycles through.
const NEW_ROWS: usize = 65_536;
/// Length of the pre-generated (key, row) stream; cycled when a window
/// outlasts it.
const STREAM: usize = 1 << 20;
/// Set-up + window rounds per untraced run, each on a freshly built
/// store. Pooling their samples averages over several memory layouts and
/// stretches of host noise instead of betting the run on one.
const ROUNDS: u32 = 5;
const SPAN_CAP: usize = 1 << 20;

/// The store's configuration. Its model seed stays at the library default
/// for every `--seed`: the seed names the inputs, not the store.
fn config() -> PnwConfig {
    PnwConfig::new(CAPACITY, 256)
        .with_clusters(CLUSTERS)
        .with_shards(SHARDS)
        .with_retrain(RetrainMode::Manual)
}

struct Inputs {
    old: Vec<Vec<u8>>,
    new: Vec<Vec<u8>>,
    /// `(key, index into new)` per PUT.
    stream: Vec<(u32, u32)>,
    gen_ns: f64,
}

fn generate(seed: u64) -> Inputs {
    let t0 = Instant::now();
    let mut w = SparseBinary::amazon_like(seed);
    let old = (0..KEYS).map(|_| w.next_value()).collect();
    let new = (0..NEW_ROWS).map(|_| w.next_value()).collect();
    let mut rng = Rng::new(seed ^ 0xA11A);
    let stream = (0..STREAM)
        .map(|i| (rng.below(KEYS) as u32, (i % NEW_ROWS) as u32))
        .collect();
    let gen_ns = t0.elapsed().as_nanos() as f64 / (KEYS as usize + NEW_ROWS + STREAM) as f64;
    Inputs {
        old,
        new,
        stream,
        gen_ns,
    }
}

/// Build + warm + train; returns the store and the wall time it took.
fn setup(inp: &Inputs) -> Result<(ShardedPnwStore, f64), String> {
    let t0 = Instant::now();
    let store = ShardedPnwStore::new(config());
    let keys: Vec<u64> = (0..KEYS).collect();
    layers::warm(&store, &keys, &|k| inp.old[k as usize].clone())?;
    store.retrain_now().map_err(|e| format!("train: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    store.reset_device_stats();
    Ok((store, secs))
}

/// The streaming client's state across windows.
struct Client {
    pos: usize,
    puts: u64,
    /// Index into `new` of each key's last acknowledged row; `u32::MAX`
    /// while the key still holds its set-up row.
    shadow: Vec<u32>,
    batch: Batch,
    failed: u64,
    predict_ns: u64,
    predict_n: u64,
    paper: Option<(f64, f64, f64)>,
    /// Read-back state: key order and its shuffler.
    order: Vec<u64>,
    rng: Rng,
    gets: Hist,
    violations: Vec<String>,
}

impl Client {
    fn new(seed: u64) -> Self {
        Client {
            pos: 0,
            puts: 0,
            shadow: vec![u32::MAX; KEYS as usize],
            batch: Batch::with_capacity(BATCH),
            failed: 0,
            predict_ns: 0,
            predict_n: 0,
            paper: None,
            order: (0..KEYS).collect(),
            rng: Rng::new(seed ^ 0x5EE),
            gets: Hist::default(),
            violations: Vec::new(),
        }
    }

    /// The final oracle pass (after any planted value; its timings are
    /// dropped), then the violations seen by every pass.
    fn finish(&mut self, store: &ShardedPnwStore, inp: &Inputs, rep: &mut Report) {
        read_pass(store, inp, self, false);
        for v in std::mem::take(&mut self.violations) {
            rep.violation(v);
        }
    }
}

/// Writes one flipped bit of key 0's acknowledged value behind the
/// oracle's back (the self-test's planted fault).
fn plant_wrong(store: &ShardedPnwStore, inp: &Inputs, c: &Client) {
    let mut v = match c.shadow[0] {
        u32::MAX => inp.old[0].clone(),
        row => inp.new[row as usize].clone(),
    };
    v[0] ^= 1;
    let _ = store.put(0, &v);
}

/// One timed window: `apply` batches until `len` has passed and, when
/// `paper` is set, until the paper-axis prefix is complete.
fn window(
    store: &ShardedPnwStore,
    inp: &Inputs,
    c: &mut Client,
    len: Duration,
    paper: bool,
    tr: &mut Tracer,
) -> (Rate, Hist, f64) {
    let origin = Instant::now();
    let width = Duration::from_secs(1);
    let mut rate = Rate::new(origin, width);
    let mut lat = Hist::default();
    let mut paused = Duration::ZERO;
    let mut next_read = width;
    loop {
        let active = origin.elapsed().saturating_sub(paused);
        if active >= next_read {
            // Once a second the stream pauses for one timed oracle pass;
            // the pause is excluded from the rate.
            let p0 = Instant::now();
            read_pass(store, inp, c, true);
            let d = p0.elapsed();
            paused += d;
            rate.pause(d);
            next_read += width;
            continue;
        }
        tr.alternate(active);
        if active >= len && (!paper || c.paper.is_some()) {
            return (rate, lat, active.as_secs_f64());
        }
        c.batch.clear();
        let first = c.pos;
        for j in 0..BATCH {
            let (key, row) = inp.stream[(first + j) % STREAM];
            c.batch.put(key as u64, &inp.new[row as usize]);
        }
        let t0 = Instant::now();
        let rep = store.apply(&c.batch);
        let t1 = Instant::now();
        tr.record("window.sharded.apply", first as u64, t0, t1, 1);
        lat.record((t1 - t0).as_nanos() as u64);
        rate.tick(t1, BATCH as u64);
        c.predict_ns += rep.predict_samples.iter().sum::<u64>();
        c.predict_n += rep.predict_samples.len() as u64;
        let mut bad = rep.failures.iter().map(|(i, _)| *i).peekable();
        for j in 0..BATCH {
            if bad.peek() == Some(&j) {
                bad.next();
                c.failed += 1;
                continue;
            }
            let (key, row) = inp.stream[(first + j) % STREAM];
            c.shadow[key as usize] = row;
        }
        c.pos += BATCH;
        c.puts += BATCH as u64;
        if paper && c.paper.is_none() && c.puts >= PAPER_PUTS {
            let p0 = Instant::now();
            let dev = store.device_stats();
            let n = c.puts as f64;
            let flips = dev.totals.total_bit_flips() as f64 / n;
            let lines = dev.totals.lines_written as f64 / n;
            let life =
                projected_lifetime_ops(MemoryTech::Pcm, store.max_word_writes(), KEYS + c.puts);
            c.paper = Some((flips, lines, life));
            let d = p0.elapsed();
            paused += d;
            rate.pause(d);
        }
    }
}

/// One oracle pass: every key, in a freshly shuffled order, reads back
/// its last acknowledged row. With `timed`, each `get_into` is recorded
/// in the client's GET histogram.
fn read_pass(store: &ShardedPnwStore, inp: &Inputs, c: &mut Client, timed: bool) {
    let mut buf = vec![0u8; 256];
    for i in (1..c.order.len()).rev() {
        let j = c.rng.below(i as u64 + 1) as usize;
        c.order.swap(i, j);
    }
    for &k in &c.order {
        let t0 = Instant::now();
        let got = store.get_into(k, &mut buf);
        let ns = t0.elapsed().as_nanos() as u64;
        if timed {
            c.gets.record(ns);
        }
        let want = match c.shadow[k as usize] {
            u32::MAX => &inp.old[k as usize],
            row => &inp.new[row as usize],
        };
        let bad = match got {
            Ok(true) if buf == *want => continue,
            Ok(true) => format!("key {k}: read back a value it was never acknowledged with"),
            Ok(false) => format!("key {k}: acknowledged value missing"),
            Err(e) => format!("key {k}: get failed: {e}"),
        };
        c.violations.push(bad);
    }
}

pub fn run(ctx: &Ctx) -> Report {
    let inp = generate(ctx.seed);
    if ctx.trace {
        return traced(ctx, &inp);
    }
    let mut rep = Report::default();
    let seg = ctx.window() / ROUNDS;
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    let (mut ops, mut secs_total) = (0u64, 0.0f64);
    let mut peaks = Vec::new();
    let mut puts = Hist::default();
    let mut gets = Hist::default();
    let mut paper = None;
    let mut fallbacks = 0;
    let mut off = Tracer::new(false, ctx.origin, 0, 0);
    for round in 0..ROUNDS {
        let (store, secs) = match setup(&inp) {
            Ok(s) => s,
            Err(e) => {
                rep.violation(format!("set-up failed: {e}"));
                return rep;
            }
        };
        setups.push(secs);
        reset_peak_rss();
        let mut c = Client::new(ctx.seed.wrapping_add(round as u64));
        let (rate, lat, secs) = window(&store, &inp, &mut c, seg, round == 0, &mut off);
        if ctx.plant_wrong && round == ROUNDS - 1 {
            plant_wrong(&store, &inp, &c);
        }
        c.finish(&store, &inp, &mut rep);
        rates.extend(rate.full_rates(secs.floor() as usize));
        ops += rate.total();
        secs_total += secs;
        puts.absorb(&lat);
        gets.absorb(&c.gets);
        peaks.push(peak_rss_mb());
        paper = paper.or(c.paper);
        fallbacks += store.snapshot().fallbacks;
        rep.attempted += c.puts;
        rep.failed += c.failed;
    }
    let (put50, put99) = (puts.pct(0.50), puts.pct(0.99));
    let (g50, g99) = (gets.pct(0.50), gets.pct(0.99));
    let (flips, lines, life) = paper.expect("round 0 completes the paper prefix");
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("ops_per_s", ops as f64 / secs_total, "1/s");
    rep.metric("put_p50_us", put50.value_ns / 1e3, "us");
    rep.metric("put_p99_us", put99.value_ns / 1e3, "us");
    rep.info("get_p50_us", g50.value_ns / 1e3, "us");
    rep.info("get_p99_us", g99.value_ns / 1e3, "us");
    rep.metric("flips_per_put", flips, "count");
    rep.metric("lines_per_put", lines, "count");
    rep.metric("projected_lifetime_ops", life, "ops");
    rep.metric("peak_rss_mb", median(&peaks), "MiB");
    rep.note(
        "rounds",
        format!(
            "{ROUNDS} rounds of set-up + {:.1} s window, samples pooled",
            seg.as_secs_f64()
        ),
    );
    rep.note("setup_s", format!("median of {} set-ups", setups.len()));
    rep.note("ops_per_s", describe_rates(&rates));
    rep.sample("put_p50_us", &put50);
    rep.sample("put_p99_us", &put99);
    rep.note(
        "put_latency",
        format!("one sample per apply call of {BATCH} PUTs"),
    );
    rep.sample("get_p50_us", &g50);
    rep.sample("get_p99_us", &g99);
    rep.note(
        "get_latency",
        format!("one timed oracle pass over all {KEYS} keys per second of each window"),
    );
    rep.note(
        "paper_axis",
        format!("read after exactly {PAPER_PUTS} PUTs of round 0"),
    );
    rep.note(
        "peak_rss_mb",
        format!("median over rounds of the peak after set-up; per round {peaks:.1?}"),
    );
    rep.info("fallbacks", fallbacks as f64, "count");
    rep.info(
        "failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep
}

/// The traced run: one set-up, one window recording spans in every other
/// second, then the layer replays over the window's first PUTs.
fn traced(ctx: &Ctx, inp: &Inputs) -> Report {
    let mut rep = Report::default();
    let store = match setup(inp) {
        Ok((s, _)) => s,
        Err(e) => {
            rep.violation(format!("set-up failed: {e}"));
            return rep;
        }
    };
    let mut c = Client::new(ctx.seed);
    let before = store.snapshot();
    let dev0 = store.device_stats();
    let retrains0 = store.retrains();
    let mut tr = Tracer::new(true, ctx.origin, SPAN_CAP, 0);
    let (rate, _, secs) = window(&store, inp, &mut c, ctx.window(), false, &mut tr);
    let recorded: Vec<RecOp> = (0..c.pos)
        .take(200_000)
        .map(|i| {
            let (k, row) = inp.stream[i % STREAM];
            RecOp::Put(k as u64, inp.new[row as usize].clone())
        })
        .collect();
    let dev = store.device_stats().since(&dev0);
    let retrains_in_window = store.retrains() - retrains0;
    let t = Instant::now();
    let trained = store.retrain_now();
    let retrain_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = trained {
        rep.violation(format!("retrain failed: {e}"));
    }
    let facts = WindowFacts {
        after: store.snapshot(),
        before,
        dev,
        max_word_writes: store.max_word_writes(),
        wear_p99: store.word_wear_cdf().quantile(0.99),
        retrain_ms,
        retrains_in_window,
        predict_counter_ns: c.predict_ns as f64 / c.predict_n.max(1) as f64,
        backpressure: 0,
        gen_ns: inp.gen_ns,
        sched_lag_p99_us: 0.0,
        server: None,
        traced_over_untraced: rate.odd_even_ratio(tr.full_at().unwrap_or(secs).floor() as usize),
    };
    let mut set = TraceSet::default();
    set.add(tr);
    let mut rtr = Tracer::new(true, ctx.origin, usize::MAX, 1);
    let input = ReplayInput {
        cfg: config(),
        keys: KEYS,
        warm_of: &|k| inp.old[k as usize].clone(),
        route: &|k| store.shard_of_key(k),
        ops: &recorded,
        out: &ctx.out,
    };
    match layers::replay(&input, &mut rtr) {
        Ok(f) => {
            set.add(rtr);
            layers::metrics(&set, &facts, &f, &mut rep);
        }
        Err(e) => rep.violation(format!("layer replay failed: {e}")),
    }
    if ctx.plant_wrong {
        plant_wrong(&store, inp, &c);
    }
    c.finish(&store, inp, &mut rep);
    let _ = set.write_tsv(&ctx.out.join(format!("spans-{}.tsv", ctx.workload)));
    rep.note("spans_file", format!("spans-{}.tsv", ctx.workload));
    rep.attempted = c.puts;
    rep.failed = c.failed;
    rep
}
