//! `mixed_large` — reads beside writes on shared shards. An in-process,
//! volatile `ShardedPnwStore` of 64-byte values from the throughput
//! harness's four pattern families, sized so device + index are hundreds
//! of MiB (well past a per-core L2), retraining in the background as
//! deployed. Two client threads run a closed loop of per-op calls — 50 %
//! `get_into`, 40 % `put`, 10 % `delete` — over Zipf(0.99) keys, each
//! thread owning half the keys so its shadow map is exact.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, RetrainMode, ShardedPnwStore, StoreError};
use pnw_nvm_sim::{projected_lifetime_ops, MemoryTech};

use crate::layers::{self, RecOp, ReplayInput, WindowFacts};
use crate::trace::{TraceSet, Tracer};
use crate::util::{
    describe_rates, fill_value, median, peak_rss_mb, reset_peak_rss, Hist, Rate, Rng, Zipf,
};
use crate::{Ctx, Report};

const KEYS: u64 = 1 << 19;
const CAPACITY: usize = 2 * KEYS as usize;
const CLUSTERS: usize = 8;
const SHARDS: usize = 8;
const VALUE: usize = 64;
const THREADS: usize = 2;
const ZIPF_THETA: f64 = 0.99;
/// Pre-generated ops per thread; cycled when a window outlasts them.
const RING: usize = 1 << 21;
/// Set-up + window rounds per untraced run, each on a freshly built
/// store (see `amazon::ROUNDS`).
const ROUNDS: u32 = 5;
const SPAN_CAP: usize = 1 << 20;
/// Shadow-map flag: the key is deleted (low bits keep the last version).
const DELETED: u32 = 1 << 31;

const GET: u32 = 0;
const PUT: u32 = 1;
const DEL: u32 = 2;

/// The store's configuration. Its model seed stays at the library default
/// for every `--seed`: the seed names the inputs, not the store.
fn config() -> PnwConfig {
    PnwConfig::new(CAPACITY, VALUE)
        .with_clusters(CLUSTERS)
        .with_shards(SHARDS)
        .with_load_factor(0.95)
        .with_retrain(RetrainMode::Background)
}

/// Thread `t` owns keys `2 * rank + t`.
fn key_of(t: usize, rank: u32) -> u64 {
    2 * rank as u64 + t as u64
}

/// Per-thread op ring: `kind << 30 | rank`.
fn generate(seed: u64) -> (Vec<Vec<u32>>, f64) {
    let t0 = Instant::now();
    let zipf = Zipf::new((KEYS / THREADS as u64) as usize, ZIPF_THETA);
    let rings = (0..THREADS)
        .map(|t| {
            let mut rng = Rng::new(seed ^ (0x3170 + t as u64));
            (0..RING)
                .map(|_| {
                    let rank = zipf.sample(&mut rng) as u32;
                    let kind = match rng.below(100) {
                        0..=49 => GET,
                        50..=89 => PUT,
                        _ => DEL,
                    };
                    kind << 30 | rank
                })
                .collect()
        })
        .collect();
    (
        rings,
        t0.elapsed().as_nanos() as f64 / (THREADS * RING) as f64,
    )
}

/// Build, age and train. Every key is written twice — an old version,
/// then the one the window starts from — so the free half of the data
/// zone holds freed values of every family, as in a store that has run
/// for a while. A store warmed once has only never-written zero buckets
/// free: the non-zero families' free lists then start empty and their
/// hottest words depend on a random walk of deletes, which left
/// `projected_lifetime_ops` to chance.
fn setup(seed: u64) -> Result<(ShardedPnwStore, f64), String> {
    let t0 = Instant::now();
    let store = ShardedPnwStore::new(config());
    let keys: Vec<u64> = (0..KEYS).collect();
    layers::warm(&store, &keys, &|k| {
        let mut v = vec![0u8; VALUE];
        fill_value(seed, k, 0, &mut v);
        v
    })?;
    layers::warm(&store, &keys, &|k| warm_value(seed, k))?;
    store.retrain_now().map_err(|e| format!("train: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    store.reset_device_stats();
    Ok((store, secs))
}

fn warm_value(seed: u64, key: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE];
    fill_value(seed, key, 1, &mut v);
    v
}

/// One client thread's state across windows.
struct Client {
    t: usize,
    pos: usize,
    /// Version of each owned key's last acknowledged PUT, `| DELETED`
    /// after an acknowledged DELETE.
    shadow: Vec<u32>,
    puts: u64,
    ops: u64,
    failed: u64,
    backpressure: u64,
    violations: Vec<String>,
}

struct Window {
    rate: Rate,
    put: Hist,
    get: Hist,
    secs: f64,
}

fn window(
    store: &ShardedPnwStore,
    ring: &[u32],
    c: &mut Client,
    seed: u64,
    len: Duration,
    start: &Barrier,
    tr: &mut Tracer,
) -> Window {
    start.wait();
    let origin = Instant::now();
    let width = Duration::from_secs(1);
    let mut w = Window {
        rate: Rate::new(origin, width),
        put: Hist::default(),
        get: Hist::default(),
        secs: 0.0,
    };
    let mut buf = [0u8; VALUE];
    let mut val = [0u8; VALUE];
    let mut want = [0u8; VALUE];
    let mut n = 0u32;
    loop {
        // Check the clock every 64 ops; the check is not free.
        n = n.wrapping_add(1);
        if n.is_multiple_of(64) {
            let elapsed = origin.elapsed();
            tr.alternate(elapsed);
            if elapsed >= len {
                break;
            }
        }
        let op = ring[c.pos % RING];
        let idx = c.pos as u64;
        c.pos += 1;
        let rank = op & ((1 << 30) - 1);
        let key = key_of(c.t, rank);
        let cur = c.shadow[rank as usize];
        let res: Result<(), StoreError> = match op >> 30 {
            GET => {
                let t0 = Instant::now();
                let r = store.get_into(key, &mut buf);
                let t1 = Instant::now();
                tr.record("window.sharded.get_into", idx, t0, t1, 1);
                w.get.record((t1 - t0).as_nanos() as u64);
                w.rate.tick(t1, 1);
                r.map(|found| {
                    let live = cur & DELETED == 0;
                    if found != live {
                        c.violations.push(format!(
                            "key {key}: GET found={found}, acknowledged live={live}"
                        ));
                    } else if found {
                        fill_value(seed, key, cur, &mut want);
                        if buf != want {
                            c.violations.push(format!(
                                "key {key}: GET returned a value never acknowledged"
                            ));
                        }
                    }
                })
            }
            PUT => {
                let version = (cur & !DELETED) + 1;
                fill_value(seed, key, version, &mut val);
                let t0 = Instant::now();
                let r = store.put(key, &val);
                let t1 = Instant::now();
                tr.record("window.sharded.put", idx, t0, t1, 1);
                w.put.record((t1 - t0).as_nanos() as u64);
                w.rate.tick(t1, 1);
                r.map(|_| {
                    c.shadow[rank as usize] = version;
                    c.puts += 1;
                })
            }
            _ => {
                let t0 = Instant::now();
                let r = store.delete(key);
                let t1 = Instant::now();
                tr.record("window.sharded.delete", idx, t0, t1, 1);
                w.rate.tick(t1, 1);
                r.map(|existed| {
                    if existed != (cur & DELETED == 0) {
                        c.violations.push(format!(
                            "key {key}: DELETE existed={existed} disagrees with the shadow"
                        ));
                    }
                    c.shadow[rank as usize] = cur | DELETED;
                })
            }
        };
        c.ops += 1;
        if let Err(e) = res {
            c.failed += 1;
            if matches!(e, StoreError::Backpressure { .. }) {
                c.backpressure += 1;
            }
        }
    }
    w.secs = origin.elapsed().as_secs_f64();
    w
}

/// Runs one window on both threads and merges their recorders.
fn run_window(
    store: &ShardedPnwStore,
    rings: &[Vec<u32>],
    clients: &mut [Client],
    seed: u64,
    len: Duration,
    tracers: &mut [Tracer],
) -> Window {
    let start = Barrier::new(THREADS);
    let mut parts: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(c, tr)| {
                let ring = &rings[c.t];
                let start = &start;
                s.spawn(move || window(store, ring, c, seed, len, start, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut w = parts.remove(0);
    for p in parts {
        w.rate.absorb(&p.rate);
        w.put.absorb(&p.put);
        w.get.absorb(&p.get);
        w.secs = w.secs.min(p.secs);
    }
    w
}

/// The oracle after the window: every owned key reads back its last
/// acknowledged value, every deleted key is absent.
fn verify(store: &ShardedPnwStore, clients: &[Client], seed: u64, rep: &mut Report) {
    let mut buf = [0u8; VALUE];
    let mut want = [0u8; VALUE];
    for c in clients {
        for v in &c.violations {
            rep.violation(format!("thread {}: {v}", c.t));
        }
        for (rank, &cur) in c.shadow.iter().enumerate() {
            let key = key_of(c.t, rank as u32);
            match store.get_into(key, &mut buf) {
                Ok(true) if cur & DELETED != 0 => {
                    rep.violation(format!("key {key}: deleted key is present"))
                }
                Ok(true) => {
                    fill_value(seed, key, cur, &mut want);
                    if buf != want {
                        rep.violation(format!(
                            "key {key}: value differs from the last acknowledged PUT"
                        ));
                    }
                }
                Ok(false) if cur & DELETED == 0 => {
                    rep.violation(format!("key {key}: acknowledged value missing"))
                }
                Ok(false) => {}
                Err(e) => rep.violation(format!("key {key}: get failed: {e}")),
            }
        }
    }
}

fn new_clients() -> Vec<Client> {
    (0..THREADS)
        .map(|t| Client {
            t,
            pos: 0,
            shadow: vec![1; (KEYS / THREADS as u64) as usize],
            puts: 0,
            ops: 0,
            failed: 0,
            backpressure: 0,
            violations: Vec::new(),
        })
        .collect()
}

/// Writes one flipped bit of an acknowledged value behind the oracle's
/// back (the self-test's planted fault).
fn plant_wrong(store: &ShardedPnwStore, clients: &[Client], seed: u64) {
    let c = &clients[0];
    let rank = c.shadow.iter().position(|&v| v & DELETED == 0).unwrap_or(0);
    let key = key_of(0, rank as u32);
    let mut v = vec![0u8; VALUE];
    fill_value(seed, key, c.shadow[rank], &mut v);
    v[0] ^= 1;
    let _ = store.put(key, &v);
}

fn setup_or_report(seed: u64, rep: &mut Report) -> Option<(ShardedPnwStore, f64)> {
    setup(seed)
        .map_err(|e| rep.violation(format!("set-up failed: {e}")))
        .ok()
}

pub fn run(ctx: &Ctx) -> Report {
    let (rings, gen_ns) = generate(ctx.seed);
    if ctx.trace {
        return traced(ctx, &rings, gen_ns);
    }
    let mut rep = Report::default();
    let seg = ctx.window() / ROUNDS;
    let mut setups = Vec::new();
    let (mut ops, mut window_secs) = (0u64, 0.0f64);
    let mut rates = Vec::new();
    let mut peaks = Vec::new();
    let mut lifetimes = Vec::new();
    let mut put = Hist::default();
    let mut get = Hist::default();
    let (mut flips, mut lines, mut puts, mut retrains) = (0u64, 0u64, 0u64, 0u64);
    let mut off: Vec<Tracer> = (0..THREADS)
        .map(|t| Tracer::new(false, ctx.origin, 0, t as u32))
        .collect();
    for round in 0..ROUNDS {
        let Some((store, secs)) = setup_or_report(ctx.seed, &mut rep) else {
            return rep;
        };
        setups.push(secs);
        reset_peak_rss();
        let mut clients = new_clients();
        let retrains0 = store.retrains();
        let w = run_window(&store, &rings, &mut clients, ctx.seed, seg, &mut off);
        if ctx.plant_wrong && round == ROUNDS - 1 {
            plant_wrong(&store, &clients, ctx.seed);
        }
        verify(&store, &clients, ctx.seed, &mut rep);
        rates.extend(w.rate.full_rates(w.secs.floor() as usize));
        ops += w.rate.total();
        window_secs += w.secs;
        put.absorb(&w.put);
        get.absorb(&w.get);
        peaks.push(peak_rss_mb());
        let round_puts: u64 = clients.iter().map(|c| c.puts).sum();
        let dev = store.device_stats();
        flips += dev.totals.total_bit_flips();
        lines += dev.totals.lines_written;
        puts += round_puts;
        // Set-up wrote every key twice.
        lifetimes.push(projected_lifetime_ops(
            MemoryTech::Pcm,
            store.max_word_writes(),
            2 * KEYS + round_puts,
        ));
        retrains += store.retrains() - retrains0;
        rep.attempted += clients.iter().map(|c| c.ops).sum::<u64>();
        rep.failed += clients.iter().map(|c| c.failed).sum::<u64>();
    }
    let (p50, p99, g50, g99) = (put.pct(0.50), put.pct(0.99), get.pct(0.50), get.pct(0.99));
    let n = puts.max(1) as f64;
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("ops_per_s", ops as f64 / window_secs, "1/s");
    rep.metric("put_p50_us", p50.value_ns / 1e3, "us");
    rep.metric("put_p99_us", p99.value_ns / 1e3, "us");
    rep.info("get_p50_us", g50.value_ns / 1e3, "us");
    rep.info("get_p99_us", g99.value_ns / 1e3, "us");
    rep.metric("flips_per_put", flips as f64 / n, "count");
    rep.metric("lines_per_put", lines as f64 / n, "count");
    rep.metric("projected_lifetime_ops", median(&lifetimes), "ops");
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
    rep.sample("put_p50_us", &p50);
    rep.sample("put_p99_us", &p99);
    rep.sample("get_p50_us", &g50);
    rep.sample("get_p99_us", &g99);
    rep.note(
        "projected_lifetime_ops",
        "median over rounds; PCM endurance over the hottest word, ops = set-up + window PUTs"
            .into(),
    );
    rep.note(
        "peak_rss_mb",
        format!("median over rounds of the peak after set-up; per round {peaks:.1?}"),
    );
    rep.info("retrains_in_window", retrains as f64, "count");
    rep.info("window_puts", puts as f64, "count");
    rep.info(
        "failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        "ratio",
    );
    rep
}

/// The traced run: one set-up, one window recording spans in every other
/// second, then the layer replays over the window's first ops.
fn traced(ctx: &Ctx, rings: &[Vec<u32>], gen_ns: f64) -> Report {
    let mut rep = Report::default();
    let Some((store, _)) = setup_or_report(ctx.seed, &mut rep) else {
        return rep;
    };
    let mut clients = new_clients();
    let before = store.snapshot();
    let dev0 = store.device_stats();
    let retrains_before = store.retrains();
    let mut tracers: Vec<Tracer> = (0..THREADS)
        .map(|t| Tracer::new(true, ctx.origin, SPAN_CAP, t as u32))
        .collect();
    let w = run_window(
        &store,
        rings,
        &mut clients,
        ctx.seed,
        ctx.window(),
        &mut tracers,
    );
    let traced_secs = tracers
        .iter()
        .filter_map(Tracer::full_at)
        .fold(w.secs, f64::min);
    let after = store.snapshot();
    let dev = store.device_stats().since(&dev0);
    let retrains_in_window = store.retrains() - retrains_before;
    let t = Instant::now();
    let trained = store.retrain_now();
    let retrain_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = trained {
        rep.violation(format!("retrain failed: {e}"));
    }
    let dputs = after.puts.saturating_sub(before.puts).max(1);
    let facts = WindowFacts {
        after: store.snapshot(),
        before: before.clone(),
        dev,
        max_word_writes: store.max_word_writes(),
        wear_p99: store.word_wear_cdf().quantile(0.99),
        retrain_ms,
        retrains_in_window,
        predict_counter_ns: (after.predict_total.saturating_sub(before.predict_total)).as_nanos()
            as f64
            / dputs as f64,
        backpressure: clients.iter().map(|c| c.backpressure).sum(),
        gen_ns,
        sched_lag_p99_us: 0.0,
        server: None,
        traced_over_untraced: w.rate.odd_even_ratio(traced_secs.floor() as usize),
    };
    // The replay input: each thread's traced-window ops, interleaved.
    let mut recorded = Vec::new();
    let per = 100_000;
    for i in 0..per {
        for (t, c) in clients.iter().enumerate() {
            let p = i;
            if p >= c.pos {
                continue;
            }
            let op = rings[t][p % RING];
            let key = key_of(t, op & ((1 << 30) - 1));
            recorded.push(match op >> 30 {
                GET => RecOp::Get(key),
                PUT => {
                    let mut v = vec![0u8; VALUE];
                    fill_value(ctx.seed, key, 2 + i as u32, &mut v);
                    RecOp::Put(key, v)
                }
                _ => RecOp::Delete(key),
            });
        }
    }
    let mut set = TraceSet::default();
    for tr in tracers {
        set.add(tr);
    }
    let mut rtr = Tracer::new(true, ctx.origin, usize::MAX, THREADS as u32);
    let input = ReplayInput {
        cfg: config(),
        keys: KEYS,
        warm_of: &|k| warm_value(ctx.seed, k),
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
    let _ = set.write_tsv(&ctx.out.join(format!("spans-{}.tsv", ctx.workload)));
    rep.note("spans_file", format!("spans-{}.tsv", ctx.workload));
    if ctx.plant_wrong {
        plant_wrong(&store, &clients, ctx.seed);
    }
    verify(&store, &clients, ctx.seed, &mut rep);
    rep.attempted = clients.iter().map(|c| c.ops).sum();
    rep.failed = clients.iter().map(|c| c.failed).sum();
    rep
}
