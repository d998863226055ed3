//! `served_durable` — the product path: `pnw-server` over a Unix socket
//! serving a file-backed `ShardedPnwStore` in the output directory (its
//! filesystem type is stamped on the result). Two connections drive the
//! `mixed_large` op mix over uniform keys, each connection owning half
//! the keys. The window has three phases:
//!
//! 1. closed loop — both connections back to back: `ops_per_s`;
//! 2. open loop at [`REF_RATE`] — Poisson arrivals, PUT and GET sojourn
//!    timed separately from the *scheduled* arrival: the latency metrics
//!    and the generator's lateness;
//! 3. a ladder of fixed offered rates — the highest rate whose p99 meets
//!    [`LADDER_P99_LIMIT`] with achieved ≥ 0.95 × offered.
//!
//! The run ends with `Server::abort` (no checkpoint); the timed reopen
//! replays the WAL and the oracle checks `acked ⊆ recovered ⊆ sent`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pnw_core::{PnwConfig, RetrainMode, ShardedPnwStore, Store};
use pnw_nvm_sim::{projected_lifetime_ops, MemoryTech};
use pnw_server::{Client, ClientError, Server, ServerAddr, ServerConfig};

use crate::layers::{self, RecOp, ReplayInput, WindowFacts};
use crate::trace::{TraceSet, Tracer};
use crate::util::{
    dir_bytes, fill_value, median, peak_rss_mb, quantile, reset_peak_rss, Hist, Rate, Rng,
};
use crate::{Ctx, Report};

const KEYS: u64 = 65_536;
const CAPACITY: usize = 2 * KEYS as usize;
const CLUSTERS: usize = 8;
const SHARDS: usize = 4;
const VALUE: usize = 64;
const CONNS: usize = 2;
const RING: usize = 1 << 18;
const SETUP_REPS: usize = 3;
const SPAN_CAP: usize = 1 << 20;
const DELETED: u32 = 1 << 31;
/// Offered load of the latency phase, ops/s over both connections —
/// below the knee of this store on a 2-core host with a disk-backed
/// filesystem.
pub const REF_RATE: f64 = 2_000.0;
/// Offered loads of the capacity ladder, ops/s.
pub const LADDER: [f64; 6] = [1_000.0, 2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0];
/// A ladder step passes when its sojourn p99 is at most this.
pub const LADDER_P99_LIMIT: Duration = Duration::from_millis(20);
/// Shares of the window spent closed-loop and at the reference rate; the
/// ladder gets the rest.
const CLOSED_SHARE: f64 = 0.3;
const REF_SHARE: f64 = 0.4;

const GET: u32 = 0;
const PUT: u32 = 1;

/// The store's configuration. Its model seed stays at the library default
/// for every `--seed`: the seed names the inputs, not the store.
fn config() -> PnwConfig {
    PnwConfig::new(CAPACITY, VALUE)
        .with_clusters(CLUSTERS)
        .with_shards(SHARDS)
        .with_load_factor(0.95)
        .with_retrain(RetrainMode::Background)
}

fn key_of(c: usize, rank: u32) -> u64 {
    2 * rank as u64 + c as u64
}

fn warm_value(seed: u64, key: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE];
    fill_value(seed, key, 1, &mut v);
    v
}

fn generate(seed: u64) -> (Vec<Vec<u32>>, f64) {
    let t0 = Instant::now();
    let rings = (0..CONNS)
        .map(|c| {
            let mut rng = Rng::new(seed ^ (0x5E7 + c as u64));
            (0..RING)
                .map(|_| {
                    let rank = rng.below(KEYS / CONNS as u64) as u32;
                    let kind = match rng.below(100) {
                        0..=49 => GET,
                        50..=89 => PUT,
                        _ => 2,
                    };
                    kind << 30 | rank
                })
                .collect()
        })
        .collect();
    (
        rings,
        t0.elapsed().as_nanos() as f64 / (CONNS * RING) as f64,
    )
}

struct Served {
    store: Arc<ShardedPnwStore>,
    server: Server,
}

fn setup(seed: u64, dir: &Path, sock: &Path) -> Result<(Served, f64), String> {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(sock);
    let t0 = Instant::now();
    let store = ShardedPnwStore::open(config().with_path(dir)).map_err(|e| format!("open: {e}"))?;
    let keys: Vec<u64> = (0..KEYS).collect();
    layers::warm(&store, &keys, &|k| warm_value(seed, k))?;
    store.retrain_now().map_err(|e| format!("train: {e}"))?;
    store.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let store = Arc::new(store);
    let addr =
        ServerAddr::parse(&format!("unix://{}", sock.display())).map_err(|e| e.to_string())?;
    let server = Server::start(
        Arc::clone(&store) as Arc<dyn Store>,
        &addr,
        ServerConfig::default(),
    )
    .map_err(|e| format!("server: {e}"))?;
    let secs = t0.elapsed().as_secs_f64();
    store.reset_device_stats();
    Ok((Served { store, server }, secs))
}

/// One connection's state across phases.
struct Conn {
    c: usize,
    client: Client,
    pos: usize,
    shadow: Vec<u32>,
    /// Keys whose last op failed: the value it would have written (or
    /// `DELETED`) is also acceptable on recovery.
    unsure: HashMap<u32, u32>,
    sent: u64,
    acked_puts: u64,
    failed: u64,
    violations: Vec<String>,
}

#[derive(Clone, Copy)]
enum Phase {
    Closed(Duration),
    /// Offered rate over both connections, and duration.
    Open(f64, Duration),
}

struct PhaseOut {
    rate: Rate,
    put: Hist,
    get: Hist,
    all: Vec<u64>,
    lag: Vec<u64>,
    secs: f64,
    done: u64,
}

/// Issues one op; returns whether it was a GET or PUT (for the latency
/// split) once it completes.
fn issue(conn: &mut Conn, ring: &[u32], seed: u64, tr: &mut Tracer) -> u32 {
    let op = ring[conn.pos % RING];
    conn.pos += 1;
    let rank = op & ((1 << 30) - 1);
    let key = key_of(conn.c, rank);
    let cur = conn.shadow[rank as usize];
    let idx = conn.pos as u64;
    conn.sent += 1;
    let kind = op >> 30;
    let res: Result<(), ClientError> = match kind {
        GET => {
            let t0 = Instant::now();
            let r = conn.client.get(key);
            tr.record("window.client.get", idx, t0, Instant::now(), 1);
            r.map(|got| {
                let live = cur & DELETED == 0;
                match got {
                    Some(v) if live => {
                        let mut want = [0u8; VALUE];
                        fill_value(seed, key, cur, &mut want);
                        if v != want {
                            conn.violations.push(format!(
                                "key {key}: GET returned a value never acknowledged"
                            ));
                        }
                    }
                    Some(_) => conn
                        .violations
                        .push(format!("key {key}: GET found a deleted key")),
                    None if live => conn
                        .violations
                        .push(format!("key {key}: GET missed an acknowledged key")),
                    None => {}
                }
            })
        }
        PUT => {
            let version = (cur & !DELETED) + 1;
            let mut val = [0u8; VALUE];
            fill_value(seed, key, version, &mut val);
            let t0 = Instant::now();
            let r = conn.client.put(key, &val);
            tr.record("window.client.put", idx, t0, Instant::now(), 1);
            match r {
                Ok(()) => {
                    conn.shadow[rank as usize] = version;
                    conn.acked_puts += 1;
                    Ok(())
                }
                Err(e) => {
                    conn.unsure.insert(rank, version);
                    Err(e)
                }
            }
        }
        _ => {
            let t0 = Instant::now();
            let r = conn.client.delete(key);
            tr.record("window.client.delete", idx, t0, Instant::now(), 1);
            match r {
                Ok(existed) => {
                    if existed != (cur & DELETED == 0) {
                        conn.violations.push(format!(
                            "key {key}: DELETE existed={existed} disagrees with the shadow"
                        ));
                    }
                    conn.shadow[rank as usize] = cur | DELETED;
                    Ok(())
                }
                Err(e) => {
                    conn.unsure.insert(rank, cur | DELETED);
                    Err(e)
                }
            }
        }
    };
    if res.is_err() {
        conn.failed += 1;
    }
    kind
}

fn run_phase(
    conn: &mut Conn,
    ring: &[u32],
    seed: u64,
    phase: Phase,
    start: &Barrier,
    tr: &mut Tracer,
) -> PhaseOut {
    // The schedule is drawn before the phase starts.
    let (len, gaps) = match phase {
        Phase::Closed(len) => (len, Vec::new()),
        Phase::Open(rate, len) => {
            let per_conn = rate / CONNS as f64;
            let mut rng = Rng::new(seed ^ conn.pos as u64 ^ ((conn.c as u64) << 48));
            let n = (per_conn * len.as_secs_f64() * 1.2) as usize + 16;
            (
                len,
                (0..n)
                    .map(|_| rng.exp(1.0 / per_conn))
                    .collect::<Vec<f64>>(),
            )
        }
    };
    start.wait();
    let origin = Instant::now();
    let width = Duration::from_secs(1);
    let mut out = PhaseOut {
        rate: Rate::new(origin, width),
        put: Hist::default(),
        get: Hist::default(),
        all: Vec::new(),
        lag: Vec::new(),
        secs: 0.0,
        done: 0,
    };
    let mut sched = 0.0f64;
    let mut i = 0;
    loop {
        let scheduled = if gaps.is_empty() {
            Instant::now()
        } else {
            if i >= gaps.len() {
                break;
            }
            sched += gaps[i];
            i += 1;
            origin + Duration::from_secs_f64(sched)
        };
        let elapsed = scheduled.saturating_duration_since(origin);
        if elapsed >= len {
            break;
        }
        if gaps.is_empty() {
            tr.alternate(elapsed);
        } else {
            tr.alternate(Duration::from_secs(1));
        }
        // Sleep most of the gap, then yield until the arrival is due.
        loop {
            let now = Instant::now();
            if now >= scheduled {
                break;
            }
            let left = scheduled - now;
            if left > Duration::from_micros(150) {
                std::thread::sleep(left - Duration::from_micros(100));
            } else {
                std::thread::yield_now();
            }
        }
        let sent = Instant::now();
        let kind = issue(conn, ring, seed, tr);
        let done = Instant::now();
        let sojourn = (done - scheduled).as_nanos() as u64;
        out.lag.push((sent - scheduled).as_nanos() as u64);
        out.all.push(sojourn);
        match kind {
            GET => out.get.record(sojourn),
            PUT => out.put.record(sojourn),
            _ => {}
        }
        out.rate.tick(done, 1);
        out.done += 1;
    }
    out.secs = origin.elapsed().as_secs_f64().min(len.as_secs_f64());
    out
}

fn phase(
    conns: &mut [Conn],
    rings: &[Vec<u32>],
    seed: u64,
    p: Phase,
    tracers: &mut [Tracer],
) -> PhaseOut {
    let start = Barrier::new(CONNS);
    let mut parts: Vec<PhaseOut> = std::thread::scope(|s| {
        let hs: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(c, tr)| {
                let start = &start;
                let ring = &rings[c.c];
                s.spawn(move || run_phase(c, ring, seed, p, start, tr))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let mut out = parts.remove(0);
    for q in parts {
        out.rate.absorb(&q.rate);
        out.put.absorb(&q.put);
        out.get.absorb(&q.get);
        out.all.extend(q.all);
        out.lag.extend(q.lag);
        out.secs = out.secs.max(q.secs);
        out.done += q.done;
    }
    out
}

/// After the crash: every acknowledged write is recovered, and every
/// recovered value is one that was sent.
fn verify(store: &ShardedPnwStore, conns: &[Conn], seed: u64, rep: &mut Report) {
    let mut want = [0u8; VALUE];
    let mut live = 0usize;
    for c in conns {
        for v in &c.violations {
            rep.violation(format!("connection {}: {v}", c.c));
        }
        for (rank, &cur) in c.shadow.iter().enumerate() {
            let key = key_of(c.c, rank as u32);
            let ok_with = |ver: u32, got: &Option<Vec<u8>>, want: &mut [u8; VALUE]| -> bool {
                match got {
                    None => ver & DELETED != 0,
                    Some(v) if ver & DELETED == 0 => {
                        fill_value(seed, key, ver, want);
                        v.as_slice() == want.as_slice()
                    }
                    Some(_) => false,
                }
            };
            let got = match store.get(key) {
                Ok(g) => g,
                Err(e) => {
                    rep.violation(format!("key {key}: get after reopen failed: {e}"));
                    continue;
                }
            };
            live += usize::from(got.is_some());
            let alt = c.unsure.get(&(rank as u32)).copied();
            if !ok_with(cur, &got, &mut want) && !alt.is_some_and(|a| ok_with(a, &got, &mut want)) {
                rep.violation(format!(
                    "key {key}: recovered state is neither the acknowledged one nor a sent one"
                ));
            }
        }
    }
    if store.len() != live {
        rep.violation(format!(
            "recovered {} keys, but {live} are reachable",
            store.len()
        ));
    }
}

fn connect(server: &Server, c: usize, shadow_len: usize) -> Result<Conn, String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_recv_timeout(Some(Duration::from_secs(20)))
        .map_err(|e| e.to_string())?;
    Ok(Conn {
        c,
        client,
        pos: 0,
        shadow: vec![1; shadow_len],
        unsure: HashMap::new(),
        sent: 0,
        acked_puts: 0,
        failed: 0,
        violations: Vec::new(),
    })
}

fn pct_us(xs: &mut [u64], q: f64) -> f64 {
    quantile(xs, q) / 1e3
}

pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let dir: PathBuf = ctx.out.join("served-store");
    let sock: PathBuf = ctx.out.join("served.sock");
    let (rings, gen_ns) = generate(ctx.seed);
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut served: Option<Served> = None;
    for _ in 0..reps {
        if let Some(s) = served.take() {
            s.server.abort();
            drop(s.store);
        }
        match setup(ctx.seed, &dir, &sock) {
            Ok((s, secs)) => {
                setups.push(secs);
                served = Some(s);
            }
            Err(e) => {
                rep.violation(format!("set-up failed: {e}"));
                return rep;
            }
        }
    }
    let Served { store, server } = served.expect("at least one set-up");
    reset_peak_rss();
    let shadow_len = (KEYS / CONNS as u64) as usize;
    let mut conns = Vec::new();
    for c in 0..CONNS {
        match connect(&server, c, shadow_len) {
            Ok(conn) => conns.push(conn),
            Err(e) => {
                rep.violation(e);
                server.abort();
                return rep;
            }
        }
    }
    let off = || -> Vec<Tracer> {
        (0..CONNS)
            .map(|c| Tracer::new(false, ctx.origin, 0, c as u32))
            .collect()
    };
    let s = ctx.window().as_secs_f64();
    let mut set = TraceSet::default();
    let mut facts = None;
    let mut recorded = Vec::new();

    if !ctx.trace {
        let closed = phase(
            &mut conns,
            &rings,
            ctx.seed,
            Phase::Closed(Duration::from_secs_f64(s * CLOSED_SHARE)),
            &mut off(),
        );
        let mut refp = phase(
            &mut conns,
            &rings,
            ctx.seed,
            Phase::Open(REF_RATE, Duration::from_secs_f64(s * REF_SHARE)),
            &mut off(),
        );
        let step =
            Duration::from_secs_f64(s * (1.0 - CLOSED_SHARE - REF_SHARE) / LADDER.len() as f64);
        let mut served_max = 0.0f64;
        let mut ladder = Vec::new();
        for &rate in &LADDER {
            let mut p = phase(
                &mut conns,
                &rings,
                ctx.seed,
                Phase::Open(rate, step),
                &mut off(),
            );
            let achieved = p.done as f64 / step.as_secs_f64();
            let p99 = pct_us(&mut p.all, 0.99);
            let pass = p99 * 1e3 <= LADDER_P99_LIMIT.as_nanos() as f64 && achieved >= 0.95 * rate;
            ladder.push(format!(
                "{rate:.0}/s: achieved {achieved:.0}, p99 {p99:.0} us, n={}{}",
                p.done,
                if pass { "" } else { " (fail)" }
            ));
            if pass {
                served_max = served_max.max(achieved);
            } else {
                break;
            }
        }
        let ops = closed.rate.total() as f64 / closed.secs;
        let (p50, p99, g50, g99) = (
            refp.put.pct(0.50),
            refp.put.pct(0.99),
            refp.get.pct(0.50),
            refp.get.pct(0.99),
        );
        let puts: u64 = conns.iter().map(|c| c.acked_puts).sum();
        let dev = store.device_stats();
        let n = puts.max(1) as f64;
        rep.metric("setup_s", median(&setups), "s");
        rep.metric("ops_per_s", ops, "1/s");
        rep.metric("put_p50_us", p50.value_ns / 1e3, "us");
        rep.metric("put_p99_us", p99.value_ns / 1e3, "us");
        rep.metric("get_p50_us", g50.value_ns / 1e3, "us");
        rep.metric("get_p99_us", g99.value_ns / 1e3, "us");
        rep.metric(
            "flips_per_put",
            dev.totals.total_bit_flips() as f64 / n,
            "count",
        );
        rep.metric(
            "lines_per_put",
            dev.totals.lines_written as f64 / n,
            "count",
        );
        rep.metric(
            "projected_lifetime_ops",
            projected_lifetime_ops(MemoryTech::Pcm, store.max_word_writes(), KEYS + puts),
            "ops",
        );
        rep.note(
            "setup_s",
            format!(
                "median of {} set-ups (open + warm + train + checkpoint + server start)",
                setups.len()
            ),
        );
        rep.note(
            "ops_per_s",
            format!(
                "closed loop, {} ops over {:.1} s",
                closed.rate.total(),
                closed.secs
            ),
        );
        rep.note(
            "latency",
            format!("open loop at {REF_RATE} ops/s, sojourn from scheduled arrival"),
        );
        rep.sample("put_p50_us", &p50);
        rep.sample("put_p99_us", &p99);
        rep.sample("get_p50_us", &g50);
        rep.sample("get_p99_us", &g99);
        rep.note("ladder", ladder.join("; "));
        rep.info("served_max_ops_per_s", served_max, "1/s");
        rep.info(
            "ladder_p99_limit_us",
            LADDER_P99_LIMIT.as_micros() as f64,
            "us",
        );
        rep.info("sched_lag_p99_us", pct_us(&mut refp.lag, 0.99), "us");
    } else {
        // Closed loop with tracing alternating by second, then the open
        // loop at the reference rate, traced throughout.
        let before = store.snapshot();
        let dev0 = store.device_stats();
        let retrains0 = store.retrains();
        let stats0 = server.stats();
        let starts: Vec<usize> = conns.iter().map(|c| c.pos).collect();
        let mut tracers: Vec<Tracer> = (0..CONNS)
            .map(|c| Tracer::new(true, ctx.origin, SPAN_CAP, c as u32))
            .collect();
        let half = Duration::from_secs_f64(s / 2.0);
        let w1 = phase(
            &mut conns,
            &rings,
            ctx.seed,
            Phase::Closed(half),
            &mut tracers,
        );
        let closed_traced_secs = tracers
            .iter()
            .filter_map(Tracer::full_at)
            .fold(w1.secs, f64::min);
        let mut refp = phase(
            &mut conns,
            &rings,
            ctx.seed,
            Phase::Open(REF_RATE, half),
            &mut tracers,
        );
        let after = store.snapshot();
        let dev = store.device_stats().since(&dev0);
        let retrains_in_window = store.retrains() - retrains0;
        let stats1 = server.stats();
        let t = Instant::now();
        let trained = store.retrain_now();
        let retrain_ms = t.elapsed().as_secs_f64() * 1e3;
        if let Err(e) = trained {
            rep.violation(format!("retrain failed: {e}"));
        }
        let dputs = after.puts.saturating_sub(before.puts).max(1);
        let reqs =
            (stats1.requests_ok + stats1.requests_err) - (stats0.requests_ok + stats0.requests_err);
        let rejects = (stats1.overload_rejects + stats1.deadline_rejects + stats1.draining_rejects)
            - (stats0.overload_rejects + stats0.deadline_rejects + stats0.draining_rejects);
        facts = Some(WindowFacts {
            after: store.snapshot(),
            before: before.clone(),
            dev,
            max_word_writes: store.max_word_writes(),
            wear_p99: store.word_wear_cdf().quantile(0.99),
            retrain_ms,
            retrains_in_window,
            predict_counter_ns: after
                .predict_total
                .saturating_sub(before.predict_total)
                .as_nanos() as f64
                / dputs as f64,
            backpressure: stats1.backpressure_errors - stats0.backpressure_errors,
            gen_ns,
            sched_lag_p99_us: pct_us(&mut refp.lag, 0.99),
            server: Some((reqs, rejects, stats1.requests_err - stats0.requests_err)),
            traced_over_untraced: w1.rate.odd_even_ratio(closed_traced_secs.floor() as usize),
        });
        for i in 0..100_000usize {
            for (c, conn) in conns.iter().enumerate() {
                let p = starts[c] + i;
                if p >= conn.pos {
                    continue;
                }
                let op = rings[c][p % RING];
                let key = key_of(c, op & ((1 << 30) - 1));
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
        for tr in tracers {
            set.add(tr);
        }
    }

    if ctx.plant_wrong {
        let c = &conns[0];
        let rank = c.shadow.iter().position(|&v| v & DELETED == 0).unwrap_or(0);
        let key = key_of(0, rank as u32);
        let mut v = vec![0u8; VALUE];
        fill_value(ctx.seed, key, c.shadow[rank], &mut v);
        v[0] ^= 1;
        let _ = store.put(key, &v);
    }

    // Crash: cut the server without a checkpoint, drop the store, reopen.
    let sent: u64 = conns.iter().map(|c| c.sent).sum();
    let failed: u64 = conns.iter().map(|c| c.failed).sum();
    for c in &mut conns {
        c.client.kill();
    }
    server.abort();
    let live_before = store.len();
    let Ok(store) = Arc::try_unwrap(store) else {
        rep.violation("store still shared after server abort".into());
        return rep;
    };
    drop(store);
    let disk = dir_bytes(&dir);
    let t = Instant::now();
    let reopened = match ShardedPnwStore::open(config().with_path(&dir)) {
        Ok(s) => s,
        Err(e) => {
            rep.violation(format!("reopen failed: {e}"));
            return rep;
        }
    };
    let reopen_s = t.elapsed().as_secs_f64();
    verify(&reopened, &conns, ctx.seed, &mut rep);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sock);

    if !ctx.trace {
        rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        rep.info("reopen_s", reopen_s, "s");
        rep.info(
            "disk_bytes_per_user_byte",
            disk as f64 / (live_before.max(1) * VALUE) as f64,
            "ratio",
        );
    } else if let Some(facts) = facts {
        let mut rtr = Tracer::new(true, ctx.origin, usize::MAX, CONNS as u32);
        let route_store = ShardedPnwStore::new(config());
        let input = ReplayInput {
            cfg: config(),
            keys: KEYS,
            warm_of: &|k| warm_value(ctx.seed, k),
            route: &|k| route_store.shard_of_key(k),
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
    }
    rep.info("failed_frac", failed as f64 / sent.max(1) as f64, "ratio");
    rep.attempted = sent;
    rep.failed = failed;
    rep
}
