//! The traced run's second half: replay the ops recorded in the traced
//! window through standalone instances of every layer, so each module
//! gets its own number on every workload, then turn the spans into the
//! per-layer metrics.
//!
//! Every instance is built through the layer's public API only:
//! `ModelSnapshot` (via `ModelManager`), `DynamicAddressPool`,
//! `NvmDevice`, `crc32c`, `AtomicHashIndex`, `ShardEngine`,
//! `ShardedPnwStore` (volatile and file-backed), and
//! `pnw_server::{protocol, Client, Server}`.

use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnw_core::{
    Batch, DynamicAddressPool, ModelManager, PnwConfig, PredictScratch, RetrainMode, ShardEngine,
    ShardedPnwStore, Store, StoreSnapshot,
};
use pnw_index::{AtomicHashIndex, KeyIndex};
use pnw_nvm_sim::{crc32c, DeviceStats, NvmConfig, NvmDevice, WriteMode};
use pnw_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, RequestFrame, ResponseFrame,
};
use pnw_server::{Client, Request, Response, Server, ServerAddr, ServerConfig};

use crate::trace::{SpanStats, TraceSet, Tracer};
use crate::Report;

/// One op recorded in the traced window.
#[derive(Debug, Clone)]
pub enum RecOp {
    Put(u64, Vec<u8>),
    Get(u64),
    Delete(u64),
}

impl RecOp {
    pub fn key(&self) -> u64 {
        match self {
            RecOp::Put(k, _) | RecOp::Get(k) | RecOp::Delete(k) => *k,
        }
    }
}

/// Bucket header bytes in front of every value (the engine's sealed
/// bucket layout: key, flags, expiry, CRC).
const HDR: usize = 16;
/// Calls per span for the sub-microsecond layers.
const BLOCK: usize = 256;
/// Caps on how much of the recording each replay uses.
const MAX_STATELESS: usize = 100_000;
const MAX_PER_OP: usize = 20_000;
const MAX_DURABLE: usize = 1_000;
const MAX_CLIENT: usize = 1_000;
const FSYNC_PROBES: usize = 200;

/// What the replay needs from the workload.
pub struct ReplayInput<'a> {
    /// The live store's configuration (volatile form).
    pub cfg: PnwConfig,
    /// Keys the workload warmed, `0..keys`.
    pub keys: u64,
    /// The value a key held after set-up.
    pub warm_of: &'a dyn Fn(u64) -> Vec<u8>,
    /// The live store's shard router.
    pub route: &'a dyn Fn(u64) -> usize,
    pub ops: &'a [RecOp],
    pub out: &'a Path,
}

fn blocks<T>(tr: &mut Tracer, name: &'static str, items: &[T], mut f: impl FnMut(usize, &T)) {
    for (b, chunk) in items.chunks(BLOCK).enumerate() {
        let base = b * BLOCK;
        let t0 = Instant::now();
        for (j, it) in chunk.iter().enumerate() {
            f(base + j, it);
        }
        tr.record(name, base as u64, t0, Instant::now(), chunk.len() as u32);
    }
}

fn shard_cfg(r: &ReplayInput) -> PnwConfig {
    let n = r.cfg.shards.max(1);
    let mut c = r.cfg.clone();
    c.capacity = r.cfg.capacity.div_ceil(n);
    c.shards = 1;
    c.retrain = RetrainMode::Manual;
    c
}

/// Counts the replays observe besides their spans.
#[derive(Debug, Default)]
pub struct ReplayFacts {
    wal_bytes: u64,
    wal_puts: u64,
    disk_bytes: u64,
    user_bytes: u64,
    bytes_per_op: f64,
    /// `(requests, rejects, errors)` of the replay server.
    server: (u64, u64, u64),
}

/// Runs every standalone replay, recording spans into `tr`.
pub fn replay(r: &ReplayInput, tr: &mut Tracer) -> Result<ReplayFacts, String> {
    let mut facts = ReplayFacts::default();
    // A window without GETs (amazon_update reads only in its oracle pass)
    // replays a read of each written key right after the write.
    let with_reads: Vec<RecOp>;
    let ops: &[RecOp] = if r.ops.iter().any(|o| matches!(o, RecOp::Get(_))) {
        r.ops
    } else {
        with_reads = r
            .ops
            .iter()
            .flat_map(|o| [o.clone(), RecOp::Get(o.key())])
            .collect();
        &with_reads
    };
    let vs = r.cfg.value_size;
    let bsz = HDR + vs;
    let scfg = shard_cfg(r);
    let cap = scfg.capacity;
    let shard0_keys: Vec<u64> = (0..r.keys).filter(|&k| (r.route)(k) == 0).collect();
    let shard0_ops: Vec<&RecOp> = ops
        .iter()
        .filter(|o| (r.route)(o.key()) == 0)
        .take(MAX_STATELESS)
        .collect();
    let puts: Vec<(u64, &Vec<u8>)> = r
        .ops
        .iter()
        .filter_map(|o| match o {
            RecOp::Put(k, v) => Some((*k, v)),
            _ => None,
        })
        .take(MAX_STATELESS)
        .collect();
    if puts.is_empty() {
        return Err("no PUTs recorded in the traced window".into());
    }

    // Shard engine first: its trained snapshot is the model every other
    // replay predicts with.
    let mut engine = ShardEngine::new(scfg.clone());
    for &k in &shard0_keys {
        engine
            .put_unreported(k, &(r.warm_of)(k))
            .map_err(|e| format!("engine warm: {e}"))?;
    }
    let mut trainer = ModelManager::new(&scfg);
    let samples = engine.training_values(scfg.train_sample_cap);
    tr.time("model.train", 0, 1, || trainer.train(&samples));
    let snap = trainer.snapshot();
    engine.install_model(Arc::clone(&snap));
    let k = snap.k().max(1);

    // Model: the packed/PCA predict per PUT value.
    let mut scratch = PredictScratch::new();
    let mut clusters = vec![0usize; puts.len()];
    blocks(tr, "model.predict", &puts, |i, (_, v)| {
        clusters[i] = snap.predict_into(v, &mut scratch);
    });

    // CRC over each sealed bucket image.
    let images: Vec<Vec<u8>> = puts
        .iter()
        .map(|(key, v)| {
            let mut img = vec![0u8; bsz];
            img[..8].copy_from_slice(&key.to_le_bytes());
            img[8] = 1;
            img[HDR..].copy_from_slice(v);
            img
        })
        .collect();
    let mut sink = 0u32;
    blocks(tr, "crc.crc32c", &images, |_, img| {
        sink ^= crc32c(img);
    });
    std::hint::black_box(sink);

    // Pool: DeletePut churn — pop a bucket under the predicted cluster,
    // return the key's old bucket under its label.
    let live = shard0_keys.len().min(cap.saturating_sub(1));
    let mut pool = DynamicAddressPool::new(k, cap);
    pool.rebuild(k, (live..cap).map(|b| (b as u32, b % k)));
    let mut occupied: VecDeque<(u32, usize)> = (0..live).map(|b| (b as u32, b % k)).collect();
    let all: Vec<usize> = (0..k).collect();
    let mut placed = vec![(0u32, 0u32); puts.len()];
    let mut exhausted = false;
    blocks(tr, "pool.pop_push", &clusters, |i, &c| {
        match pool.pop(c, || &all[..]) {
            Some((nb, _)) => {
                let (ob, oc) = occupied.pop_front().unwrap_or((nb, c));
                pool.push(oc, ob);
                occupied.push_back((nb, c));
                placed[i] = (nb, ob);
            }
            None => exhausted = true,
        }
    });
    if exhausted {
        return Err("standalone pool ran dry".into());
    }

    // Device: diff-write each sealed bucket where the pool put it, and the
    // 8-byte flag word that invalidates the freed bucket.
    let mut dev = NvmDevice::new(NvmConfig::default().with_size(cap * bsz));
    for (b, &key) in shard0_keys.iter().take(live).enumerate() {
        let mut img = vec![0u8; bsz];
        img[HDR..].copy_from_slice(&(r.warm_of)(key));
        dev.write(b * bsz, &img, WriteMode::Diff)
            .map_err(|e| format!("device warm: {e}"))?;
    }
    let mut failed = false;
    blocks(tr, "device.write", &images, |i, img| {
        failed |= dev
            .write(placed[i].0 as usize * bsz, img, WriteMode::Diff)
            .is_err();
    });
    let flag = [0u8; 8];
    blocks(tr, "device.flag_write", &placed, |_, &(_, ob)| {
        failed |= dev
            .write(ob as usize * bsz, &flag, WriteMode::Diff)
            .is_err();
    });
    if failed {
        return Err("standalone device write failed".into());
    }

    // Index: the lock-free table at one shard's size, holding that
    // shard's keys.
    let mut scratch_dev = NvmDevice::new(NvmConfig::default().with_size(64));
    let mut idx = AtomicHashIndex::with_capacity(cap);
    for (b, &key) in shard0_keys.iter().enumerate() {
        idx.insert(&mut scratch_dev, key, (b * bsz) as u64)
            .map_err(|e| format!("index: {e:?}"))?;
    }
    let keys0: Vec<u64> = shard0_ops.iter().map(|o| o.key()).collect();
    let mut hits = 0u64;
    blocks(tr, "index.lookup", &keys0, |_, &key| {
        hits += u64::from(matches!(idx.lookup(&scratch_dev, key), Ok(Some(_))));
    });
    std::hint::black_box(hits);
    let put_keys0: Vec<u64> = shard0_ops
        .iter()
        .filter_map(|o| {
            if let RecOp::Put(k, _) = o {
                Some(*k)
            } else {
                None
            }
        })
        .collect();
    blocks(tr, "index.insert_remove", &put_keys0, |i, &key| {
        let _ = idx.remove(&mut scratch_dev, key);
        failed |= idx.insert(&mut scratch_dev, key, (i * bsz) as u64).is_err();
    });
    if failed {
        return Err("standalone index insert failed".into());
    }

    // Shard engine: the recorded ops of shard 0, one span per call.
    let mut buf = vec![0u8; vs];
    for (i, op) in shard0_ops.iter().enumerate() {
        let ok = match op {
            RecOp::Put(key, v) => tr
                .time("shard.put", i as u64, 1, || engine.put_unreported(*key, v))
                .is_ok(),
            RecOp::Get(key) => tr
                .time("shard.get", i as u64, 1, || engine.get_into(*key, &mut buf))
                .is_ok(),
            RecOp::Delete(key) => tr
                .time("shard.delete", i as u64, 1, || engine.delete(*key))
                .is_ok(),
        };
        if !ok {
            return Err(format!("standalone engine op {i} failed"));
        }
    }
    drop(engine);
    drop(dev);

    // Sharded store, volatile: per-op calls and batches of 64 over the
    // first recorded ops, on a store warmed with the keys they touch.
    let per_op = &ops[..ops.len().min(MAX_PER_OP)];
    let mut touched: Vec<u64> = per_op.iter().map(RecOp::key).collect();
    touched.sort_unstable();
    touched.dedup();
    let small_cap = (touched.len() * 2).max(4096);
    let mut vcfg = r.cfg.clone();
    vcfg.capacity = small_cap;
    vcfg.retrain = RetrainMode::Manual;
    vcfg.backing = pnw_core::BackingMode::Volatile;
    let vol = ShardedPnwStore::new(vcfg.clone());
    warm(&vol, &touched, r.warm_of)?;
    vol.retrain_now().map_err(|e| format!("retrain: {e}"))?;
    for (i, op) in per_op.iter().enumerate() {
        let ok = match op {
            RecOp::Put(key, v) => tr
                .time("sharded.put", i as u64, 1, || vol.put(*key, v))
                .is_ok(),
            RecOp::Get(key) => tr
                .time("sharded.get_into", i as u64, 1, || {
                    vol.get_into(*key, &mut buf)
                })
                .is_ok(),
            RecOp::Delete(key) => tr
                .time("sharded.delete", i as u64, 1, || vol.delete(*key))
                .is_ok(),
        };
        if !ok {
            return Err(format!("standalone sharded op {i} failed"));
        }
    }
    let mut batch = Batch::with_capacity(64);
    let batch_puts: Vec<&RecOp> = per_op
        .iter()
        .filter(|o| matches!(o, RecOp::Put(..)))
        .collect();
    for (i, chunk) in batch_puts.chunks(64).enumerate() {
        batch.clear();
        for op in chunk {
            if let RecOp::Put(key, v) = op {
                batch.put(*key, v);
            }
        }
        let rep = tr.time("sharded.apply", i as u64, 1, || vol.apply(&batch));
        if !rep.all_ok() {
            return Err(format!("standalone apply {i} failed: {:?}", rep.failures));
        }
    }

    // Durable sharded store on the output directory's filesystem.
    let dpath = r.out.join("replay-durable");
    let _ = std::fs::remove_dir_all(&dpath);
    let dcfg = vcfg.clone().with_path(&dpath);
    let durable = ShardedPnwStore::open(dcfg.clone()).map_err(|e| format!("open durable: {e}"))?;
    warm(&durable, &touched, r.warm_of)?;
    durable.retrain_now().map_err(|e| format!("retrain: {e}"))?;
    durable
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    let dputs: Vec<(u64, &Vec<u8>)> = per_op
        .iter()
        .filter_map(|o| {
            if let RecOp::Put(k, v) = o {
                Some((*k, v))
            } else {
                None
            }
        })
        .take(MAX_DURABLE)
        .collect();
    let wal0 = crate::util::prefixed_bytes(&dpath, "wal");
    for (i, (key, v)) in dputs.iter().enumerate() {
        tr.time("durable.put", i as u64, 1, || durable.put(*key, v))
            .map_err(|e| format!("durable put: {e}"))?;
        tr.time("volatile.put", i as u64, 1, || vol.put(*key, v))
            .map_err(|e| format!("volatile put: {e}"))?;
    }
    let wal1 = crate::util::prefixed_bytes(&dpath, "wal");
    facts.wal_bytes = wal1.saturating_sub(wal0);
    facts.wal_puts = dputs.len() as u64;
    drop(vol);

    // Server and client over a Unix socket, against the durable store.
    let durable = Arc::new(durable);
    let sock = r.out.join("replay.sock");
    let _ = std::fs::remove_file(&sock);
    let addr =
        ServerAddr::parse(&format!("unix://{}", sock.display())).map_err(|e| e.to_string())?;
    let server = Server::start(
        Arc::clone(&durable) as Arc<dyn Store>,
        &addr,
        ServerConfig::default(),
    )
    .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    let mut call_err = None;
    for (i, op) in per_op.iter().take(MAX_CLIENT).enumerate() {
        let res = match op {
            RecOp::Put(key, v) => tr
                .time("client.put", i as u64, 1, || client.put(*key, v))
                .map(|_| ()),
            RecOp::Get(key) => tr
                .time("client.get", i as u64, 1, || client.get(*key))
                .map(|_| ()),
            RecOp::Delete(key) => tr
                .time("client.delete", i as u64, 1, || client.delete(*key))
                .map(|_| ()),
        };
        if let Err(e) = res {
            call_err = Some(format!("client op {i}: {e}"));
            break;
        }
    }
    let stats = server.stats();
    facts.server = (
        stats.requests_ok + stats.requests_err,
        stats.overload_rejects + stats.deadline_rejects + stats.draining_rejects,
        stats.requests_err,
    );
    drop(client);
    server.abort();
    if let Some(e) = call_err {
        return Err(e);
    }
    let durable = Arc::try_unwrap(durable).map_err(|_| "durable store still shared".to_string())?;
    // Unclean stop: no checkpoint, so the reopen replays the WAL.
    drop(durable);
    let reopened = tr
        .time("durable.reopen", 0, 1, || {
            ShardedPnwStore::open(dcfg.clone())
        })
        .map_err(|e| format!("reopen: {e}"))?;
    tr.time("durable.checkpoint", 0, 1, || reopened.checkpoint())
        .map_err(|e| format!("checkpoint: {e}"))?;
    facts.user_bytes = (reopened.len() * vs).max(1) as u64;
    facts.disk_bytes = crate::util::dir_bytes(&dpath);
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dpath);
    let _ = std::fs::remove_file(&sock);

    // Protocol codec over the recorded ops.
    let frames: Vec<RequestFrame> = r
        .ops
        .iter()
        .take(MAX_STATELESS)
        .enumerate()
        .map(|(i, op)| RequestFrame {
            id: i as u64,
            deadline_us: 0,
            req: match op {
                RecOp::Put(k, v) => Request::Put {
                    key: *k,
                    value: v.clone(),
                },
                RecOp::Get(k) => Request::Get { key: *k },
                RecOp::Delete(k) => Request::Delete { key: *k },
            },
        })
        .collect();
    let mut enc = Vec::new();
    let mut reqs: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    blocks(tr, "protocol.encode_req", &frames, |_, f| {
        encode_request(f, &mut enc);
        reqs.push(enc.clone());
    });
    blocks(tr, "protocol.decode_req", &reqs, |_, p| {
        failed |= decode_request(p).is_err();
    });
    let resps: Vec<ResponseFrame> = frames
        .iter()
        .map(|f| ResponseFrame {
            id: f.id,
            resp: match &f.req {
                Request::Put { .. } => Response::Put,
                Request::Get { key } => Response::Get(Some((r.warm_of)(*key))),
                _ => Response::Delete(true),
            },
        })
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(resps.len());
    blocks(tr, "protocol.encode_resp", &resps, |_, f| {
        encode_response(f, &mut enc);
        encoded.push(enc.clone());
    });
    blocks(tr, "protocol.decode_resp", &encoded, |_, p| {
        failed |= decode_response(p).is_err();
    });
    if failed {
        return Err("protocol round trip failed".into());
    }
    // Frame header: length + CRC, 4 bytes each, on both directions.
    let wire: usize = reqs.iter().chain(encoded.iter()).map(|p| p.len() + 8).sum();
    facts.bytes_per_op = wire as f64 / frames.len().max(1) as f64;

    // The medium under the durable store: append + fdatasync.
    let probe = r.out.join("fsync.probe");
    let mut f = std::fs::File::create(&probe).map_err(|e| format!("probe: {e}"))?;
    let rec = [0x5Au8; 128];
    for i in 0..FSYNC_PROBES {
        f.write_all(&rec).map_err(|e| e.to_string())?;
        tr.time("host.fdatasync", i as u64, 1, || f.sync_data())
            .map_err(|e| e.to_string())?;
    }
    drop(f);
    let _ = std::fs::remove_file(&probe);
    Ok(facts)
}

/// Warms `store` with the set-up values of `keys`, in batches.
pub fn warm(
    store: &ShardedPnwStore,
    keys: &[u64],
    warm_of: &dyn Fn(u64) -> Vec<u8>,
) -> Result<(), String> {
    let mut batch = Batch::with_capacity(256);
    for chunk in keys.chunks(256) {
        batch.clear();
        for &k in chunk {
            batch.put(k, &warm_of(k));
        }
        let rep = store.apply(&batch);
        if !rep.all_ok() {
            return Err(format!("warm-up failed: {:?}", rep.failures.first()));
        }
    }
    Ok(())
}

/// Facts from the workload's own window that feed per-layer metrics.
pub struct WindowFacts {
    pub before: StoreSnapshot,
    pub after: StoreSnapshot,
    pub dev: DeviceStats,
    pub max_word_writes: u32,
    pub wear_p99: u32,
    pub retrain_ms: f64,
    pub retrains_in_window: u64,
    /// In-store predict counter in ns (batch samples when the workload
    /// writes through `apply`, else the snapshot's running total).
    pub predict_counter_ns: f64,
    pub backpressure: u64,
    pub gen_ns: f64,
    pub sched_lag_p99_us: f64,
    /// `(requests, rejects, errors)` of the live server, when served.
    pub server: Option<(u64, u64, u64)>,
    /// Traced over untraced ops/s within the same window.
    pub traced_over_untraced: f64,
}

fn pick<'a>(
    m: &'a HashMap<&'static str, SpanStats>,
    window: &str,
    replay: &str,
) -> Option<&'a SpanStats> {
    m.get(window)
        .filter(|s| s.calls > 0)
        .or_else(|| m.get(replay))
}

/// Turns spans plus window facts into the per-layer metrics.
pub fn metrics(set: &TraceSet, w: &WindowFacts, f: &ReplayFacts, rep: &mut Report) {
    let m = set.by_name();
    let empty = SpanStats::default();
    let get = |n: &str| m.get(n).unwrap_or(&empty);
    let us = |ns: f64| ns / 1e3;
    let puts = w.after.puts.saturating_sub(w.before.puts).max(1) as f64;

    rep.metric("model.predict_ns", get("model.predict").mean_ns(), "ns");
    rep.metric(
        "model.fallback_ratio",
        w.after.fallbacks.saturating_sub(w.before.fallbacks) as f64 / puts,
        "ratio",
    );
    rep.metric("model.predict_counter_ns", w.predict_counter_ns, "ns");
    rep.metric("train.retrain_ms", w.retrain_ms, "ms");
    rep.metric(
        "train.samples",
        w.after.train.samples_post_cap as f64,
        "count",
    );
    rep.metric(
        "train.retrains_in_window",
        w.retrains_in_window as f64,
        "count",
    );
    rep.metric("pool.pop_push_ns", get("pool.pop_push").mean_ns(), "ns");
    rep.metric("pool.availability", w.after.availability(), "ratio");
    rep.metric("device.write_ns", get("device.write").mean_ns(), "ns");
    rep.metric(
        "device.flag_write_ns",
        get("device.flag_write").mean_ns(),
        "ns",
    );
    let t = &w.dev.totals;
    rep.metric(
        "device.bit_flips_per_put",
        t.bit_flips as f64 / puts,
        "count",
    );
    rep.metric(
        "device.aux_bit_flips_per_put",
        t.aux_bit_flips as f64 / puts,
        "count",
    );
    rep.metric(
        "device.words_per_put",
        t.words_written as f64 / puts,
        "count",
    );
    rep.metric("device.max_word_writes", w.max_word_writes as f64, "count");
    rep.metric("device.wear_p99_word_writes", w.wear_p99 as f64, "count");
    rep.metric("crc.crc32c_ns", get("crc.crc32c").mean_ns(), "ns");
    rep.metric("index.lookup_ns", get("index.lookup").mean_ns(), "ns");
    rep.metric(
        "index.insert_remove_ns",
        get("index.insert_remove").mean_ns(),
        "ns",
    );

    let shard_put = get("shard.put").mean_ns();
    rep.metric("shard.put_ns", shard_put, "ns");
    rep.metric("shard.get_ns", get("shard.get").mean_ns(), "ns");
    rep.metric("shard.delete_ns", get("shard.delete").mean_ns(), "ns");
    let parts = get("model.predict").mean_ns()
        + get("pool.pop_push").mean_ns()
        + get("device.write").mean_ns()
        + get("device.flag_write").mean_ns()
        + get("crc.crc32c").mean_ns()
        + get("index.insert_remove").mean_ns();
    rep.metric("shard.unattributed_ns", shard_put - parts, "ns");

    let apply = pick(&m, "window.sharded.apply", "sharded.apply").unwrap_or(&empty);
    rep.metric("sharded.apply_p50_us", us(apply.pct_ns(0.50)), "us");
    rep.metric("sharded.apply_p99_us", us(apply.pct_ns(0.99)), "us");
    let sput = pick(&m, "window.sharded.put", "sharded.put").unwrap_or(&empty);
    rep.metric("sharded.put_p50_us", us(sput.pct_ns(0.50)), "us");
    rep.metric("sharded.put_p99_us", us(sput.pct_ns(0.99)), "us");
    let sget = pick(&m, "window.sharded.get_into", "sharded.get_into").unwrap_or(&empty);
    rep.metric("sharded.get_p50_us", us(sget.pct_ns(0.50)), "us");
    rep.metric("sharded.get_p99_us", us(sget.pct_ns(0.99)), "us");
    let sdel = pick(&m, "window.sharded.delete", "sharded.delete").unwrap_or(&empty);
    rep.metric("sharded.delete_p50_us", us(sdel.pct_ns(0.50)), "us");
    // Mean sharded PUT: per op of a batch when the window wrote through
    // `apply`, else per call.
    let mean_put = match m.get("window.sharded.apply").filter(|s| s.calls > 0) {
        Some(a) => a.mean_ns() / crate::amazon::BATCH as f64,
        None => sput.mean_ns(),
    };
    rep.metric("sharded.overhead_ns", mean_put - shard_put, "ns");
    rep.metric("sharded.backpressure", w.backpressure as f64, "count");

    let dput = get("durable.put");
    let vput = get("volatile.put");
    rep.metric(
        "durable.put_extra_us",
        us(dput.pct_ns(0.50) - vput.pct_ns(0.50)),
        "us",
    );
    rep.metric(
        "durable.wal_bytes_per_put",
        f.wal_bytes as f64 / f.wal_puts.max(1) as f64,
        "B",
    );
    rep.metric(
        "durable.checkpoint_ms",
        get("durable.checkpoint").mean_ns() / 1e6,
        "ms",
    );
    rep.metric(
        "durable.reopen_s",
        get("durable.reopen").mean_ns() / 1e9,
        "s",
    );
    rep.metric(
        "durable.disk_bytes_per_user_byte",
        f.disk_bytes as f64 / f.user_bytes.max(1) as f64,
        "ratio",
    );
    let fs = get("host.fdatasync");
    rep.metric("host.fdatasync_p50_us", us(fs.pct_ns(0.50)), "us");
    rep.metric("host.fdatasync_p99_us", us(fs.pct_ns(0.99)), "us");

    rep.metric(
        "protocol.encode_req_ns",
        get("protocol.encode_req").mean_ns(),
        "ns",
    );
    rep.metric(
        "protocol.decode_req_ns",
        get("protocol.decode_req").mean_ns(),
        "ns",
    );
    rep.metric(
        "protocol.encode_resp_ns",
        get("protocol.encode_resp").mean_ns(),
        "ns",
    );
    rep.metric(
        "protocol.decode_resp_ns",
        get("protocol.decode_resp").mean_ns(),
        "ns",
    );
    rep.metric("protocol.bytes_per_op", f.bytes_per_op, "B");
    let mut calls = SpanStats::default();
    let window_calls = [
        "window.client.put",
        "window.client.get",
        "window.client.delete",
    ];
    let served = window_calls
        .iter()
        .any(|n| m.get(n).is_some_and(|s| s.calls > 0));
    let names = if served {
        window_calls
    } else {
        ["client.put", "client.get", "client.delete"]
    };
    for n in names {
        if let Some(s) = m.get(n) {
            calls.calls += s.calls;
            calls.total_ns += s.total_ns;
            calls.singles.extend_from_slice(&s.singles);
        }
    }
    rep.metric("client.call_p50_us", us(calls.pct_ns(0.50)), "us");
    rep.metric("client.call_p99_us", us(calls.pct_ns(0.99)), "us");
    let cput = get(names[0]);
    rep.metric(
        "server.overhead_p50_us",
        us(cput.pct_ns(0.50) - dput.pct_ns(0.50)),
        "us",
    );
    let (reqs, rejects, errs) = w.server.unwrap_or(f.server);
    rep.metric(
        "server.reject_ratio",
        rejects as f64 / reqs.max(1) as f64,
        "ratio",
    );
    rep.metric("server.requests_err", errs as f64, "count");

    rep.metric("bench.gen_ns", w.gen_ns, "ns");
    rep.metric("bench.sched_lag_p99_us", w.sched_lag_p99_us, "us");
    rep.metric("trace.ops_ratio", w.traced_over_untraced, "ratio");
    rep.info("trace.spans", set.span_count() as f64, "count");
}
