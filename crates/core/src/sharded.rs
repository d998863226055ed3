//! The PNW store: sharded and thread-safe.
//!
//! [`ShardedPnwStore`] (also exported under the paper's name,
//! [`PnwStore`](crate::PnwStore)) splits the data zone into N independent
//! [`ShardEngine`]s — each with its own device slice, hash index and
//! dynamic address pool — and routes every key to one shard by hash.
//! Operations on different shards run fully in parallel. Within one shard
//! the concurrency model is **single-writer / lock-free readers**:
//!
//! * **Writes (flat combining).** Each shard's engine sits behind a
//!   `Mutex`, but contended writers never convoy on it. A writer first
//!   `try_lock`s the engine; on success it executes its own op and then
//!   *drains the shard's command queue* — executing queued ops on behalf
//!   of the threads that submitted them (it is the shard's *combiner* for
//!   that moment). On failure it pushes an owned command onto the shard's
//!   bounded queue and waits on the command's slot; the current combiner
//!   executes it and fills the slot. A full queue returns
//!   [`StoreError::Backpressure`] instead of blocking — explicit feedback
//!   in place of lock convoying. A single-threaded client always wins the
//!   `try_lock`, so with `shards = 1` (the default) every op runs
//!   inline, in submission order: the single-threaded system of the
//!   paper's Algorithms 1–3.
//!
//! * **Reads (seqlock validation).** GETs take **zero locks** in steady
//!   state. Each shard publishes a read view at construction — a
//!   [`CellView`] of the device cells, a lock-free [`IndexReader`], and
//!   the shard's `ShardSync` seqlock handle. A GET reads the sequence
//!   (spinning past an odd value — a write in flight), probes the index
//!   and copies the value bytes through volatile reads, then validates
//!   the sequence: unchanged means the copy is a consistent snapshot;
//!   changed means a writer raced and the GET retries. Every engine
//!   mutation brackets itself with the sequence, so a reader can never
//!   return torn bytes. [`PnwConfig::locked_reads`] routes GETs through
//!   the engine mutex instead — the before/after comparison knob for the
//!   read-scaling benchmarks.
//!
//! The ML model is the one deliberately *shared* component: the paper
//! keeps it in DRAM, read-mostly, retrained in the background
//! (§V-C/§V-A.1). Every shard holds its own `Arc` of the current
//! immutable [`ModelSnapshot`](crate::model::ModelSnapshot); the trainer
//! ([`ModelManager`]) lives behind a `Mutex` taken only at train/install
//! boundaries, with completion signalled through one `AtomicBool` the op
//! path polls (a single acquire load — false in steady state).
//!
//! Lock order is always **trainer → shard engine → shard queue**; nothing
//! acquires a lock to the left while holding one to the right, which
//! makes the set deadlock-free. Combiners run retrain maintenance only
//! *after* releasing the engine lock.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use pnw_index::IndexReader;
use pnw_nvm_sim::{CellView, DeviceStats, LatencyModel, WearCdf, WriteStats};

use crate::api::{Batch, BatchReport, Op, Store};
use crate::config::{BackingMode, PnwConfig, RetrainMode};
use crate::durable::{geometry_hash, DurableStore, ShardCheckpoint};
use crate::error::{PnwError, StoreError};
use crate::metrics::{OpReport, StoreSnapshot};
use crate::model::ModelManager;
use crate::shard::{
    bucket_crc, now_unix_ms, PutPath, ScanGeometry, ShardEngine, ShardSync, EXPIRY_BYTES,
    FLAG_VALID, HDR_BYTES,
};

/// One completed command's result, handed back through its [`OpSlot`].
enum CmdReply {
    Put(Result<OpReport, StoreError>),
    Delete(Result<bool, StoreError>),
    Group {
        /// Report fragment with failure indices local to the group.
        frag: BatchReport,
        /// Device-stats delta the group produced.
        delta: WriteStats,
        /// Modeled NVM latency of that delta.
        modeled: Duration,
    },
}

/// The rendezvous between a queued writer and the combiner that executes
/// its command: the combiner fills `done` and signals `cv`.
#[derive(Default)]
struct OpSlot {
    done: Mutex<Option<CmdReply>>,
    cv: Condvar,
}

impl OpSlot {
    fn fill(&self, reply: CmdReply) {
        *self.done.lock().unwrap() = Some(reply);
        self.cv.notify_one();
    }
}

/// A write command queued for a shard's current combiner. Owns its
/// operands (the submitting thread's borrows can't cross the handoff).
enum OwnedOp {
    Put {
        key: u64,
        value: Vec<u8>,
        expires_at_ms: u64,
        slot: Arc<OpSlot>,
    },
    Delete {
        key: u64,
        slot: Arc<OpSlot>,
    },
    /// One shard's slice of a [`Batch`], executed as a single group.
    Group {
        ops: Vec<Op>,
        slot: Arc<OpSlot>,
    },
}

/// One shard: the engine behind its writer mutex, the bounded command
/// queue contended writers combine through, and the lock-free read view.
struct Shard {
    engine: Mutex<ShardEngine>,
    /// Commands awaiting the current combiner; bounded by `queue_cap`.
    queue: Mutex<VecDeque<OwnedOp>>,
    queue_cap: usize,
    /// Lock-free view of the shard's device cells (stable for the
    /// engine's lifetime — the cell buffer never moves).
    view: CellView,
    /// Lock-free index probe handle; `None` falls back to locked reads.
    reader: Option<IndexReader>,
    /// The shard's seqlock + GET counter, shared with the engine.
    sync: Arc<ShardSync>,
    /// The shard's static bucket geometry, captured at construction for
    /// the lock-free scan path. Covers every *provisioned* bucket
    /// (capacity + reserve), so zone extension never invalidates it.
    geom: ScanGeometry,
}

impl Shard {
    fn wrap(engine: ShardEngine, queue_cap: usize) -> Self {
        let view = engine.cell_view();
        let reader = engine.index_reader();
        let sync = engine.sync_handle();
        let geom = engine.scan_geometry();
        Shard {
            engine: Mutex::new(engine),
            queue: Mutex::new(VecDeque::new()),
            queue_cap,
            view,
            reader,
            sync,
            geom,
        }
    }
}

/// A concurrent Predict-and-Write store: N shards behind one logical
/// key/value interface. All operations take `&self`; wrap the store in an
/// [`std::sync::Arc`] and clone it across threads.
pub struct ShardedPnwStore {
    cfg: PnwConfig,
    shards: Arc<Vec<Shard>>,
    /// The trainer: touched only at train/install boundaries, never by the
    /// op hot path (which predicts from per-shard snapshot `Arc`s).
    trainer: Mutex<ModelManager>,
    /// Set (release-ordered) by the background training thread once its
    /// model is queued; the op path polls this single atomic instead of
    /// taking any model lock.
    model_ready: Arc<AtomicBool>,
    /// Serializes zone-extension/retrain maintenance so a burst of
    /// concurrent PUTs past the load factor triggers one run, not a
    /// stampede. In [`RetrainMode::Background`] it stays set until the
    /// trained model installs.
    maintenance: AtomicBool,
    /// The durable metadata controller when the store is file-backed
    /// (superblock, per-shard WALs, checkpoints). `None` on volatile
    /// stores. Locked only at checkpoint boundaries; the per-op WAL
    /// appends go through each shard's own [`DurableShard`]
    /// (crate::durable) handle under that shard's engine lock.
    durable: Option<Mutex<DurableStore>>,
    /// Tells the background scrubber thread to exit; set in [`Drop`].
    scrub_stop: Arc<AtomicBool>,
    /// The background scrubber — spawned when [`PnwConfig::scrub_rate`]
    /// is set, joined on drop. It rotates across shards CRC-verifying a
    /// few buckets per visit under that shard's engine lock, so it is
    /// just another (rate-limited) writer in the concurrency model.
    scrub_thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for ShardedPnwStore {
    fn drop(&mut self) {
        self.scrub_stop.store(true, Ordering::Release);
        if let Some(h) = self.scrub_thread.take() {
            let _ = h.join();
        }
    }
}

/// splitmix64 finalizer — the shard router. Independent of both index hash
/// functions so shard choice and in-shard placement stay uncorrelated.
fn route(key: u64) -> u64 {
    let mut x = key.wrapping_add(0x2545_F491_4F6C_DD1D);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// How long a queued writer sleeps between combiner checks. Short enough
/// to bound the lost-wakeup window, long enough not to spin the core.
const SLOT_WAIT: Duration = Duration::from_micros(200);

impl ShardedPnwStore {
    /// Creates a store with `cfg.shards` shards (see
    /// [`PnwConfig::with_shards`]). `cfg.capacity` and
    /// `cfg.reserve_buckets` describe the *whole* logical store and are
    /// split as evenly as possible across shards; the shard count is
    /// clamped so every shard gets at least one bucket.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) message when
    /// `cfg` fails [`PnwConfig::validate`] — use [`PnwConfig::build`]
    /// first to handle invalid configurations as values.
    pub fn new(cfg: PnwConfig) -> Self {
        let cfg = cfg
            .build()
            .unwrap_or_else(|e| panic!("invalid PnwConfig: {e}"));
        assert!(
            matches!(cfg.backing, BackingMode::Volatile),
            "file-backed stores must be created with ShardedPnwStore::open"
        );
        let n = cfg.shards.max(1).min(cfg.capacity.max(1));
        let cap = cfg.shard_queue_depth.max(1);
        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..n)
                .map(|i| {
                    let mut engine = ShardEngine::new(shard_config(&cfg, n, i));
                    engine.set_shard_id(i);
                    Shard::wrap(engine, cap)
                })
                .collect(),
        );
        let trainer = Mutex::new(ModelManager::new(&cfg));
        let scrub_stop = Arc::new(AtomicBool::new(false));
        let scrub_thread = spawn_scrubber(&cfg, &shards, &scrub_stop);
        ShardedPnwStore {
            cfg,
            shards,
            trainer,
            model_ready: Arc::new(AtomicBool::new(false)),
            maintenance: AtomicBool::new(false),
            durable: None,
            scrub_stop,
            scrub_thread,
        }
    }

    /// Opens a store according to `cfg.backing`.
    ///
    /// * [`BackingMode::Volatile`] — equivalent to [`ShardedPnwStore::new`]
    ///   but non-panicking on invalid configs.
    /// * [`BackingMode::File`] — opens (or initializes) the durable
    ///   directory. Each shard gets its own backing file and WAL; one
    ///   superblock/checkpoint pair covers them all, so a checkpoint is
    ///   atomic across shards. Recovery replays every shard's WAL over the
    ///   last checkpoint and repairs each shard's data zone to exactly its
    ///   committed key set.
    pub fn open(cfg: PnwConfig) -> Result<Self, StoreError> {
        let cfg = cfg.build()?;
        let BackingMode::File(dir) = cfg.backing.clone() else {
            return Ok(ShardedPnwStore::new(cfg));
        };
        let n = cfg.shards.max(1).min(cfg.capacity.max(1));
        let initial = (0..n)
            .map(|i| ShardCheckpoint::fresh(split(cfg.capacity, n, i) as u64))
            .collect();
        let (durable, recovered, fresh) =
            DurableStore::open(&dir, geometry_hash(&cfg, n), cfg.value_size, initial)?;
        let cap = cfg.shard_queue_depth.max(1);
        let mut shards = Vec::with_capacity(n);
        for (i, rec) in recovered.into_iter().enumerate() {
            let mut engine =
                ShardEngine::open_file(shard_config(&cfg, n, i), durable.data_path(i))?;
            engine.set_shard_id(i);
            engine.set_active_buckets(rec.active as usize);
            // Retirement is restored before repair so neither the repair
            // pass nor pool recovery resurrects a retired bucket.
            engine.restore_retired(&rec.retired);
            engine.repair_after_replay(&rec.committed)?;
            engine.recover_structures()?;
            engine.reindex_retired_committed(&rec.committed)?;
            // Counters restore last so the repair's own writes don't
            // perturb the checkpointed values.
            engine.restore_device_counters(rec.stats, &rec.word_writes, rec.bit_flips.as_deref());
            let mut appender = durable.wal_appender(i)?;
            appender.preload_values(rec.values);
            engine.attach_durable(appender);
            shards.push(Shard::wrap(engine, cap));
        }
        let shards = Arc::new(shards);
        let trainer = Mutex::new(ModelManager::new(&cfg));
        let scrub_stop = Arc::new(AtomicBool::new(false));
        let scrub_thread = spawn_scrubber(&cfg, &shards, &scrub_stop);
        let store = ShardedPnwStore {
            cfg,
            shards,
            trainer,
            model_ready: Arc::new(AtomicBool::new(false)),
            maintenance: AtomicBool::new(false),
            durable: Some(Mutex::new(durable)),
            scrub_stop,
            scrub_thread,
        };
        if !fresh && !store.is_empty() {
            // The model is DRAM-resident and died with the process;
            // reconstruct it from the recovered data zones (§V-A.1).
            store.retrain_now()?;
        }
        Ok(store)
    }

    /// Cuts a durable checkpoint: quiesces writers by holding every
    /// shard's engine lock, flushes each device backing, snapshots the
    /// committed state of all shards and runs the write-new → fsync →
    /// rename → superblock-bump protocol once for the whole store. Every
    /// shard WAL is truncated afterwards. No-op on a volatile store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let Some(durable) = &self.durable else {
            return Ok(());
        };
        let mut durable = durable.lock().unwrap();
        // Engine locks taken in shard order (a cross-shard quiescent
        // point; in-flight seqlock readers don't touch durable state).
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.engine.lock().unwrap()).collect();
        let mut states = Vec::with_capacity(guards.len());
        for g in &guards {
            g.sync_device()?;
            states.push(g.checkpoint_state()?);
        }
        durable.checkpoint(&states)?;
        // The WALs were truncated; drop the in-memory value mirrors that
        // backed scrub repairs for the truncated records.
        for g in &mut guards {
            g.clear_wal_values();
        }
        Ok(())
    }

    /// Closes the store cleanly: cuts a final checkpoint (on a durable
    /// store) and drops it.
    pub fn close(self) -> Result<(), StoreError> {
        self.checkpoint()
    }

    /// Whether this store persists to a file backing.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The shard a key routes to — lets crash tests aim
    /// [`ShardedPnwStore::arm_torn_write`] at the right shard.
    pub fn shard_of_key(&self, key: u64) -> usize {
        self.shard_of(key)
    }

    /// Arms a torn write on one shard's device: that shard's next
    /// data-zone write persists only `words` whole words and the device
    /// crashes (test hook for crash-consistency scenarios).
    pub fn arm_torn_write(&self, shard: usize, words: usize) {
        self.shards[shard].engine.lock().unwrap().arm_torn_write(words);
    }

    /// Arms a deterministic metadata tear (superblock / WAL / checkpoint)
    /// on a durable store; no-op on a volatile one (test hook).
    pub fn arm_meta_tear(&self, tear: pnw_nvm_sim::MetaTear) {
        if let Some(d) = &self.durable {
            d.lock().unwrap().arm_meta_tear(tear);
        }
    }

    /// Runs `f` while holding one shard's engine lock (test hook: the
    /// torn-read stress suite uses it to prove GETs complete while a
    /// writer owns the shard, and to force writers onto the queue path).
    #[doc(hidden)]
    pub fn with_shard_write_held<R>(&self, shard: usize, f: impl FnOnce() -> R) -> R {
        let _g = self.shards[shard].engine.lock().unwrap();
        f()
    }

    /// The store's configuration (capacity fields describe the whole
    /// logical store).
    pub fn config(&self) -> &PnwConfig {
        &self.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (route(key) % self.shards.len() as u64) as usize
        }
    }

    /// PUT / UPDATE (Algorithm 2 + §V-B.3), routed to the key's shard.
    ///
    /// Takes **zero model locks**: the prediction reads the shard's own
    /// snapshot `Arc`, and the only model-related cost in steady state is
    /// one relaxed-false atomic load of the background-completion flag.
    /// On an uncontended shard the engine `try_lock` succeeds and the op
    /// runs inline; on a contended one the op is queued for the shard's
    /// current combiner (see the [module docs](self)).
    pub fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, PnwError> {
        self.put_with_expiry(key, value, 0)
    }

    /// PUT with an absolute TTL deadline in unix milliseconds
    /// (`0` = never expires; see [`now_unix_ms`]). Identical to
    /// [`ShardedPnwStore::put`] otherwise — same routing, combining and
    /// retrain policy. Requires [`PnwConfig::with_ttl`]; without the
    /// expiry zone the deadline is silently dropped.
    pub fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, PnwError> {
        crate::shard::check_value(&self.cfg, value)?;
        self.install_if_ready();
        let sid = self.shard_of(key);
        let sh = &self.shards[sid];
        if let Ok(mut eng) = sh.engine.try_lock() {
            let mut due = false;
            let res = Self::exec_put(&mut eng, key, value, expires_at_ms, &mut due);
            due |= self.drain_queue(sh, &mut eng);
            drop(eng);
            self.finish_write(sh, due);
            return res;
        }
        let slot = Arc::new(OpSlot::default());
        self.enqueue(
            sid,
            OwnedOp::Put {
                key,
                value: value.to_vec(),
                expires_at_ms,
                slot: Arc::clone(&slot),
            },
        )?;
        match self.await_slot(sh, &slot) {
            CmdReply::Put(res) => res,
            _ => unreachable!("a put slot carries a put reply"),
        }
    }

    /// One PUT against a held engine, with the §V-C reserve extension at
    /// the same op boundary as the batch path.
    fn exec_put(
        eng: &mut ShardEngine,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
        due: &mut bool,
    ) -> Result<OpReport, PnwError> {
        let (report, path) = eng.put_with_expiry(key, value, expires_at_ms)?;
        if path == PutPath::Fresh && eng.retrain_due() {
            eng.extend_from_reserve_if_due();
            *due = true;
        }
        Ok(report)
    }

    /// GET (§V-B.4): **zero locks** in steady state. The shard's index
    /// reader and cell view are probed under seqlock validation — an
    /// uncontended read costs two sequence loads on top of the probe, and
    /// a read racing a writer retries until it observes a quiet interval.
    /// With [`PnwConfig::locked_reads`] the GET takes the engine lock
    /// instead (the pre-seqlock behavior, kept as a benchmark baseline).
    pub fn get(&self, key: u64) -> Result<Option<Vec<u8>>, PnwError> {
        let mut v = vec![0u8; self.cfg.value_size];
        Ok(self.get_into(key, &mut v)?.then_some(v))
    }

    /// GET into a caller-provided buffer of exactly `value_size` bytes —
    /// the allocation-free read path (clients reuse one buffer across
    /// operations). Returns whether the key was present.
    pub fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, PnwError> {
        if out.len() != self.cfg.value_size {
            return Err(PnwError::WrongValueSize {
                expected: self.cfg.value_size,
                got: out.len(),
            });
        }
        let sh = &self.shards[self.shard_of(key)];
        if self.cfg.locked_reads {
            return sh.engine.lock().unwrap().get_into(key, out);
        }
        let Some(reader) = &sh.reader else {
            return sh.engine.lock().unwrap().get_into(key, out);
        };
        loop {
            let s1 = sh.sync.read_begin();
            let found = match reader.lookup(&sh.view, key) {
                Some(addr) => {
                    // TTL: a key past its deadline reads as absent — the
                    // same lazy-expiry contract as the locked path. A torn
                    // expiry word fails validation and retries like any
                    // other racing read.
                    if let Some(expiry_start) = sh.geom.expiry_start {
                        let b = (addr as usize - sh.geom.data_start) / sh.geom.bucket_size;
                        let mut d = [0u8; EXPIRY_BYTES];
                        if !sh.view.read_into(expiry_start + b * EXPIRY_BYTES, &mut d) {
                            if sh.sync.read_validate(s1) {
                                return sh.engine.lock().unwrap().get_into(key, out);
                            }
                            continue;
                        }
                        let deadline = u64::from_le_bytes(d);
                        if deadline != 0 && deadline <= now_unix_ms() {
                            if sh.sync.read_validate(s1) {
                                sh.sync.count_get();
                                return Ok(false);
                            }
                            continue;
                        }
                    }
                    if sh.view.read_into(addr as usize + HDR_BYTES, out) {
                        if self.cfg.integrity {
                            // End-to-end verification on the lock-free
                            // path: copy the sealed header and check the
                            // key + CRC against the value bytes we just
                            // read. Only a *validated* snapshot can be
                            // declared corrupt — an invalid one is just
                            // a racing writer and retries.
                            let mut hdr = [0u8; HDR_BYTES];
                            if !sh.view.read_into(addr as usize, &mut hdr)
                                || !sh.sync.read_validate(s1)
                            {
                                continue;
                            }
                            let stored_key =
                                u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                            let stored_crc =
                                u32::from_le_bytes(hdr[4..8].try_into().unwrap());
                            if stored_key != key || stored_crc != bucket_crc(key, out) {
                                // A consistent snapshot that fails CRC is
                                // media corruption, not a torn read. The
                                // locked path re-verifies and surfaces
                                // the typed error with key and shard.
                                return sh.engine.lock().unwrap().get_into(key, out);
                            }
                            sh.sync.count_get();
                            return Ok(true);
                        }
                        true
                    } else if sh.sync.read_validate(s1) {
                        // The address validated yet points outside the
                        // device: not a torn read — let the locked path
                        // surface the real device error.
                        return sh.engine.lock().unwrap().get_into(key, out);
                    } else {
                        // Torn probe produced a garbage address; retry.
                        continue;
                    }
                }
                None => false,
            };
            if sh.sync.read_validate(s1) {
                sh.sync.count_get();
                return Ok(found);
            }
        }
    }

    /// DELETE (Algorithm 3), routed to the key's shard. Like PUT, takes no
    /// model lock, and combines through the shard queue under contention.
    pub fn delete(&self, key: u64) -> Result<bool, PnwError> {
        self.install_if_ready();
        let sid = self.shard_of(key);
        let sh = &self.shards[sid];
        if let Ok(mut eng) = sh.engine.try_lock() {
            let res = eng.delete(key);
            let due = self.drain_queue(sh, &mut eng);
            drop(eng);
            self.finish_write(sh, due);
            return res;
        }
        let slot = Arc::new(OpSlot::default());
        self.enqueue(
            sid,
            OwnedOp::Delete {
                key,
                slot: Arc::clone(&slot),
            },
        )?;
        match self.await_slot(sh, &slot) {
            CmdReply::Delete(res) => res,
            _ => unreachable!("a delete slot carries a delete reply"),
        }
    }

    /// Ordered range scan over `lo..=hi` across every shard, ascending by
    /// key. Each shard contributes a **seqlock-consistent snapshot**: its
    /// buckets are walked through the lock-free cell view inside one
    /// `read_begin`/`read_validate` bracket, so no returned value is ever
    /// torn — but the per-shard snapshots are taken at slightly different
    /// instants, not one global cut (see [`Store::scan`] for the
    /// contract). A shard under heavy write traffic that keeps failing
    /// validation falls back to a brief engine-locked scan. Entries whose
    /// TTL deadline has passed are excluded; entries failing CRC are
    /// skipped (point GETs surface those loudly).
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, PnwError> {
        let mut out = Vec::new();
        if lo > hi {
            return Ok(out);
        }
        for sid in 0..self.shards.len() {
            self.scan_shard(sid, lo, hi, &mut out)?;
        }
        // Shards partition the key space by hash, so keys are unique
        // across shards and one sort yields the global order.
        out.sort_unstable_by_key(|&(k, _)| k);
        Ok(out)
    }

    /// One shard's contribution to [`ShardedPnwStore::scan`]: the
    /// lock-free walk with retry, or the engine-locked fallback when
    /// `locked_reads` is set, no index reader exists, or validation keeps
    /// losing to writers.
    fn scan_shard(
        &self,
        sid: usize,
        lo: u64,
        hi: u64,
        out: &mut Vec<(u64, Vec<u8>)>,
    ) -> Result<(), PnwError> {
        /// Whole-shard snapshot attempts before conceding to the lock.
        const SCAN_RETRIES: usize = 8;
        let sh = &self.shards[sid];
        let reader = if self.cfg.locked_reads { None } else { sh.reader.as_ref() };
        let Some(reader) = reader else {
            out.extend(sh.engine.lock().unwrap().scan_range(lo, hi)?);
            return Ok(());
        };
        let geom = sh.geom;
        let now = now_unix_ms();
        'attempt: for _ in 0..SCAN_RETRIES {
            let s1 = sh.sync.read_begin();
            let mut acc: Vec<(u64, Vec<u8>)> = Vec::new();
            for b in 0..geom.buckets {
                let base = geom.data_start + b * geom.bucket_size;
                let mut hdr = [0u8; HDR_BYTES];
                if !sh.view.read_into(base, &mut hdr) {
                    // Provisioned buckets are always in range; treat a
                    // refused read like a failed validation.
                    continue 'attempt;
                }
                if hdr[0] & FLAG_VALID == 0 {
                    continue;
                }
                let key = u64::from_le_bytes(hdr[8..16].try_into().unwrap());
                if key < lo || key > hi {
                    continue;
                }
                // Index authority: a valid-looking header whose key maps
                // elsewhere (or nowhere) is a stale image — a retired
                // bucket's last contents, or a racing writer mid-move.
                if reader.lookup(&sh.view, key) != Some(base as u64) {
                    continue;
                }
                if let Some(expiry_start) = geom.expiry_start {
                    let mut d = [0u8; EXPIRY_BYTES];
                    if !sh.view.read_into(expiry_start + b * EXPIRY_BYTES, &mut d) {
                        continue 'attempt;
                    }
                    let deadline = u64::from_le_bytes(d);
                    if deadline != 0 && deadline <= now {
                        continue;
                    }
                }
                let mut value = vec![0u8; geom.value_size];
                if !sh.view.read_into(base + HDR_BYTES, &mut value) {
                    continue 'attempt;
                }
                if geom.integrity {
                    let stored_crc = u32::from_le_bytes(hdr[4..8].try_into().unwrap());
                    if stored_crc != bucket_crc(key, &value) {
                        if !sh.sync.read_validate(s1) {
                            // Torn bytes from a racing writer, not media
                            // damage — retake the whole snapshot.
                            continue 'attempt;
                        }
                        // A validated snapshot that fails CRC is real
                        // corruption; scans skip it (the contract) and
                        // point GETs report it.
                        continue;
                    }
                }
                acc.push((key, value));
            }
            if sh.sync.read_validate(s1) {
                out.append(&mut acc);
                return Ok(());
            }
        }
        out.extend(sh.engine.lock().unwrap().scan_range(lo, hi)?);
        Ok(())
    }

    /// Pushes a command onto the shard's bounded queue, or rejects it with
    /// [`StoreError::Backpressure`] — naming the shard and its queue depth
    /// — when the combiner is saturated.
    fn enqueue(&self, sid: usize, op: OwnedOp) -> Result<(), StoreError> {
        let sh = &self.shards[sid];
        let mut q = sh.queue.lock().unwrap();
        if q.len() >= sh.queue_cap {
            return Err(StoreError::Backpressure {
                shard: sid,
                depth: q.len(),
            });
        }
        q.push_back(op);
        Ok(())
    }

    /// Waits for a queued command's reply, opportunistically becoming the
    /// combiner if the engine frees up first (which also executes our own
    /// queued command). The timed wait bounds the window where a combiner
    /// released the engine between our queue push and its final drain.
    fn await_slot(&self, sh: &Shard, slot: &Arc<OpSlot>) -> CmdReply {
        loop {
            if let Some(reply) = slot.done.lock().unwrap().take() {
                return reply;
            }
            if let Ok(mut eng) = sh.engine.try_lock() {
                let due = self.drain_queue(sh, &mut eng);
                drop(eng);
                self.finish_write(sh, due);
                continue;
            }
            let done = slot.done.lock().unwrap();
            if done.is_some() {
                continue;
            }
            let _ = slot.cv.wait_timeout(done, SLOT_WAIT).unwrap();
        }
    }

    /// Executes every queued command against the held engine (the flat
    /// combining drain). Returns whether any op made retraining due.
    fn drain_queue(&self, sh: &Shard, eng: &mut ShardEngine) -> bool {
        let mut due = false;
        loop {
            let op = sh.queue.lock().unwrap().pop_front();
            let Some(op) = op else { break };
            match op {
                OwnedOp::Put {
                    key,
                    value,
                    expires_at_ms,
                    slot,
                } => {
                    let res = Self::exec_put(eng, key, &value, expires_at_ms, &mut due);
                    slot.fill(CmdReply::Put(res));
                }
                OwnedOp::Delete { key, slot } => {
                    slot.fill(CmdReply::Delete(eng.delete(key)));
                }
                OwnedOp::Group { ops, slot } => {
                    let mut frag = BatchReport::default();
                    let before = eng.device_stats().clone();
                    due |= eng.apply_group(&ops, 0..ops.len(), &mut frag);
                    let delta = eng.device_stats().since(&before).totals;
                    let modeled = eng.device().modeled_write_cost(&delta);
                    slot.fill(CmdReply::Group {
                        frag,
                        delta,
                        modeled,
                    });
                }
            }
        }
        due
    }

    /// Post-release duties of a combiner: run the retrain policy (never
    /// while holding the engine — lock order), then close the race window
    /// where a writer queued between our last drain and the lock release.
    /// Waiters also self-recover via their timed wait, so one recheck is
    /// enough.
    fn finish_write(&self, sh: &Shard, due: bool) {
        if due {
            self.trigger_retrain_policy();
        }
        if !sh.queue.lock().unwrap().is_empty() {
            if let Ok(mut eng) = sh.engine.try_lock() {
                let due = self.drain_queue(sh, &mut eng);
                drop(eng);
                if due {
                    self.trigger_retrain_policy();
                }
            }
        }
    }

    /// Live key count across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.lock().unwrap().len())
            .sum()
    }

    /// Whether no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cross-shard device statistics: the sum of every shard's counters,
    /// exactly what one device serving the combined traffic would report
    /// (the shards tile one logical address space).
    pub fn device_stats(&self) -> DeviceStats {
        let parts = self.per_shard_device_stats();
        DeviceStats::merged(parts.iter())
    }

    /// Per-shard device statistics, in shard order.
    pub fn per_shard_device_stats(&self) -> Vec<DeviceStats> {
        self.shards
            .iter()
            .map(|s| s.engine.lock().unwrap().device_stats().clone())
            .collect()
    }

    /// Clears every shard's device statistics (measurement windows exclude
    /// warm-up traffic).
    pub fn reset_device_stats(&self) {
        for s in self.shards.iter() {
            s.engine.lock().unwrap().reset_device_stats();
        }
    }

    /// Highest write count observed on any single NVM word, across all
    /// shards — the wear hot spot that bounds the whole store's lifetime.
    pub fn max_word_writes(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.engine.lock().unwrap().device().max_word_writes())
            .max()
            .unwrap_or(0)
    }

    /// Figure-12-style per-word wear CDF over the *combined* active data
    /// zones of all shards (the per-shard CDFs merged into one
    /// population).
    pub fn word_wear_cdf(&self) -> WearCdf {
        let mut merged: Option<WearCdf> = None;
        for s in self.shards.iter() {
            let shard = s.engine.lock().unwrap();
            let (start, len) = shard.data_zone_range();
            let cdf = shard.device().word_wear_cdf(start, len);
            merged = Some(match merged {
                Some(m) => m.merge(&cdf),
                None => cdf,
            });
        }
        merged.expect("at least one shard")
    }

    /// Figure-13-style per-bit wear CDF over the combined active data
    /// zones of all shards; `None` unless the store was built with
    /// [`PnwConfig::with_bit_wear`]`(true)`.
    pub fn bit_wear_cdf(&self) -> Option<WearCdf> {
        let mut merged: Option<WearCdf> = None;
        for s in self.shards.iter() {
            let shard = s.engine.lock().unwrap();
            let (start, len) = shard.data_zone_range();
            let cdf = shard.device().bit_wear_cdf(start, len)?;
            merged = Some(match merged {
                Some(m) => m.merge(&cdf),
                None => cdf,
            });
        }
        merged
    }

    /// Clears every shard's wear counters (Figures 12/13 measure wear over
    /// a stream that excludes warm-up writes).
    pub fn reset_wear(&self) {
        for s in self.shards.iter() {
            s.engine.lock().unwrap().reset_wear();
        }
    }

    /// The devices' latency model (every shard's device shares it).
    pub fn latency_model(&self) -> LatencyModel {
        self.shards[0].engine.lock().unwrap().device().latency_model()
    }

    /// Buckets currently in the active data zones of all shards.
    pub fn active_capacity(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.lock().unwrap().active_capacity())
            .sum()
    }

    /// Reserved buckets not yet activated, across all shards.
    pub fn reserve_remaining(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.engine.lock().unwrap().reserve_remaining())
            .sum()
    }

    /// Extends the data zone by up to `buckets` reserved buckets (§V-C),
    /// split as evenly as possible across shards.
    ///
    /// The freshly activated addresses join each shard's address pool
    /// under the current model's labels; nothing in the NVM hash index
    /// moves — *"our method to expand the size of a cluster does not
    /// impose any extra writes to the NVM"*. Call
    /// [`ShardedPnwStore::retrain_now`] (or rely on the load-factor
    /// trigger) to refresh the model on the grown zone.
    ///
    /// Returns how many buckets were activated (0 when the reserve is
    /// exhausted).
    pub fn extend_zone(&self, buckets: usize) -> usize {
        let n = self.shards.len();
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.engine.lock().unwrap().extend_zone(split(buckets, n, i)))
            .sum()
    }

    /// Pre-fills every *free* bucket's cells with values from `gen`,
    /// leaving them free. This reproduces the paper's experimental setup
    /// (§VI-B: *"we first have set aside 5K buckets as the 'old data' on
    /// the NVM"*): the pools then steer incoming writes onto bit-similar
    /// stale content. Call [`ShardedPnwStore::retrain_now`] afterwards so
    /// the model learns the prefilled distribution. Returns how many
    /// buckets were filled.
    pub fn prefill_free_buckets(
        &self,
        mut gen: impl FnMut() -> Vec<u8>,
    ) -> Result<usize, StoreError> {
        let mut filled = 0;
        for s in self.shards.iter() {
            filled += s.engine.lock().unwrap().prefill_free_buckets(&mut gen)?;
        }
        Ok(filled)
    }

    /// Aggregated point-in-time snapshot: counters summed across shards,
    /// train stats from the shared trainer.
    pub fn snapshot(&self) -> StoreSnapshot {
        let train = self.trainer.lock().unwrap().train_stats();
        let mut parts = self
            .shards
            .iter()
            .map(|s| s.engine.lock().unwrap().snapshot(train.clone()));
        let mut agg = parts.next().expect("at least one shard");
        for p in parts {
            agg.live += p.live;
            agg.free += p.free;
            agg.capacity += p.capacity;
            agg.fallbacks += p.fallbacks;
            agg.device.merge(&p.device);
            agg.predict_total += p.predict_total;
            agg.puts += p.puts;
            agg.gets += p.gets;
            agg.deletes += p.deletes;
            agg.scrub.merge(&p.scrub);
        }
        agg
    }

    /// Runs one full synchronous scrub pass over every shard — every
    /// valid bucket is CRC-verified, proactively relocated off stuck
    /// media, repaired from the durable layer or retired — and returns
    /// the aggregated cumulative scrub counters. The background scrubber
    /// ([`PnwConfig::with_scrub`]) does the same work incrementally.
    pub fn scrub_pass(&self) -> Result<crate::metrics::ScrubStats, StoreError> {
        let mut agg = crate::metrics::ScrubStats::default();
        for s in self.shards.iter() {
            agg.merge(&s.engine.lock().unwrap().scrub_pass()?);
        }
        Ok(agg)
    }

    /// Forces one stuck-at bit inside the stored value of `key` (bit
    /// offset `bit` within the value, stuck at one or zero). Returns
    /// whether the key was present. Test hook for corruption scenarios —
    /// the production analogue is wear-out latching cells on its own.
    pub fn arm_stuck_at_key(
        &self,
        key: u64,
        bit: u32,
        stuck_at_one: bool,
    ) -> Result<bool, StoreError> {
        self.shards[self.shard_of(key)]
            .engine
            .lock()
            .unwrap()
            .arm_stuck_at_key(key, bit, stuck_at_one)
    }

    /// Training snapshot across every shard's active data zone, capped at
    /// `train_sample` values total (split evenly across shards).
    fn training_snapshot(&self) -> Vec<Vec<u8>> {
        let per_shard = self.cfg.train_sample.div_ceil(self.shards.len());
        let mut values = Vec::new();
        for s in self.shards.iter() {
            values.extend(s.engine.lock().unwrap().training_values(per_shard));
        }
        values
    }

    /// Trains the shared model synchronously on all shards' data zones and
    /// publishes the new snapshot — swapping each shard's `Arc` and
    /// relabeling its pool under that shard's lock (Algorithm 1,
    /// cross-shard). Blocks writers for the duration; prefer
    /// [`RetrainMode::Background`] under live traffic. Returns training
    /// time.
    pub fn retrain_now(&self) -> Result<Duration, PnwError> {
        let snapshot = self.training_snapshot();
        let mut trainer = self.trainer.lock().unwrap();
        let elapsed = trainer.train(&snapshot);
        self.publish(&trainer);
        Ok(elapsed)
    }

    /// Starts a background retraining run if none is pending (§V-C). The
    /// new model is installed — and every shard's pool relabeled — at a
    /// later operation boundary.
    pub fn retrain_in_background(&self) {
        let snapshot = self.training_snapshot();
        let mut trainer = self.trainer.lock().unwrap();
        if !trainer.training_in_progress() {
            trainer.train_in_background_with(snapshot, Some(Arc::clone(&self.model_ready)));
        }
    }

    /// Blocks until an in-flight background retrain (if any) installs, then
    /// publishes the snapshot to every shard.
    pub fn wait_for_retrain(&self) {
        let mut trainer = self.trainer.lock().unwrap();
        if trainer.wait_for_background() {
            self.publish(&trainer);
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        }
    }

    /// Whether the shared model has completed at least one training run.
    pub fn is_trained(&self) -> bool {
        self.trainer.lock().unwrap().is_trained()
    }

    /// Completed training runs of the shared model.
    pub fn retrains(&self) -> u64 {
        self.trainer.lock().unwrap().retrains()
    }

    /// Model epoch (install/swap count) of the published snapshot.
    pub fn model_epoch(&self) -> u64 {
        self.trainer.lock().unwrap().snapshot().epoch()
    }

    /// Current cluster count K of the shared model.
    pub fn model_k(&self) -> usize {
        self.trainer.lock().unwrap().k()
    }

    /// Predicts the cluster for a value under the current model (the
    /// standalone prediction kernel, for benches and diagnostics).
    pub fn predict(&self, value: &[u8]) -> usize {
        self.trainer.lock().unwrap().predict(value)
    }

    /// The current immutable model snapshot (centroids, packed LUTs,
    /// projector) — an `Arc` clone, safe to inspect outside the lock.
    pub fn model_snapshot(&self) -> Arc<crate::model::ModelSnapshot> {
        self.trainer.lock().unwrap().snapshot()
    }

    /// Publishes the trainer's current snapshot to every shard: one `Arc`
    /// swap + pool relabel per shard, each under that shard's engine lock.
    fn publish(&self, trainer: &ModelManager) {
        let snapshot = trainer.snapshot();
        for s in self.shards.iter() {
            s.engine
                .lock()
                .unwrap()
                .install_model(Arc::clone(&snapshot));
        }
    }

    /// Steady-state fast path: one atomic load. Only when the background
    /// trainer has signalled completion does an op thread take the trainer
    /// lock (non-blocking — a loser skips, the winner publishes).
    fn install_if_ready(&self) {
        if !self.model_ready.load(Ordering::Acquire) {
            return;
        }
        let Ok(mut trainer) = self.trainer.try_lock() else {
            return;
        };
        if trainer.try_install_background() {
            self.publish(&trainer);
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        } else if !trainer.training_in_progress() {
            // Stale flag: the run was consumed by wait_for_retrain, or its
            // thread panicked (the completion flag fires on unwind too and
            // try_install_background just saw Disconnected). Clear both
            // flags so the fast path stays fast and a later due PUT can
            // start a fresh retrain instead of wedging forever.
            self.model_ready.store(false, Ordering::Release);
            self.maintenance.store(false, Ordering::Release);
        }
    }

    /// The cross-shard half of maintenance: start (or run) a retrain per
    /// policy, serialized by the `maintenance` flag. Takes no shard lock
    /// up front (lock order stays trainer → shard).
    fn trigger_retrain_policy(&self) {
        if self.cfg.retrain == RetrainMode::Manual {
            return;
        }
        if self
            .maintenance
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        match self.cfg.retrain {
            RetrainMode::Manual => unreachable!("handled above"),
            RetrainMode::OnLoadFactor => {
                let _ = self.retrain_now();
                self.maintenance.store(false, Ordering::Release);
            }
            RetrainMode::Background => {
                let snapshot = self.training_snapshot();
                let mut trainer = self.trainer.lock().unwrap();
                if trainer.training_in_progress() {
                    // A run is already pending; let its install clear the flag.
                } else {
                    trainer.train_in_background_with(
                        snapshot,
                        Some(Arc::clone(&self.model_ready)),
                    );
                }
                // The maintenance flag stays set until install_if_ready()
                // swaps the model in — that is what stops every subsequent
                // PUT from re-snapshotting the data zone.
            }
        }
    }
}

impl Store for ShardedPnwStore {
    fn name(&self) -> &'static str {
        "PNW-sharded"
    }

    fn value_size(&self) -> usize {
        self.cfg.value_size
    }

    fn put(&self, key: u64, value: &[u8]) -> Result<OpReport, StoreError> {
        ShardedPnwStore::put(self, key, value)
    }

    fn get(&self, key: u64) -> Result<Option<Vec<u8>>, StoreError> {
        ShardedPnwStore::get(self, key)
    }

    fn get_into(&self, key: u64, out: &mut [u8]) -> Result<bool, StoreError> {
        ShardedPnwStore::get_into(self, key, out)
    }

    fn delete(&self, key: u64) -> Result<bool, StoreError> {
        ShardedPnwStore::delete(self, key)
    }

    fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, Vec<u8>)>, StoreError> {
        ShardedPnwStore::scan(self, lo, hi)
    }

    fn put_with_expiry(
        &self,
        key: u64,
        value: &[u8],
        expires_at_ms: u64,
    ) -> Result<OpReport, StoreError> {
        ShardedPnwStore::put_with_expiry(self, key, value, expires_at_ms)
    }

    fn supports_ttl(&self) -> bool {
        self.cfg.ttl_enabled
    }

    fn len(&self) -> usize {
        ShardedPnwStore::len(self)
    }

    fn snapshot(&self) -> StoreSnapshot {
        ShardedPnwStore::snapshot(self)
    }

    fn device_stats(&self) -> DeviceStats {
        ShardedPnwStore::device_stats(self)
    }

    fn reset_device_stats(&self) {
        ShardedPnwStore::reset_device_stats(self)
    }

    fn max_word_writes(&self) -> u32 {
        ShardedPnwStore::max_word_writes(self)
    }

    fn checkpoint(&self) -> Result<(), StoreError> {
        ShardedPnwStore::checkpoint(self)
    }

    /// Batched writes, the sharded store's centerpiece: the batch is
    /// grouped by shard and each shard's group runs under one engine
    /// acquisition — predicting through the shard's already-resident
    /// model snapshot `Arc`, reusing the shard's prediction scratch and
    /// bucket-image buffers across every op in the group, and (on a
    /// durable store) group-committing the whole group with one WAL
    /// fsync. A shard whose engine is held by another thread receives its
    /// group through the combining queue instead of blocking on the lock;
    /// a saturated queue fails that shard's ops with
    /// [`StoreError::Backpressure`] while other shards' groups proceed.
    fn apply(&self, batch: &Batch) -> BatchReport {
        self.install_if_ready();
        let mut report = BatchReport::default();
        // Group op indices by shard with one counting sort (two flat
        // arrays, no per-shard Vec allocations), preserving batch order
        // within each shard — ops on one key always route to one shard,
        // so per-key order is exactly submission order.
        let ops = batch.ops();
        let n_shards = self.shards.len();
        let mut shard_of_op: Vec<u32> = Vec::with_capacity(ops.len());
        let mut counts = vec![0usize; n_shards + 1];
        for op in ops {
            let sid = self.shard_of(op.key());
            shard_of_op.push(sid as u32);
            counts[sid + 1] += 1;
        }
        for sid in 0..n_shards {
            counts[sid + 1] += counts[sid];
        }
        let mut ordered = vec![0u32; ops.len()];
        let mut cursor = counts.clone();
        for (i, &sid) in shard_of_op.iter().enumerate() {
            ordered[cursor[sid as usize]] = i as u32;
            cursor[sid as usize] += 1;
        }
        let mut retrain_due = false;
        // Shard groups whose engine was contended, awaiting a combiner.
        let mut pending: Vec<(usize, Arc<OpSlot>, &[u32])> = Vec::new();
        for sid in 0..n_shards {
            let idxs = &ordered[counts[sid]..counts[sid + 1]];
            if idxs.is_empty() {
                continue;
            }
            let sh = &self.shards[sid];
            if let Ok(mut eng) = sh.engine.try_lock() {
                let before = eng.device_stats().clone();
                // Reserve extension runs inside the group at the per-op
                // path's op boundaries, still under this one acquisition.
                retrain_due |=
                    eng.apply_group(ops, idxs.iter().map(|&i| i as usize), &mut report);
                let delta = eng.device_stats().since(&before).totals;
                report.write_stats += delta;
                report.modeled_latency += eng.device().modeled_write_cost(&delta);
                retrain_due |= self.drain_queue(sh, &mut eng);
                drop(eng);
                // Retrain policy runs once after all groups; only the
                // queue recheck half of finish_write happens here.
                self.finish_write(sh, false);
            } else {
                let sub: Vec<Op> = idxs.iter().map(|&i| ops[i as usize].clone()).collect();
                let slot = Arc::new(OpSlot::default());
                match self.enqueue(sid, OwnedOp::Group { ops: sub, slot: Arc::clone(&slot) }) {
                    Ok(()) => pending.push((sid, slot, idxs)),
                    Err(e) => {
                        for &i in idxs {
                            report.failures.push((i as usize, e.clone()));
                        }
                    }
                }
            }
        }
        for (sid, slot, idxs) in pending {
            let CmdReply::Group {
                frag,
                delta,
                modeled,
            } = self.await_slot(&self.shards[sid], &slot)
            else {
                unreachable!("a group slot carries a group reply");
            };
            report.puts += frag.puts;
            report.deletes += frag.deletes;
            report.deleted_existing += frag.deleted_existing;
            report.write_stats += delta;
            report.modeled_latency += modeled;
            report.predict_samples.extend(frag.predict_samples);
            // The queued group saw local indices 0..len; map back to
            // batch positions.
            for (local, e) in frag.failures {
                report.failures.push((idxs[local] as usize, e));
            }
        }
        if retrain_due {
            self.trigger_retrain_policy();
        }
        // Shard grouping visits ops out of submission order; report
        // failures by batch index regardless.
        report.failures.sort_by_key(|&(i, _)| i);
        report
    }
}

fn split(total: usize, parts: usize, i: usize) -> usize {
    total / parts + usize::from(i < total % parts)
}

/// Spawns the background scrubber when [`PnwConfig::scrub_rate`] is set
/// (and integrity is on — there is nothing to verify without CRCs): a
/// thread that visits shards round-robin, scrubbing a small batch of
/// buckets per visit under that shard's engine lock, and sleeps between
/// visits so the steady-state rate stays at `rate` buckets per second
/// across the whole store. The sleep is chunked so a stop request is
/// honored within ~20 ms.
fn spawn_scrubber(
    cfg: &PnwConfig,
    shards: &Arc<Vec<Shard>>,
    stop: &Arc<AtomicBool>,
) -> Option<std::thread::JoinHandle<()>> {
    let rate = cfg.scrub_rate?.max(1);
    if !cfg.integrity {
        return None;
    }
    let shards = Arc::clone(shards);
    let stop = Arc::clone(stop);
    Some(std::thread::spawn(move || {
        let batch = rate.clamp(1, 64);
        let interval = Duration::from_secs_f64(f64::from(batch) / f64::from(rate));
        let mut next = 0usize;
        while !stop.load(Ordering::Acquire) {
            {
                let mut eng = shards[next].engine.lock().unwrap();
                let _ = eng.scrub_step(batch);
            }
            next = (next + 1) % shards.len();
            let mut remaining = interval;
            while remaining > Duration::ZERO && !stop.load(Ordering::Acquire) {
                let chunk = remaining.min(Duration::from_millis(20));
                std::thread::sleep(chunk);
                remaining = remaining.saturating_sub(chunk);
            }
        }
    }))
}

/// The per-shard view of the whole-store configuration: capacity and
/// reserve split as evenly as possible, one logical shard, always
/// volatile (file-backed shards get their device files through
/// [`ShardEngine::open_file`], not through the config).
fn shard_config(cfg: &PnwConfig, n: usize, i: usize) -> PnwConfig {
    let mut shard_cfg = cfg.clone();
    shard_cfg.capacity = split(cfg.capacity, n, i);
    shard_cfg.reserve_buckets = split(cfg.reserve_buckets, n, i);
    shard_cfg.shards = 1;
    shard_cfg.backing = BackingMode::Volatile;
    shard_cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn store_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedPnwStore>();
    }

    #[test]
    fn split_distributes_remainders() {
        let parts: Vec<usize> = (0..3).map(|i| split(10, 3, i)).collect();
        assert_eq!(parts, vec![4, 3, 3]);
        assert_eq!((0..4).map(|i| split(8, 4, i)).sum::<usize>(), 8);
        assert_eq!(split(0, 4, 0), 0);
    }

    #[test]
    fn basic_roundtrip_across_shards() {
        let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(4));
        assert_eq!(s.shard_count(), 4);
        for k in 0..32u64 {
            s.put(k, &[k as u8; 8]).unwrap();
        }
        assert_eq!(s.len(), 32);
        for k in 0..32u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), vec![k as u8; 8]);
        }
        assert!(s.delete(5).unwrap());
        assert!(!s.delete(5).unwrap());
        assert_eq!(s.get(5).unwrap(), None);
        assert_eq!(s.len(), 31);
    }

    #[test]
    fn shard_count_clamped_to_capacity() {
        let s = ShardedPnwStore::new(PnwConfig::new(2, 8).with_shards(16));
        assert_eq!(s.shard_count(), 2);
    }

    #[test]
    fn wrong_value_size_rejected_before_routing() {
        let s = ShardedPnwStore::new(PnwConfig::new(16, 8).with_shards(2));
        assert!(matches!(
            s.put(1, &[0u8; 3]),
            Err(PnwError::WrongValueSize { expected: 8, got: 3 })
        ));
    }

    /// A GET must complete while another thread holds the shard's engine
    /// lock for writing — the proof that the steady-state read path takes
    /// zero locks. (A locked read here would deadlock: the engine mutex is
    /// held by the *same* thread for the duration of the closure.)
    #[test]
    fn get_takes_no_lock_while_writer_holds_the_shard() {
        for placement in [
            crate::IndexPlacement::Dram,
            crate::IndexPlacement::Nvm,
        ] {
            let s = ShardedPnwStore::new(
                PnwConfig::new(32, 8)
                    .with_clusters(1)
                    .with_shards(1)
                    .with_index(placement),
            );
            s.put(7, &[0xAB; 8]).unwrap();
            let got = s.with_shard_write_held(0, || s.get(7).unwrap());
            assert_eq!(got.unwrap(), vec![0xAB; 8], "{placement:?}");
            let miss = s.with_shard_write_held(0, || s.get(8).unwrap());
            assert_eq!(miss, None);
        }
    }

    /// With `locked_reads` the GET path goes through the engine mutex —
    /// same results, used as the before/after benchmark baseline.
    #[test]
    fn locked_reads_fallback_matches() {
        let s = ShardedPnwStore::new(
            PnwConfig::new(32, 8)
                .with_clusters(1)
                .with_shards(2)
                .with_locked_reads(true),
        );
        for k in 0..16u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..16u64 {
            assert_eq!(s.get(k).unwrap().unwrap(), k.to_le_bytes());
        }
        assert_eq!(s.get(99).unwrap(), None);
    }

    /// A saturated shard queue rejects with `Backpressure` instead of
    /// convoying on the engine lock; the queued op completes once the
    /// writer releases.
    #[test]
    fn queue_backpressure_rejects_when_full() {
        let s = Arc::new(ShardedPnwStore::new(
            PnwConfig::new(64, 8)
                .with_clusters(1)
                .with_shards(1)
                .with_shard_queue_depth(1),
        ));
        let handles = s.with_shard_write_held(0, || {
            let hs: Vec<_> = (0..2u64)
                .map(|t| {
                    let s = Arc::clone(&s);
                    std::thread::spawn(move || s.put(100 + t, &[t as u8; 8]))
                })
                .collect();
            // Let both writers hit the contended path: one queues (depth
            // 1), the other must observe the full queue.
            std::thread::sleep(Duration::from_millis(100));
            hs
        });
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let rejected = results
            .iter()
            .filter(|r| matches!(r, Err(StoreError::Backpressure { shard: 0, depth: 1 })))
            .count();
        let applied = results.iter().filter(|r| r.is_ok()).count();
        assert_eq!(
            (applied, rejected),
            (1, 1),
            "one op queues and lands, one backs off: {results:?}"
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn merged_stats_are_the_sum_of_shard_stats() {
        let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(4));
        for k in 0..40u64 {
            s.put(k, &(k * 11).to_le_bytes()).unwrap();
        }
        for k in 0..10u64 {
            s.delete(k).unwrap();
        }
        let merged = s.device_stats();
        let manual = DeviceStats::merged(s.per_shard_device_stats().iter());
        assert_eq!(merged, manual);
        assert!(merged.totals.bit_flips > 0);
        // Bit-flip conservation: no shard's flips are lost or double
        // counted in the merge.
        let sum: u64 = s
            .per_shard_device_stats()
            .iter()
            .map(|d| d.totals.bit_flips)
            .sum();
        assert_eq!(merged.totals.bit_flips, sum);
    }

    #[test]
    fn retrain_relabels_every_shard() {
        let s = ShardedPnwStore::new(PnwConfig::new(64, 8).with_clusters(2).with_shards(2));
        for k in 0..32u64 {
            let v = if k % 2 == 0 { [0x00u8; 8] } else { [0xFFu8; 8] };
            s.put(k, &v).unwrap();
        }
        s.retrain_now().unwrap();
        assert!(s.is_trained());
        assert_eq!(s.retrains(), 1);
        let snap = s.snapshot();
        assert_eq!(snap.k, 2);
        assert_eq!(snap.live, 32);
    }

    #[test]
    fn background_retrain_swaps_on_finish() {
        let s = ShardedPnwStore::new(
            PnwConfig::new(64, 8)
                .with_clusters(2)
                .with_shards(2)
                .with_load_factor(0.25)
                .with_retrain(RetrainMode::Background),
        );
        for k in 0..48u64 {
            s.put(k, &(k * 7).to_le_bytes()).unwrap();
        }
        s.wait_for_retrain();
        assert!(s.is_trained());
        assert!(s.retrains() >= 1);
        // The store keeps serving after the swap.
        s.put(999, &[3u8; 8]).unwrap();
        assert_eq!(s.get(999).unwrap().unwrap(), vec![3u8; 8]);
    }

    #[test]
    fn background_retrain_does_not_block_zone_extension() {
        // Regression: extension must run on every due PUT even while a
        // background training run is pending — a shard with reserve left
        // must never report Full just because the maintenance flag is
        // held by an uninstalled retrain.
        let s = ShardedPnwStore::new(
            PnwConfig::new(32, 8)
                .with_clusters(2)
                .with_shards(1)
                .with_reserve(96)
                .with_load_factor(0.5)
                .with_retrain(RetrainMode::Background),
        );
        for k in 0..100u64 {
            s.put(k, &(k * 3).to_le_bytes())
                .expect("reserve must absorb every put");
        }
        assert!(s.snapshot().capacity > 32, "zone must have extended");
        s.wait_for_retrain();
        assert!(s.is_trained());
    }

    #[test]
    fn concurrent_puts_and_gets_smoke() {
        let s = Arc::new(ShardedPnwStore::new(
            PnwConfig::new(256, 8).with_clusters(2).with_shards(4),
        ));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let key = t * 1000 + i;
                    s.put(key, &key.to_le_bytes()).unwrap();
                    assert_eq!(s.get(key).unwrap().unwrap(), key.to_le_bytes().to_vec());
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 200);
    }

    /// Batched apply on the sharded store must be semantically identical
    /// to issuing the same ops one by one — same final contents, same
    /// counters — while taking each shard lock once per batch.
    #[test]
    fn apply_equals_per_op_across_shards() {
        let cfg = PnwConfig::new(128, 8).with_clusters(2).with_shards(4);
        let batched = ShardedPnwStore::new(cfg.clone());
        let per_op = ShardedPnwStore::new(cfg);

        let mut batch = crate::Batch::new();
        for k in 0..48u64 {
            batch.put(k, &[(k % 7) as u8; 8]);
        }
        for k in (0..48u64).step_by(4) {
            batch.delete(k);
        }
        for k in 0..8u64 {
            batch.put(k, &[0xCC; 8]);
        }
        let r = batched.apply(&batch);
        assert!(r.all_ok());
        assert_eq!(r.puts, 56);
        assert_eq!(r.deleted_existing, 12);
        assert!(r.write_stats.bit_flips > 0);
        assert!(
            !r.predict_samples.is_empty(),
            "batched rows must carry sampled prediction latencies"
        );

        for op in batch.ops() {
            match op {
                crate::Op::Put { key, value } => {
                    per_op.put(*key, value).unwrap();
                }
                crate::Op::Delete { key } => {
                    per_op.delete(*key).unwrap();
                }
            }
        }
        assert_eq!(batched.len(), per_op.len());
        assert_eq!(batched.device_stats(), per_op.device_stats());
        for k in 0..48u64 {
            assert_eq!(batched.get(k).unwrap(), per_op.get(k).unwrap(), "key {k}");
        }
        let (sa, sb) = (batched.snapshot(), per_op.snapshot());
        assert_eq!(sa.puts, sb.puts);
        assert_eq!(sa.deletes, sb.deletes);
        assert_eq!(sa.free, sb.free);
    }

    #[test]
    fn apply_reports_failures_with_batch_indices() {
        let s = ShardedPnwStore::new(PnwConfig::new(4, 8).with_clusters(1).with_shards(2));
        let mut batch = crate::Batch::new();
        for k in 0..8u64 {
            batch.put(k, &[k as u8; 8]); // only 4 fit
        }
        batch.put(99, &[0; 3]); // wrong size, index 8
        let r = s.apply(&batch);
        assert_eq!(r.puts, 4);
        assert_eq!(r.failures.len(), 5);
        // Failure indices are sorted by batch position despite shard
        // grouping, and the wrong-size op is reported as such.
        assert!(r.failures.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(matches!(
            r.failures.last().unwrap(),
            (8, PnwError::WrongValueSize { .. })
        ));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn concurrent_batches_and_reads_smoke() {
        let s = Arc::new(ShardedPnwStore::new(
            PnwConfig::new(512, 8).with_clusters(2).with_shards(4),
        ));
        let mut handles = Vec::new();
        for t in 0..3u64 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut batch = crate::Batch::with_capacity(16);
                for round in 0..4u64 {
                    batch.clear();
                    for i in 0..16u64 {
                        let key = t * 1000 + round * 16 + i;
                        batch.put(key, &key.to_le_bytes());
                    }
                    let r = s.apply(&batch);
                    assert!(r.all_ok(), "{:?}", r.failures);
                    for i in 0..16u64 {
                        let key = t * 1000 + round * 16 + i;
                        assert_eq!(s.get(key).unwrap().unwrap(), key.to_le_bytes());
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), 3 * 64);
    }

    #[test]
    fn durable_sharded_store_round_trips_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pnw_sharded_{}_rt", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = PnwConfig::new(64, 8)
            .with_clusters(2)
            .with_shards(4)
            .with_seed(7);
        {
            let s = ShardedPnwStore::open(cfg.clone().with_path(&dir)).unwrap();
            assert!(s.is_durable());
            assert_eq!(s.shard_count(), 4);
            for k in 0..32u64 {
                s.put(k, &(k * 5).to_le_bytes()).unwrap();
            }
            assert!(s.delete(7).unwrap());
            s.close().unwrap();
        }
        let s = ShardedPnwStore::open(cfg.with_path(&dir)).unwrap();
        assert_eq!(s.len(), 31);
        assert_eq!(s.get(7).unwrap(), None);
        for k in (0..32u64).filter(|&k| k != 7) {
            assert_eq!(s.get(k).unwrap().unwrap(), (k * 5).to_le_bytes());
        }
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_wear_cdf_covers_all_shards() {
        let s = ShardedPnwStore::new(PnwConfig::new(32, 8).with_clusters(1).with_shards(4));
        for k in 0..24u64 {
            s.put(k, &(!k).to_le_bytes()).unwrap();
        }
        let cdf = s.word_wear_cdf();
        // Population = every data-zone word of every shard: 32 buckets ×
        // 3 words (16 B header + 8 B value).
        assert_eq!(cdf.population, 32 * 3);
        assert!(cdf.max() >= 1);
    }
}
