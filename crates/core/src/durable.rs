//! The durable metadata layer under file-backed stores: superblock, WAL,
//! checkpoint.
//!
//! A file-backed store keeps its cell arrays durable through the device's
//! write-through backing (`pnw-nvm-sim`'s [`pnw_nvm_sim::DeviceBacking`]),
//! but the cell array alone cannot answer "which operations were
//! *acknowledged*?" after a kill — a torn bucket write leaves a header that
//! looks valid while the value behind it is a prefix. This module adds the
//! three small files that make recovery decidable:
//!
//! * **superblock** (`super`) — two replicated 64-byte slots; each holds a
//!   CRC-framed record naming the current epoch and the checkpoint epoch to
//!   recover from. Writers alternate slots by epoch parity, so a torn
//!   superblock write can only corrupt the slot being written — the other
//!   replica still elects.
//! * **write-ahead log** (`wal.<shard>`) — an append-only stream of
//!   CRC-framed records, one per acknowledged mutation (PUT, DELETE, zone
//!   extension). A record is appended and fsynced *after* the data write
//!   lands and *before* the operation returns: the WAL suffix over the
//!   checkpoint is exactly the set of acknowledged-but-not-yet-checkpointed
//!   ops. Replay stops at the first torn/invalid frame — everything after
//!   it was never acknowledged.
//! * **checkpoint** (`checkpoint.<epoch>`) — a CRC-trailed snapshot of each
//!   shard's committed key→address map, active-zone size and device
//!   counters. Written to `checkpoint.tmp`, fsynced, renamed, and only then
//!   published by bumping the superblock epoch — the referenced checkpoint
//!   is therefore always complete, and a crash at any byte of the protocol
//!   falls back to the previous epoch plus the untruncated WAL.
//!
//! All three write sites route through a shared
//! [`FaultState::filter_meta_write`] so the recovery tests can land a
//! deterministic tear in any of them (see
//! [`pnw_nvm_sim::MetaTarget`]).

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use pnw_nvm_sim::{crc32, DeviceStats, FaultConfig, FaultState, MetaTarget, MetaTear, NvmError};

use crate::config::{IndexPlacement, PnwConfig};
use crate::error::StoreError;

const SUPER_MAGIC: &[u8; 8] = b"PNWSUPR1";
const CKPT_MAGIC: &[u8; 8] = b"PNWCKPT1";
const FORMAT_VERSION: u32 = 2;
/// Each superblock replica owns a 64-byte slot (the record is 44 bytes;
/// the slot is padded so the two replicas never share a filesystem block
/// boundary misaligned with the write).
const SLOT_BYTES: u64 = 64;
const SUPER_RECORD: usize = 44;
/// `[len u32 | crc u32]` ahead of every WAL payload.
const WAL_FRAME_HDR: usize = 8;
/// Largest fixed-size WAL payload (the value-carrying PUT record adds the
/// store's `value_size` on top — see [`DurableStore::open`]'s
/// `value_size` parameter). Anything bigger than the store's maximum is
/// framing garbage and ends replay.
const MAX_WAL_PAYLOAD: usize = 17;
/// Fixed prefix of a [`REC_PUT_V`] payload: `tag | key u64 | addr u64`.
const PUT_V_PREFIX: usize = 17;

const REC_PUT: u8 = 1;
const REC_DELETE: u8 = 2;
const REC_EXTEND: u8 = 3;
/// A bucket permanently retired from placement (stuck media). 5 bytes:
/// `tag | bucket u32`.
const REC_RETIRE: u8 = 4;
/// A PUT that also carries the value bytes (written when end-to-end
/// integrity is on), so the scrubber can repair a later media corruption
/// from the WAL. `tag | key u64 | addr u64 | value[value_size]`.
const REC_PUT_V: u8 = 5;

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Nvm(NvmError::Io(e.kind()))
}

fn crashed() -> StoreError {
    StoreError::Nvm(NvmError::Crashed)
}

fn corrupt(msg: impl Into<String>) -> StoreError {
    StoreError::Corrupt(msg.into())
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Hashes the geometry-determining config fields. A store directory
/// written under one geometry must not be opened under another: the data
/// files would parse but every address would be wrong. The hash covers
/// exactly the fields that fix bucket addresses and file sizes.
pub(crate) fn geometry_hash(cfg: &PnwConfig, n_shards: usize) -> u64 {
    let mut h = 0xD6E8_FEB8_6659_FD93u64;
    for v in [
        cfg.capacity as u64,
        cfg.value_size as u64,
        cfg.reserve_buckets as u64,
        n_shards as u64,
        match cfg.index {
            IndexPlacement::Dram => 0,
            IndexPlacement::Nvm => 1,
        },
        // The expiry zone changes the device size and every region
        // offset after it, so TTL-on and TTL-off directories are
        // mutually unreadable.
        u64::from(cfg.ttl_enabled),
    ] {
        h = splitmix(h ^ v);
    }
    h
}

/// One shard's contribution to a checkpoint: everything recovery needs
/// that the data file alone cannot prove.
#[derive(Debug, Clone)]
pub(crate) struct ShardCheckpoint {
    /// Buckets in the active data zone at the cut.
    pub active: u64,
    /// Committed `(key, device address)` pairs at the cut.
    pub entries: Vec<(u64, u64)>,
    /// Device counters at the cut (persisted so wear/endurance metrics
    /// survive restarts).
    pub stats: DeviceStats,
    /// Per-word wear counters (empty on a fresh store).
    pub word_writes: Vec<u32>,
    /// Per-bit wear counters, when the device tracks them.
    pub bit_flips: Option<Vec<u16>>,
    /// Buckets permanently retired from placement at the cut (sorted).
    /// Retirement must survive reopen: a retired bucket's media is stuck
    /// and must never re-enter the pool.
    pub retired: Vec<u32>,
}

impl ShardCheckpoint {
    /// The checkpoint a freshly-initialized shard starts from: nothing
    /// committed, `active` buckets live, zeroed counters.
    pub fn fresh(active: u64) -> Self {
        ShardCheckpoint {
            active,
            entries: Vec::new(),
            stats: DeviceStats::default(),
            word_writes: Vec::new(),
            bit_flips: None,
            retired: Vec::new(),
        }
    }
}

/// One shard's recovered state: the checkpoint image with the WAL suffix
/// replayed over it.
#[derive(Debug, Clone)]
pub(crate) struct RecoveredShard {
    /// The committed key→address map after replay. Every key in here was
    /// acknowledged; no key outside it was.
    pub committed: HashMap<u64, u64>,
    /// Active-zone size after replay.
    pub active: u64,
    /// Device counters as of the checkpoint cut.
    pub stats: DeviceStats,
    /// Per-word wear as of the checkpoint cut (empty on a fresh store).
    pub word_writes: Vec<u32>,
    /// Per-bit wear as of the checkpoint cut.
    pub bit_flips: Option<Vec<u16>>,
    /// Buckets permanently retired from placement (checkpoint list plus
    /// any [`REC_RETIRE`] records in the WAL suffix).
    pub retired: Vec<u32>,
    /// Committed values still present in the un-truncated WAL — the
    /// scrubber's repair source. Handed to the shard's fresh
    /// [`DurableShard`] via [`DurableShard::preload_values`] so repair
    /// capability survives a reopen.
    pub values: HashMap<u64, Vec<u8>>,
}

impl RecoveredShard {
    fn from_checkpoint(s: ShardCheckpoint) -> Self {
        RecoveredShard {
            committed: s.entries.into_iter().collect(),
            active: s.active,
            stats: s.stats,
            word_writes: s.word_writes,
            bit_flips: s.bit_flips,
            retired: s.retired,
            values: HashMap::new(),
        }
    }
}

/// A shard's handle on its WAL: an `O_APPEND` file plus the store-wide
/// fault state. Appending a record is the *commit point* of every durable
/// mutation.
#[derive(Debug)]
pub(crate) struct DurableShard {
    wal: File,
    faults: Arc<Mutex<FaultState>>,
    /// Group-commit mode: appends write their frame but defer the fsync
    /// to [`DurableShard::end_group`], coalescing a whole batch group
    /// into one `sync_data` per shard.
    defer_sync: bool,
    /// Whether frames were appended since the last fsync.
    dirty: bool,
    /// Largest payload this shard's WAL may carry (`PUT_V_PREFIX` plus
    /// the store's value size).
    max_payload: usize,
    /// DRAM mirror of the value-carrying records currently in the WAL —
    /// what the scrubber repairs corrupt buckets from. Cleared when a
    /// checkpoint truncates the WAL.
    values: HashMap<u64, Vec<u8>>,
}

impl DurableShard {
    /// Enters group-commit mode: subsequent appends write their frames
    /// immediately but defer the fsync to [`DurableShard::end_group`].
    /// Nothing appended inside the group is acknowledged until the group
    /// ends — callers must not return success to their client in between.
    pub fn begin_group(&mut self) {
        self.defer_sync = true;
    }

    /// Leaves group-commit mode and fsyncs everything appended since the
    /// last sync — the commit point of the whole group (one `sync_data`
    /// per shard group instead of one per record).
    pub fn end_group(&mut self) -> Result<(), StoreError> {
        self.defer_sync = false;
        if std::mem::take(&mut self.dirty) {
            self.wal.sync_data().map_err(io_err)?;
        }
        Ok(())
    }
    /// Commits a PUT/UPDATE of `key` at device address `addr`.
    pub fn log_put(&mut self, key: u64, addr: u64) -> Result<(), StoreError> {
        let mut p = [0u8; 17];
        p[0] = REC_PUT;
        p[1..9].copy_from_slice(&key.to_le_bytes());
        p[9..17].copy_from_slice(&addr.to_le_bytes());
        self.values.remove(&key);
        self.append(&p)
    }

    /// Commits a PUT/UPDATE of `key` at `addr` *with* the value bytes, so
    /// a later media corruption of this bucket can be repaired from the
    /// WAL. Written instead of [`DurableShard::log_put`] when integrity
    /// verification is on.
    pub fn log_put_value(&mut self, key: u64, addr: u64, value: &[u8]) -> Result<(), StoreError> {
        let mut p = Vec::with_capacity(PUT_V_PREFIX + value.len());
        p.push(REC_PUT_V);
        p.extend_from_slice(&key.to_le_bytes());
        p.extend_from_slice(&addr.to_le_bytes());
        p.extend_from_slice(value);
        self.append(&p)?;
        self.values.insert(key, value.to_vec());
        Ok(())
    }

    /// Commits a bucket retirement: `bucket` must never re-enter
    /// placement, across crashes and reopens.
    pub fn log_retire(&mut self, bucket: u32) -> Result<(), StoreError> {
        let mut p = [0u8; 5];
        p[0] = REC_RETIRE;
        p[1..5].copy_from_slice(&bucket.to_le_bytes());
        self.append(&p)
    }

    /// The clean durable copy of `key`'s committed value, when the
    /// un-truncated WAL still holds one.
    pub fn wal_value(&self, key: u64) -> Option<&[u8]> {
        self.values.get(&key).map(Vec::as_slice)
    }

    /// Seeds the value mirror from a recovery replay (the WAL was not
    /// truncated, so its value records are still repair-capable).
    pub fn preload_values(&mut self, values: HashMap<u64, Vec<u8>>) {
        self.values = values;
    }

    /// Drops the value mirror after a checkpoint truncated the WAL.
    pub fn clear_values(&mut self) {
        self.values.clear();
        self.values.shrink_to_fit();
    }

    /// Commits a DELETE of `key`.
    pub fn log_delete(&mut self, key: u64) -> Result<(), StoreError> {
        let mut p = [0u8; 9];
        p[0] = REC_DELETE;
        p[1..9].copy_from_slice(&key.to_le_bytes());
        self.values.remove(&key);
        self.append(&p)
    }

    /// Commits a zone extension to `active` buckets.
    pub fn log_extend(&mut self, active: u64) -> Result<(), StoreError> {
        let mut p = [0u8; 9];
        p[0] = REC_EXTEND;
        p[1..9].copy_from_slice(&active.to_le_bytes());
        self.append(&p)
    }

    /// Appends one CRC-framed record and fsyncs it. A torn append persists
    /// the configured prefix (which replay will reject) and returns
    /// `Crashed`; the caller must not acknowledge the operation.
    fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        debug_assert!(payload.len() <= self.max_payload);
        let len = WAL_FRAME_HDR + payload.len();
        let mut frame = Vec::with_capacity(len);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let filtered = self
            .faults
            .lock()
            .unwrap()
            .filter_meta_write(MetaTarget::Wal, len)
            .map_err(|_| crashed())?;
        match filtered {
            None => {
                self.wal.write_all(&frame[..len]).map_err(io_err)?;
                if self.defer_sync {
                    self.dirty = true;
                } else {
                    self.wal.sync_data().map_err(io_err)?;
                }
                Ok(())
            }
            Some(keep) => {
                // The tear: a prefix of the frame reaches the file, then
                // the store is dead. Best-effort persist of the prefix —
                // recovery must survive it either way.
                let _ = self.wal.write_all(&frame[..keep]);
                let _ = self.wal.sync_data();
                Err(crashed())
            }
        }
    }
}

fn encode_superblock(epoch: u64, checkpoint_epoch: u64, geometry: u64) -> [u8; SUPER_RECORD] {
    let mut b = [0u8; SUPER_RECORD];
    b[0..8].copy_from_slice(SUPER_MAGIC);
    b[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    // b[12..16] reserved, zero.
    b[16..24].copy_from_slice(&epoch.to_le_bytes());
    b[24..32].copy_from_slice(&checkpoint_epoch.to_le_bytes());
    b[32..40].copy_from_slice(&geometry.to_le_bytes());
    let crc = crc32(&b[..40]);
    b[40..44].copy_from_slice(&crc.to_le_bytes());
    b
}

/// Parses one superblock slot; `None` when the slot is torn, stale-format
/// or never written. Returns `(epoch, checkpoint_epoch, geometry_hash)`.
fn parse_super_slot(slot: &[u8]) -> Option<(u64, u64, u64)> {
    if slot.len() < SUPER_RECORD || &slot[0..8] != SUPER_MAGIC {
        return None;
    }
    if u32::from_le_bytes(slot[8..12].try_into().unwrap()) != FORMAT_VERSION {
        return None;
    }
    let crc = u32::from_le_bytes(slot[40..44].try_into().unwrap());
    if crc32(&slot[..40]) != crc {
        return None;
    }
    Some((
        u64::from_le_bytes(slot[16..24].try_into().unwrap()),
        u64::from_le_bytes(slot[24..32].try_into().unwrap()),
        u64::from_le_bytes(slot[32..40].try_into().unwrap()),
    ))
}

/// Replays a WAL byte stream over a recovered shard. Stops at the first
/// frame that is short, oversized, CRC-invalid or of unknown kind — by the
/// append protocol, everything at and after such a frame was never
/// acknowledged.
fn replay_wal(bytes: &[u8], shard: &mut RecoveredShard, max_payload: usize) {
    let mut pos = 0usize;
    while pos + WAL_FRAME_HDR <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len == 0 || len > max_payload || pos + WAL_FRAME_HDR + len > bytes.len() {
            return;
        }
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        let payload = &bytes[pos + WAL_FRAME_HDR..pos + WAL_FRAME_HDR + len];
        if crc32(payload) != crc {
            return;
        }
        match (payload[0], len) {
            (REC_PUT, 17) => {
                let key = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                let addr = u64::from_le_bytes(payload[9..17].try_into().unwrap());
                shard.committed.insert(key, addr);
                shard.values.remove(&key);
            }
            (REC_PUT_V, n) if n > PUT_V_PREFIX => {
                let key = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                let addr = u64::from_le_bytes(payload[9..17].try_into().unwrap());
                shard.committed.insert(key, addr);
                shard.values.insert(key, payload[PUT_V_PREFIX..].to_vec());
            }
            (REC_DELETE, 9) => {
                let key = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                shard.committed.remove(&key);
                shard.values.remove(&key);
            }
            (REC_RETIRE, 5) => {
                let bucket = u32::from_le_bytes(payload[1..5].try_into().unwrap());
                if !shard.retired.contains(&bucket) {
                    shard.retired.push(bucket);
                }
            }
            (REC_EXTEND, 9) => {
                let active = u64::from_le_bytes(payload[1..9].try_into().unwrap());
                // `max`: replay over a checkpoint that already includes the
                // extension must not shrink the zone.
                shard.active = shard.active.max(active);
            }
            _ => return,
        }
        pos += WAL_FRAME_HDR + len;
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.b.len() {
            return Err(corrupt("checkpoint truncated"));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn encode_checkpoint(epoch: u64, shards: &[ShardCheckpoint]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(CKPT_MAGIC);
    b.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    b.extend_from_slice(&(shards.len() as u32).to_le_bytes());
    b.extend_from_slice(&epoch.to_le_bytes());
    for s in shards {
        b.extend_from_slice(&s.active.to_le_bytes());
        let t = &s.stats.totals;
        for v in [
            t.bit_flips,
            t.aux_bit_flips,
            t.bits_addressed,
            t.words_written,
            t.lines_written,
            t.lines_read,
            s.stats.write_ops,
            s.stats.read_ops,
            s.stats.bytes_read,
        ] {
            b.extend_from_slice(&v.to_le_bytes());
        }
        b.extend_from_slice(&(s.word_writes.len() as u64).to_le_bytes());
        for w in &s.word_writes {
            b.extend_from_slice(&w.to_le_bytes());
        }
        match &s.bit_flips {
            None => b.push(0),
            Some(bits) => {
                b.push(1);
                b.extend_from_slice(&(bits.len() as u64).to_le_bytes());
                for v in bits {
                    b.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        b.extend_from_slice(&(s.entries.len() as u64).to_le_bytes());
        for (k, a) in &s.entries {
            b.extend_from_slice(&k.to_le_bytes());
            b.extend_from_slice(&a.to_le_bytes());
        }
        b.extend_from_slice(&(s.retired.len() as u64).to_le_bytes());
        for r in &s.retired {
            b.extend_from_slice(&r.to_le_bytes());
        }
    }
    let crc = crc32(&b);
    b.extend_from_slice(&crc.to_le_bytes());
    b
}

fn decode_checkpoint(body: &[u8], expect_epoch: u64) -> Result<Vec<ShardCheckpoint>, StoreError> {
    if body.len() < 4 {
        return Err(corrupt("checkpoint shorter than its CRC trailer"));
    }
    let (payload, trailer) = body.split_at(body.len() - 4);
    let crc = u32::from_le_bytes(trailer.try_into().unwrap());
    if crc32(payload) != crc {
        return Err(corrupt("checkpoint CRC mismatch"));
    }
    let mut c = Cursor { b: payload, pos: 0 };
    if c.take(8)? != CKPT_MAGIC {
        return Err(corrupt("checkpoint magic mismatch"));
    }
    if c.u32()? != FORMAT_VERSION {
        return Err(corrupt("checkpoint format version mismatch"));
    }
    let n_shards = c.u32()? as usize;
    let epoch = c.u64()?;
    if epoch != expect_epoch {
        return Err(corrupt(format!(
            "checkpoint epoch {epoch} does not match superblock epoch {expect_epoch}"
        )));
    }
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let active = c.u64()?;
        let vals: Vec<u64> = (0..9).map(|_| c.u64()).collect::<Result<_, _>>()?;
        let stats = DeviceStats {
            totals: pnw_nvm_sim::WriteStats {
                bit_flips: vals[0],
                aux_bit_flips: vals[1],
                bits_addressed: vals[2],
                words_written: vals[3],
                lines_written: vals[4],
                lines_read: vals[5],
            },
            write_ops: vals[6],
            read_ops: vals[7],
            bytes_read: vals[8],
        };
        let n_words = c.u64()? as usize;
        let mut word_writes = Vec::with_capacity(n_words.min(payload.len()));
        for _ in 0..n_words {
            word_writes.push(c.u32()?);
        }
        let bit_flips = match c.u8()? {
            0 => None,
            1 => {
                let n = c.u64()? as usize;
                let mut bits = Vec::with_capacity(n.min(payload.len()));
                for _ in 0..n {
                    bits.push(u16::from_le_bytes(c.take(2)?.try_into().unwrap()));
                }
                Some(bits)
            }
            _ => return Err(corrupt("checkpoint bit-wear flag out of range")),
        };
        let n_entries = c.u64()? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(payload.len()));
        for _ in 0..n_entries {
            let k = c.u64()?;
            let a = c.u64()?;
            entries.push((k, a));
        }
        let n_retired = c.u64()? as usize;
        let mut retired = Vec::with_capacity(n_retired.min(payload.len()));
        for _ in 0..n_retired {
            retired.push(c.u32()?);
        }
        shards.push(ShardCheckpoint {
            active,
            entries,
            stats,
            word_writes,
            bit_flips,
            retired,
        });
    }
    Ok(shards)
}

/// The store-level durability controller: owns the directory layout, the
/// superblock epoch and the shared fault state; hands out per-shard WAL
/// appenders.
#[derive(Debug)]
pub(crate) struct DurableStore {
    dir: PathBuf,
    n_shards: usize,
    epoch: u64,
    checkpoint_epoch: u64,
    geometry_hash: u64,
    /// Largest legal WAL payload under this store's value size.
    max_payload: usize,
    faults: Arc<Mutex<FaultState>>,
}

impl DurableStore {
    /// Opens (or initializes) the durable directory.
    ///
    /// `initial` describes each shard's fresh state (one entry per shard —
    /// its length fixes the shard count) and is used only when the
    /// directory has never been initialized; on a recovery open the
    /// returned [`RecoveredShard`]s carry the checkpoint state with the
    /// WAL suffix replayed over it. The `bool` is `true` for a fresh
    /// initialization.
    pub fn open(
        dir: &Path,
        geometry_hash: u64,
        value_size: usize,
        initial: Vec<ShardCheckpoint>,
    ) -> Result<(Self, Vec<RecoveredShard>, bool), StoreError> {
        fs::create_dir_all(dir).map_err(io_err)?;
        let n_shards = initial.len();
        let max_payload = MAX_WAL_PAYLOAD.max(PUT_V_PREFIX + value_size);
        let faults = Arc::new(Mutex::new(FaultState::new(FaultConfig::default())));
        let super_path = dir.join("super");

        if !super_path.exists() {
            let mut store = DurableStore {
                dir: dir.to_path_buf(),
                n_shards,
                epoch: 0,
                checkpoint_epoch: 0,
                geometry_hash,
                max_payload,
                faults,
            };
            store.checkpoint(&initial)?;
            let recovered = initial.into_iter().map(RecoveredShard::from_checkpoint).collect();
            return Ok((store, recovered, true));
        }

        let raw = fs::read(&super_path).map_err(io_err)?;
        let mut slots = [0u8; 2 * SLOT_BYTES as usize];
        let n = raw.len().min(slots.len());
        slots[..n].copy_from_slice(&raw[..n]);
        let best = [
            parse_super_slot(&slots[..SLOT_BYTES as usize]),
            parse_super_slot(&slots[SLOT_BYTES as usize..]),
        ]
        .into_iter()
        .flatten()
        .max_by_key(|(epoch, _, _)| *epoch);
        let Some((epoch, checkpoint_epoch, geom)) = best else {
            return Err(corrupt("no valid superblock replica"));
        };
        if geom != geometry_hash {
            return Err(corrupt(
                "store directory was written under a different geometry",
            ));
        }

        let ckpt_path = dir.join(format!("checkpoint.{checkpoint_epoch}"));
        let body = fs::read(&ckpt_path)
            .map_err(|_| corrupt(format!("referenced checkpoint.{checkpoint_epoch} unreadable")))?;
        let shards = decode_checkpoint(&body, checkpoint_epoch)?;
        if shards.len() != n_shards {
            return Err(corrupt(format!(
                "checkpoint has {} shards, store expects {n_shards}",
                shards.len()
            )));
        }
        let mut recovered: Vec<RecoveredShard> =
            shards.into_iter().map(RecoveredShard::from_checkpoint).collect();
        for (sid, shard) in recovered.iter_mut().enumerate() {
            let wal = fs::read(dir.join(format!("wal.{sid}"))).unwrap_or_default();
            replay_wal(&wal, shard, max_payload);
        }

        // Clean up protocol leftovers: a half-written `checkpoint.tmp` and
        // any checkpoint the superblock does not reference (a new epoch
        // whose superblock bump tore). WALs are NOT truncated here —
        // replay is idempotent and truncation belongs to the checkpoint
        // protocol.
        let _ = fs::remove_file(dir.join("checkpoint.tmp"));
        if let Ok(rd) = fs::read_dir(dir) {
            for entry in rd.flatten() {
                let name = entry.file_name().to_string_lossy().into_owned();
                if let Some(suffix) = name.strip_prefix("checkpoint.") {
                    if suffix.parse::<u64>().map(|e| e != checkpoint_epoch).unwrap_or(false) {
                        let _ = fs::remove_file(entry.path());
                    }
                }
            }
        }

        Ok((
            DurableStore {
                dir: dir.to_path_buf(),
                n_shards,
                epoch,
                checkpoint_epoch,
                geometry_hash,
                max_payload,
                faults,
            },
            recovered,
            false,
        ))
    }

    /// Cuts a checkpoint: write-new → fsync → rename → superblock bump →
    /// WAL truncation. The caller must have synced the shard data devices
    /// first and must hold out writers for the duration of the state
    /// collection (the store does both).
    pub fn checkpoint(&mut self, shards: &[ShardCheckpoint]) -> Result<(), StoreError> {
        assert_eq!(shards.len(), self.n_shards, "one checkpoint entry per shard");
        let new_epoch = self.epoch + 1;
        let body = encode_checkpoint(new_epoch, shards);
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp).map_err(io_err)?;
            match self.filter(MetaTarget::Checkpoint, body.len())? {
                None => {
                    f.write_all(&body).map_err(io_err)?;
                    f.sync_all().map_err(io_err)?;
                }
                Some(keep) => {
                    let _ = f.write_all(&body[..keep]);
                    let _ = f.sync_all();
                    return Err(crashed());
                }
            }
        }
        fs::rename(&tmp, self.dir.join(format!("checkpoint.{new_epoch}"))).map_err(io_err)?;
        // The commit point: until this superblock write lands, recovery
        // elects the old epoch (old checkpoint + still-untruncated WAL).
        self.write_superblock(new_epoch, new_epoch)?;
        let old = self.checkpoint_epoch;
        self.epoch = new_epoch;
        self.checkpoint_epoch = new_epoch;
        for sid in 0..self.n_shards {
            let f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(false)
                .open(self.wal_path(sid))
                .map_err(io_err)?;
            f.set_len(0).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        if old != 0 && old != new_epoch {
            let _ = fs::remove_file(self.dir.join(format!("checkpoint.{old}")));
        }
        Ok(())
    }

    fn write_superblock(&self, epoch: u64, checkpoint_epoch: u64) -> Result<(), StoreError> {
        let record = encode_superblock(epoch, checkpoint_epoch, self.geometry_hash);
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join("super"))
            .map_err(io_err)?;
        if f.metadata().map_err(io_err)?.len() < 2 * SLOT_BYTES {
            f.set_len(2 * SLOT_BYTES).map_err(io_err)?;
        }
        let off = (epoch % 2) * SLOT_BYTES;
        match self.filter(MetaTarget::Superblock, SUPER_RECORD)? {
            None => {
                f.write_all_at(&record, off).map_err(io_err)?;
                f.sync_all().map_err(io_err)?;
                Ok(())
            }
            Some(keep) => {
                let _ = f.write_all_at(&record[..keep], off);
                let _ = f.sync_all();
                Err(crashed())
            }
        }
    }

    fn filter(&self, target: MetaTarget, len: usize) -> Result<Option<usize>, StoreError> {
        self.faults
            .lock()
            .unwrap()
            .filter_meta_write(target, len)
            .map_err(|_| crashed())
    }

    /// Path of shard `sid`'s device backing file.
    pub fn data_path(&self, sid: usize) -> PathBuf {
        self.dir.join(format!("data.{sid}"))
    }

    fn wal_path(&self, sid: usize) -> PathBuf {
        self.dir.join(format!("wal.{sid}"))
    }

    /// Opens shard `sid`'s WAL for appending and couples it to the
    /// store-wide fault state.
    pub fn wal_appender(&self, sid: usize) -> Result<DurableShard, StoreError> {
        let wal = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.wal_path(sid))
            .map_err(io_err)?;
        Ok(DurableShard {
            wal,
            faults: Arc::clone(&self.faults),
            defer_sync: false,
            dirty: false,
            max_payload: self.max_payload,
            values: HashMap::new(),
        })
    }

    /// Arms a deterministic metadata tear (test hook).
    pub fn arm_meta_tear(&self, tear: MetaTear) {
        self.faults.lock().unwrap().arm_meta_tear(tear);
    }

    /// Current superblock epoch.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pnw_durable_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_stats() -> DeviceStats {
        let mut s = DeviceStats::default();
        s.record_write(&pnw_nvm_sim::WriteStats {
            bit_flips: 10,
            aux_bit_flips: 1,
            bits_addressed: 64,
            words_written: 2,
            lines_written: 1,
            lines_read: 1,
        });
        s.record_read(32);
        s
    }

    #[test]
    fn fresh_open_then_reopen_is_empty() {
        let dir = tmp("fresh");
        let (store, rec, fresh) =
            DurableStore::open(&dir, 42, 8, vec![ShardCheckpoint::fresh(8)]).unwrap();
        assert!(fresh);
        assert_eq!(store.epoch(), 1);
        assert!(rec[0].committed.is_empty());
        assert_eq!(rec[0].active, 8);
        drop(store);
        let (store, rec, fresh) =
            DurableStore::open(&dir, 42, 8, vec![ShardCheckpoint::fresh(8)]).unwrap();
        assert!(!fresh);
        assert_eq!(store.epoch(), 1);
        assert!(rec[0].committed.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_replays_over_checkpoint() {
        let dir = tmp("replay");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(1, 100).unwrap();
        wal.log_put(2, 200).unwrap();
        wal.log_delete(1).unwrap();
        wal.log_put(1, 300).unwrap();
        wal.log_extend(6).unwrap();
        drop((wal, store));

        let (store, rec, fresh) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert!(!fresh);
        assert_eq!(rec[0].active, 6);
        assert_eq!(rec[0].committed.len(), 2);
        assert_eq!(rec[0].committed[&1], 300);
        assert_eq!(rec[0].committed[&2], 200);
        let _ = (store, fs::remove_dir_all(&dir));
    }

    #[test]
    fn checkpoint_truncates_wal_and_round_trips_state() {
        let dir = tmp("ckpt");
        let (mut store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(9, 900).unwrap();
        store
            .checkpoint(&[ShardCheckpoint {
                active: 6,
                entries: vec![(9, 900)],
                stats: sample_stats(),
                word_writes: vec![3, 0, 1],
                bit_flips: Some(vec![1, 2]),
                retired: Vec::new(),
            }])
            .unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(fs::metadata(dir.join("wal.0")).unwrap().len(), 0);
        assert!(!dir.join("checkpoint.1").exists(), "old epoch removed");
        drop((wal, store));

        let (store, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(rec[0].active, 6);
        assert_eq!(rec[0].committed[&9], 900);
        assert_eq!(rec[0].stats, sample_stats());
        assert_eq!(rec[0].word_writes, vec![3, 0, 1]);
        assert_eq!(rec[0].bit_flips, Some(vec![1, 2]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_replays_like_per_record_commit() {
        let dir = tmp("group");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.begin_group();
        wal.log_put(1, 100).unwrap();
        wal.log_put(2, 200).unwrap();
        wal.log_delete(1).unwrap();
        wal.end_group().unwrap();
        // A second group on the same appender works too.
        wal.begin_group();
        wal.log_put(3, 300).unwrap();
        wal.end_group().unwrap();
        drop((wal, store));

        let (_, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].committed.len(), 2);
        assert_eq!(rec[0].committed[&2], 200);
        assert_eq!(rec[0].committed[&3], 300);
        assert!(!rec[0].committed.contains_key(&1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_append_inside_group_still_fails_immediately() {
        let dir = tmp("group_tear");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.begin_group();
        wal.log_put(1, 100).unwrap();
        store.arm_meta_tear(MetaTear {
            target: MetaTarget::Wal,
            skip: 0,
            keep_bytes: 5,
        });
        // The fault filter still runs at append time, not at the group
        // fsync — a torn record surfaces on the op that wrote it.
        assert!(wal.log_put(2, 200).is_err());
        drop((wal, store));

        let (_, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].committed.len(), 1, "prefix before the tear replays");
        assert_eq!(rec[0].committed[&1], 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_wal_record_ends_replay_at_prefix() {
        let dir = tmp("torn_wal");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(1, 100).unwrap();
        store.arm_meta_tear(MetaTear {
            target: MetaTarget::Wal,
            skip: 0,
            keep_bytes: 11,
        });
        assert!(wal.log_put(2, 200).is_err(), "torn append is unacknowledged");
        assert!(wal.log_put(3, 300).is_err(), "store is dead after the tear");
        drop((wal, store));

        let (_, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].committed.len(), 1);
        assert_eq!(rec[0].committed[&1], 100);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_superblock_falls_back_to_other_replica() {
        let dir = tmp("torn_super");
        let (mut store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(5, 500).unwrap();
        store.arm_meta_tear(MetaTear {
            target: MetaTarget::Superblock,
            skip: 0,
            keep_bytes: 13,
        });
        assert!(store.checkpoint(&[ShardCheckpoint::fresh(4)]).is_err());
        drop((wal, store));

        // The epoch-1 replica still elects; its checkpoint plus the
        // untruncated WAL reconstruct the committed set.
        let (store, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(rec[0].committed[&5], 500);
        assert!(
            !dir.join("checkpoint.2").exists(),
            "unreferenced checkpoint cleaned up"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_checkpoint_body_keeps_old_epoch() {
        let dir = tmp("torn_ckpt");
        let (mut store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(6, 600).unwrap();
        store.arm_meta_tear(MetaTear {
            target: MetaTarget::Checkpoint,
            skip: 0,
            keep_bytes: 20,
        });
        assert!(store.checkpoint(&[ShardCheckpoint::fresh(4)]).is_err());
        assert!(dir.join("checkpoint.tmp").exists(), "half-written body left behind");
        drop((wal, store));

        let (store, rec, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(store.epoch(), 1);
        assert_eq!(rec[0].committed[&6], 600);
        assert!(!dir.join("checkpoint.tmp").exists(), "tmp cleaned at open");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn geometry_mismatch_is_corrupt() {
        let dir = tmp("geom");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        drop(store);
        assert!(matches!(
            DurableStore::open(&dir, 8, 8, vec![ShardCheckpoint::fresh(4)]),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_checkpoint_is_detected() {
        let dir = tmp("flip");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        drop(store);
        let path = dir.join("checkpoint.1");
        let mut body = fs::read(&path).unwrap();
        let mid = body.len() / 2;
        body[mid] ^= 0x40;
        fs::write(&path, body).unwrap();
        assert!(matches!(
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zeroed_superblock_is_corrupt() {
        let dir = tmp("zeroed");
        let (store, _, _) = DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        drop(store);
        fs::write(dir.join("super"), [0u8; 128]).unwrap();
        assert!(matches!(
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_records_replay_and_mirror() {
        let dir = tmp("putv");
        let (store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put_value(1, 100, &[0xAB; 8]).unwrap();
        wal.log_put_value(2, 200, &[0xCD; 8]).unwrap();
        wal.log_delete(2).unwrap();
        assert_eq!(wal.wal_value(1), Some(&[0xAB; 8][..]));
        assert_eq!(wal.wal_value(2), None, "delete drops the mirror");
        drop((wal, store));

        let (store, mut rec, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let r = rec.remove(0);
        assert_eq!(r.committed.len(), 1);
        assert_eq!(r.committed[&1], 100);
        assert_eq!(r.values[&1], vec![0xAB; 8]);
        assert!(!r.values.contains_key(&2));
        // Reopen hands the mirror back to a fresh appender.
        let mut wal = store.wal_appender(0).unwrap();
        wal.preload_values(r.values);
        assert_eq!(wal.wal_value(1), Some(&[0xAB; 8][..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn plain_put_overwrites_the_value_mirror() {
        let dir = tmp("putv_mix");
        let (store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put_value(1, 100, &[0x11; 8]).unwrap();
        wal.log_put(1, 160).unwrap();
        // The mirrored bytes no longer describe the committed value.
        assert_eq!(wal.wal_value(1), None);
        drop((wal, store));
        let (_, rec, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].committed[&1], 160);
        assert!(!rec[0].values.contains_key(&1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retirement_survives_wal_replay_and_checkpoint() {
        let dir = tmp("retire");
        let (mut store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_retire(3).unwrap();
        wal.log_retire(1).unwrap();
        wal.log_retire(3).unwrap(); // idempotent on replay
        drop(wal);

        // Crash path: retirement comes back through WAL replay.
        let (_, rec, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].retired, vec![3, 1]);

        // Checkpoint path: retirement persists past WAL truncation.
        let mut ckpt = ShardCheckpoint::fresh(4);
        ckpt.retired = vec![1, 3];
        store.checkpoint(&[ckpt]).unwrap();
        drop(store);
        let (_, rec, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].retired, vec![1, 3]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_frame_ends_replay() {
        // A frame longer than 17 + value_size is framing garbage even if
        // its CRC happens to check out.
        let dir = tmp("oversize");
        let (store, _, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        let mut wal = store.wal_appender(0).unwrap();
        wal.log_put(1, 100).unwrap();
        drop((wal, store));
        // Hand-craft a CRC-valid but oversized frame.
        let payload = vec![REC_PUT_V; 64];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        use std::io::Write as _;
        OpenOptions::new()
            .append(true)
            .open(dir.join("wal.0"))
            .unwrap()
            .write_all(&frame)
            .unwrap();
        let (_, rec, _) =
            DurableStore::open(&dir, 7, 8, vec![ShardCheckpoint::fresh(4)]).unwrap();
        assert_eq!(rec[0].committed.len(), 1, "replay stops at the bad frame");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn geometry_hash_separates_configs() {
        let a = PnwConfig::new(64, 8);
        let b = PnwConfig::new(64, 16);
        let c = PnwConfig::new(64, 8).with_index(IndexPlacement::Nvm);
        // TTL adds the expiry zone, shifting every region offset: a
        // TTL-on directory must refuse to open under a TTL-off config.
        let d = PnwConfig::new(64, 8).with_ttl();
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&b, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&c, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&d, 1));
        assert_ne!(geometry_hash(&a, 1), geometry_hash(&a, 2));
        assert_eq!(geometry_hash(&a, 1), geometry_hash(&a.clone(), 1));
    }
}
