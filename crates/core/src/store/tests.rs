//! The store under its paper name, [`PnwStore`]: the one-shard behaviours
//! of Algorithms 1–3 and §V-C, driven through the default configuration.

use std::time::Duration;

use crate::api::{Batch, Op, Store};
use crate::config::{IndexPlacement, PnwConfig, RetrainMode, UpdatePolicy};
use crate::error::StoreError;
use crate::PnwStore;

fn store(capacity: usize, value_size: usize, k: usize) -> PnwStore {
    PnwStore::new(
        PnwConfig::new(capacity, value_size)
            .with_clusters(k)
            .with_seed(7),
    )
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pnw_store_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn durable_store_round_trips_across_reopen() {
    let dir = temp_dir("roundtrip");
    let cfg = PnwConfig::new(64, 8).with_clusters(2).with_seed(7);
    {
        let s = PnwStore::open(cfg.clone().with_path(&dir)).unwrap();
        assert!(s.is_durable());
        for k in 0..20u64 {
            s.put(k, &(k * 3).to_le_bytes()).unwrap();
        }
        assert!(s.delete(4).unwrap());
        s.close().unwrap();
    }
    let s = PnwStore::open(cfg.with_path(&dir)).unwrap();
    assert_eq!(s.len(), 19);
    assert_eq!(s.get(4).unwrap(), None);
    for k in (0..20u64).filter(|&k| k != 4) {
        assert_eq!(s.get(k).unwrap().unwrap(), (k * 3).to_le_bytes());
    }
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
#[should_panic(expected = "PnwStore::open")]
fn new_rejects_file_backing() {
    let _ = PnwStore::new(PnwConfig::new(16, 8).with_path(temp_dir("reject")));
}

#[test]
fn put_get_delete_roundtrip() {
    let s = store(64, 8, 2);
    s.put(1, &[1u8; 8]).unwrap();
    s.put(2, &[2u8; 8]).unwrap();
    assert_eq!(s.len(), 2);
    assert_eq!(s.get(1).unwrap().unwrap(), vec![1u8; 8]);
    assert!(s.delete(1).unwrap());
    assert!(!s.delete(1).unwrap());
    assert_eq!(s.get(1).unwrap(), None);
    assert_eq!(s.len(), 1);
}

#[test]
fn wrong_size_rejected() {
    let s = store(16, 8, 2);
    assert!(matches!(
        s.put(1, &[0u8; 4]),
        Err(StoreError::WrongValueSize { expected: 8, got: 4 })
    ));
}

#[test]
#[should_panic(expected = "invalid PnwConfig")]
fn invalid_config_is_rejected_at_the_boundary() {
    let mut cfg = PnwConfig::new(4, 8);
    cfg.clusters = 99;
    let _ = PnwStore::new(cfg);
}

#[test]
fn fills_to_capacity_then_full() {
    let s = store(8, 8, 1);
    for k in 0..8u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    assert!(matches!(s.put(99, &[0u8; 8]), Err(StoreError::Full)));
    s.delete(0).unwrap();
    s.put(99, &[9u8; 8]).unwrap();
}

#[test]
fn update_delete_put_moves_to_similar_location() {
    let s = store(128, 8, 2);
    // Two bit-pattern families.
    for k in 0..32u64 {
        let v = if k % 2 == 0 { [0x00u8; 8] } else { [0xFFu8; 8] };
        s.put(k, &v).unwrap();
    }
    s.retrain_now().unwrap();
    // Delete everything to hand labeled buckets back to the pool.
    for k in 0..32u64 {
        s.delete(k).unwrap();
    }
    s.reset_device_stats();
    // New writes matching a family should land nearly flip-free.
    let r = s.put(100, &[0xFFu8; 8]).unwrap();
    assert!(
        r.value_write.bit_flips <= 8,
        "steered write flipped {} bits",
        r.value_write.bit_flips
    );
}

#[test]
fn k1_degenerates_to_dcw() {
    // §VI-D: "when we pick k=1, the result for PNW is not different
    // from DCW".
    let s = store(32, 8, 1);
    s.put(1, &[0xF0u8; 8]).unwrap();
    s.retrain_now().unwrap();
    s.delete(1).unwrap();
    let r = s.put(2, &[0xF1u8; 8]).unwrap();
    // Exactly the Hamming distance to whatever free bucket came up —
    // with k=1 there is no steering, like DCW over a free list.
    assert!(r.value_write.bit_flips <= 64);
    assert_eq!(s.model_k(), 1);
}

#[test]
fn in_place_update_policy() {
    let s = PnwStore::new(
        PnwConfig::new(32, 8)
            .with_clusters(2)
            .with_update_policy(UpdatePolicy::InPlace),
    );
    s.put(5, &[0xAAu8; 8]).unwrap();
    let free_before = s.snapshot().free;
    let r = s.put(5, &[0xABu8; 8]).unwrap();
    // No pool interaction, no prediction.
    assert_eq!(s.snapshot().free, free_before);
    assert_eq!(r.predict, Duration::ZERO);
    assert_eq!(s.get(5).unwrap().unwrap(), vec![0xABu8; 8]);
    assert_eq!(s.len(), 1);
}

#[test]
fn delete_put_update_policy_changes_address() {
    let s = store(32, 8, 2);
    s.put(5, &[0xAAu8; 8]).unwrap();
    s.put(5, &[0x55u8; 8]).unwrap();
    // The update went through DELETE + fresh PUT: one live key holding
    // the new value, the old bucket back in the pool. (With 31 other free
    // buckets the fresh PUT practically never reuses the just-freed
    // address, but it can, so only consistency is asserted.)
    assert_eq!(s.len(), 1);
    assert_eq!(s.snapshot().free, 31);
    assert_eq!(s.get(5).unwrap().unwrap(), vec![0x55u8; 8]);
}

#[test]
fn prefill_then_steering() {
    let s = store(64, 8, 2);
    // Half the cells hold 0x00-family, half 0xFF-family.
    let mut i = 0u32;
    s.prefill_free_buckets(|| {
        i += 1;
        if i.is_multiple_of(2) {
            vec![0x00u8; 8]
        } else {
            vec![0xFFu8; 8]
        }
    })
    .unwrap();
    s.retrain_now().unwrap();
    s.reset_device_stats();
    let r = s.put(1, &[0xFFu8; 8]).unwrap();
    // Value write should hit an 0xFF-family bucket: ~0 flips.
    assert!(r.value_write.bit_flips <= 8, "{}", r.value_write.bit_flips);
    let r2 = s.put(2, &[0x00u8; 8]).unwrap();
    assert!(r2.value_write.bit_flips <= 8, "{}", r2.value_write.bit_flips);
}

#[test]
fn nvm_index_costs_bit_flips_dram_does_not() {
    let dram = PnwStore::new(PnwConfig::new(64, 8).with_clusters(1));
    let nvm = PnwStore::new(
        PnwConfig::new(64, 8)
            .with_clusters(1)
            .with_index(IndexPlacement::Nvm),
    );
    dram.put(1, &[0x11u8; 8]).unwrap();
    nvm.put(1, &[0x11u8; 8]).unwrap();
    let d = dram.device_stats().totals.bit_flips;
    let n = nvm.device_stats().totals.bit_flips;
    assert!(n > d, "nvm index must add flips: {n} vs {d}");
}

/// A crash is a drop without `close`: reopening the directory rebuilds
/// the DRAM-side structures (index, pool, model) from NVM and the WAL.
fn crash_and_reopen(cfg: PnwConfig, dir: &std::path::Path, deleted: u64) {
    let cfg = cfg.with_path(dir);
    {
        let s = PnwStore::open(cfg.clone()).unwrap();
        for k in 0..20u64 {
            s.put(k, &k.to_le_bytes()).unwrap();
        }
        s.delete(deleted).unwrap();
    }
    let s = PnwStore::open(cfg).unwrap();
    assert_eq!(s.len(), 19);
    assert!(s.is_trained(), "the model is rebuilt from the recovered zone");
    assert_eq!(s.get(5).unwrap().unwrap(), 5u64.to_le_bytes().to_vec());
    assert_eq!(s.get(deleted).unwrap(), None);
    // Store remains writable.
    s.put(100, &[7u8; 8]).unwrap();
    assert_eq!(s.len(), 20);
}

#[test]
fn crash_recovery_dram_index() {
    let dir = temp_dir("crash_dram");
    crash_and_reopen(PnwConfig::new(64, 8).with_clusters(2).with_seed(7), &dir, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_nvm_index() {
    let dir = temp_dir("crash_nvm");
    let cfg = PnwConfig::new(64, 8)
        .with_clusters(2)
        .with_index(IndexPlacement::Nvm);
    crash_and_reopen(cfg, &dir, 7);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_factor_triggers_sync_retrain() {
    let s = PnwStore::new(
        PnwConfig::new(16, 8)
            .with_clusters(2)
            .with_load_factor(0.5)
            .with_retrain(RetrainMode::OnLoadFactor),
    );
    let before = s.retrains();
    for k in 0..10u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    assert!(s.retrains() > before, "retrain must have fired");
}

#[test]
fn background_retrain_installs_eventually() {
    let s = PnwStore::new(
        PnwConfig::new(32, 8)
            .with_clusters(2)
            .with_load_factor(0.25)
            .with_retrain(RetrainMode::Background),
    );
    for k in 0..16u64 {
        s.put(k, &(k * 7).to_le_bytes()).unwrap();
    }
    s.wait_for_retrain();
    assert!(s.is_trained());
    assert!(s.retrains() >= 1);
    // And the store still works.
    s.put(99, &[1u8; 8]).unwrap();
    assert_eq!(s.get(99).unwrap().unwrap(), vec![1u8; 8]);
}

#[test]
fn snapshot_counters() {
    let s = store(32, 8, 2);
    s.put(1, &[1u8; 8]).unwrap();
    s.get(1).unwrap();
    s.get(2).unwrap();
    s.delete(1).unwrap();
    let snap = s.snapshot();
    assert_eq!(snap.puts, 1);
    assert_eq!(snap.gets, 2);
    assert_eq!(snap.deletes, 1);
    assert_eq!(snap.live, 0);
    assert_eq!(snap.free, 32);
    assert!(snap.availability() > 0.99);
}

#[test]
fn get_does_not_touch_model_or_pool() {
    // §VI-E: "the value of K does not affect the lookup request latency
    // because in the lookup, the request does not go through the model
    // or the dynamic address pool".
    let s = store(32, 8, 4);
    s.put(1, &[1u8; 8]).unwrap();
    let free = s.snapshot().free;
    let predict_before = s.snapshot().predict_total;
    for _ in 0..10 {
        s.get(1).unwrap();
    }
    assert_eq!(s.snapshot().free, free);
    assert_eq!(s.snapshot().predict_total, predict_before);
}

#[test]
fn store_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PnwStore>();
}

#[test]
fn concurrent_readers_share_the_lock() {
    // Readers take no lock at all (seqlock-validated GETs), so any number
    // of them run side by side.
    let s = std::sync::Arc::new(store(32, 8, 2));
    s.put(1, &[9u8; 8]).unwrap();
    let mut handles = Vec::new();
    for _ in 0..3 {
        let s = std::sync::Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            for _ in 0..100 {
                assert_eq!(s.get(1).unwrap().unwrap(), vec![9u8; 8]);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn zone_extension_adds_capacity_without_index_churn() {
    // load_factor = 1.0 disables the automatic trigger so the manual
    // extension path is what's under test.
    let s = PnwStore::new(
        PnwConfig::new(8, 8)
            .with_clusters(2)
            .with_reserve(8)
            .with_load_factor(1.0)
            .with_retrain(RetrainMode::Manual),
    );
    assert_eq!(s.active_capacity(), 8);
    assert_eq!(s.reserve_remaining(), 8);
    for k in 0..8u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    assert!(matches!(s.put(99, &[0u8; 8]), Err(StoreError::Full)));
    let added = s.extend_zone(4);
    assert_eq!(added, 4);
    assert_eq!(s.active_capacity(), 12);
    assert_eq!(s.reserve_remaining(), 4);
    // New capacity is usable; old keys untouched.
    s.put(99, &[9u8; 8]).unwrap();
    assert_eq!(s.get(3).unwrap().unwrap(), 3u64.to_le_bytes().to_vec());
    // Extension never exceeds the reserve.
    assert_eq!(s.extend_zone(100), 4);
    assert_eq!(s.reserve_remaining(), 0);
    assert_eq!(s.extend_zone(1), 0);
}

#[test]
fn load_factor_auto_extends_from_reserve() {
    let s = PnwStore::new(
        PnwConfig::new(8, 8)
            .with_clusters(2)
            .with_reserve(8)
            .with_load_factor(0.5)
            .with_retrain(RetrainMode::OnLoadFactor),
    );
    for k in 0..8u64 {
        s.put(k, &k.to_le_bytes()).unwrap();
    }
    // The trigger fired at >50% occupancy and pulled from the reserve.
    assert!(s.active_capacity() > 8, "auto-extension must have fired");
    assert!(s.retrains() >= 1);
    // The 9th put works without manual intervention.
    s.put(100, &[1u8; 8]).unwrap();
}

#[test]
fn auto_k_store_trains_with_elbow() {
    let s = PnwStore::new(
        PnwConfig::new(64, 4)
            .with_auto_k(1, 8)
            .with_retrain(RetrainMode::Manual),
    );
    let mut i = 0u32;
    s.prefill_free_buckets(|| {
        i += 1;
        match i % 3 {
            0 => vec![0x00, 0x00, 0x00, 0x00],
            1 => vec![0xFF, 0xFF, 0xFF, 0xFF],
            _ => vec![0x0F, 0xF0, 0x0F, 0xF0],
        }
    })
    .unwrap();
    s.retrain_now().unwrap();
    assert!((2..=6).contains(&s.model_k()), "k={}", s.model_k());
}

#[test]
fn trait_object_drives_the_store() {
    let s: Box<dyn Store> = Box::new(store(32, 8, 2));
    assert_eq!(s.name(), "PNW-sharded");
    assert_eq!(s.value_size(), 8);
    s.put(1, &[3u8; 8]).unwrap();
    let mut buf = [0u8; 8];
    assert!(s.get_into(1, &mut buf).unwrap());
    assert_eq!(buf, [3u8; 8]);
    assert!(s.delete(1).unwrap());
    assert!(s.is_empty());
}

/// Batched apply must leave the store in the same state as the
/// equivalent per-op sequence — and the device accounting must match
/// bit-for-bit (the batch path's whole point is cost, not semantics).
#[test]
fn apply_matches_per_op_bit_for_bit() {
    let (a, b) = (store(64, 8, 2), store(64, 8, 2));
    let mut batch = Batch::new();
    for k in 0..24u64 {
        batch.put(k, &[k as u8 ^ 0x5A; 8]);
    }
    for k in (0..24u64).step_by(3) {
        batch.delete(k);
    }
    for k in 0..6u64 {
        batch.put(k, &[0xEE; 8]); // re-insert over deletes + updates
    }
    let report = a.apply(&batch);
    assert!(report.all_ok());
    assert_eq!(report.puts, 30);
    assert_eq!(report.deletes, 8);
    assert_eq!(report.deleted_existing, 8);

    let mut per_op_stats = pnw_nvm_sim::WriteStats::default();
    for op in batch.ops() {
        match op {
            Op::Put { key, value } => {
                per_op_stats += b.put(*key, value).unwrap().total_write;
            }
            Op::Delete { key } => {
                b.delete(*key).unwrap();
            }
        }
    }
    assert_eq!(a.device_stats(), b.device_stats());
    assert_eq!(a.len(), b.len());
    for k in 0..24u64 {
        assert_eq!(a.get(k).unwrap(), b.get(k).unwrap(), "key {k}");
    }
    // The aggregate covers everything the per-op PUT reports did, plus
    // the delete flag writes.
    assert!(report.write_stats.bit_flips >= per_op_stats.bit_flips);
    assert!(report.modeled_latency > Duration::ZERO);
}

#[test]
fn apply_records_failures_and_continues() {
    let s = store(2, 8, 1);
    let mut batch = Batch::new();
    batch
        .put(1, &[1; 8])
        .put(2, &[0; 4]) // wrong size
        .put(3, &[3; 8])
        .put(4, &[4; 8]) // store full
        .delete(1);
    let r = s.apply(&batch);
    assert_eq!(r.puts, 2);
    assert_eq!(r.deleted_existing, 1);
    assert_eq!(r.failures.len(), 2);
    assert!(matches!(
        r.failures[0],
        (1, StoreError::WrongValueSize { .. })
    ));
    assert!(matches!(r.failures[1], (3, StoreError::Full)));
    assert_eq!(s.len(), 1); // key 3 survived, key 1 deleted
}
