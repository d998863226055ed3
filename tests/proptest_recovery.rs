//! Property-based crash-consistency: random operation sequences with a
//! crash armed at a random write, then a reopen that must be
//! *prefix-consistent* — every acknowledged operation survives, no
//! unacknowledged operation does.
//!
//! Two levels:
//!
//! * **Store level** — a durable [`PnwStore`] runs random put / update /
//!   delete traffic; at a random point either a metadata tear (mid-WAL
//!   record) or a data-zone torn write is armed. The reference model
//!   records exactly the acknowledged ops; the reopened store must match
//!   it key-for-key, bit-for-bit.
//! * **Device level** — a file-backed [`NvmDevice`] takes word-aligned
//!   writes in both [`WriteMode`]s with a torn write armed at a random
//!   index; the reopened device's cells must equal the shadow image in
//!   which the torn write applied only its persisted word prefix.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use pnw_core::{IndexPlacement, MetaTarget, MetaTear, PnwConfig, PnwStore};
use pnw_nvm_sim::{DeviceBacking, NvmConfig, NvmDevice, WriteMode};

/// A unique scratch directory per proptest case (cases share one process).
fn case_dir(prefix: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "pnw_prop_{prefix}_{}_{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

#[derive(Debug, Clone)]
enum Op {
    Put(u64, Vec<u8>),
    Delete(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u64..16, proptest::collection::vec(any::<u8>(), 8))
            .prop_map(|(k, v)| Op::Put(k, v)),
        1 => (0u64..16).prop_map(Op::Delete),
    ]
}

#[derive(Debug, Clone, Copy)]
enum Crash {
    /// Tear the WAL frame of the `skip`-th metadata append from the armed
    /// point, keeping `keep` bytes of it.
    Wal { skip: u64, keep: usize },
    /// Tear the next data-zone (or NVM-index) device write after `words`
    /// persisted words.
    Data { words: usize },
}

fn crash_strategy() -> impl Strategy<Value = Crash> {
    prop_oneof![
        (0u64..3, 0usize..8).prop_map(|(skip, keep)| Crash::Wal { skip, keep }),
        (0usize..3).prop_map(|words| Crash::Data { words }),
    ]
}

fn run_store_case(
    ops: Vec<Op>,
    crash_at: usize,
    crash: Crash,
    placement: IndexPlacement,
) -> Result<(), TestCaseError> {
    let dir = case_dir("store");
    let cfg = PnwConfig::new(32, 8)
        .with_clusters(2)
        .with_seed(17)
        .with_index(placement)
        .with_path(&dir);

    let store = PnwStore::open(cfg.clone()).expect("fresh open");
    // The model mirrors *acknowledged* ops only: once the crash fires,
    // operations fail and the model freezes with them.
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for (i, op) in ops.iter().enumerate() {
        if i == crash_at {
            match crash {
                Crash::Wal { skip, keep } => store.arm_meta_tear(MetaTear {
                    target: MetaTarget::Wal,
                    skip,
                    keep_bytes: keep,
                }),
                Crash::Data { words } => {
                    let (Op::Put(key, _) | Op::Delete(key)) = op;
                    store.arm_torn_write(store.shard_of_key(*key), words)
                }
            }
        }
        match op {
            Op::Put(k, v) => {
                if store.put(*k, v).is_ok() {
                    model.insert(*k, v.clone());
                }
            }
            Op::Delete(k) => {
                match store.delete(*k) {
                    // Only an acknowledged "existed and removed" is a
                    // committed mutation; `Ok(false)` mutates nothing.
                    Ok(true) => {
                        model.remove(k);
                    }
                    Ok(false) => {
                        // Before the crash is armed the store and model
                        // must agree on presence. After it, a failed
                        // delete-put update may have dropped the key from
                        // the in-process index even though recovery will
                        // serve the committed old value — the in-process
                        // view of a dying store is allowed to diverge.
                        if i < crash_at {
                            prop_assert!(!model.contains_key(k));
                        }
                    }
                    Err(_) => {}
                }
            }
        }
    }
    drop(store);

    let store = PnwStore::open(cfg).expect("reopen after crash");
    prop_assert_eq!(store.len(), model.len(), "live count after reopen");
    for key in 0..16u64 {
        let got = store.get(key).expect("reopened device serves reads");
        prop_assert_eq!(got.as_ref(), model.get(&key), "key {}", key);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DRAM-index durable store: reopen after a random crash serves
    /// exactly the acknowledged prefix.
    #[test]
    fn crashed_store_reopens_prefix_consistent_dram(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        crash_at in 0usize..30,
        crash in crash_strategy(),
    ) {
        run_store_case(ops, crash_at, crash, IndexPlacement::Dram)?;
    }

    /// NVM Path-Hashing index: the torn index region is rebuilt from the
    /// committed set at reopen.
    #[test]
    fn crashed_store_reopens_prefix_consistent_nvm(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        crash_at in 0usize..30,
        crash in crash_strategy(),
    ) {
        run_store_case(ops, crash_at, crash, IndexPlacement::Nvm)?;
    }

    /// File-backed device, both write modes, torn write at a random index:
    /// the reopened cell array equals the shadow image where the torn
    /// write contributed only its persisted word prefix.
    #[test]
    fn torn_device_file_holds_exact_prefix(
        writes in proptest::collection::vec(
            (0usize..28, proptest::collection::vec(any::<u8>(), 32), any::<bool>()),
            1..16,
        ),
        tear_at in 0usize..16,
        tear_words in 0usize..4,
    ) {
        let path = case_dir("dev");
        let cfg = NvmConfig::default()
            .with_size(256)
            .with_backing(DeviceBacking::File(path.clone()));
        let mut shadow = vec![0u8; 256];
        {
            let mut dev = NvmDevice::open(cfg.clone()).expect("fresh device");
            for (i, (word, payload, raw)) in writes.iter().enumerate() {
                let mode = if *raw { WriteMode::Raw } else { WriteMode::Diff };
                let offset = word * 8;
                if i == tear_at {
                    dev.arm_torn_write(tear_words);
                    // A torn write reports the persisted prefix as Ok and
                    // leaves the device crashed.
                    dev.write(offset, payload, mode).expect("torn write reports prefix");
                    prop_assert!(dev.is_crashed());
                    let kept = tear_words * 8;
                    shadow[offset..offset + kept].copy_from_slice(&payload[..kept]);
                    break;
                }
                dev.write(offset, payload, mode).expect("in range");
                shadow[offset..offset + 32].copy_from_slice(payload);
            }
            if writes.len() > tear_at {
                // Everything after the tear fails: nothing else may reach
                // the backing file.
                prop_assert!(dev.write(0, &[0u8; 8], WriteMode::Raw).is_err());
            }
        }
        let dev = NvmDevice::open(cfg).expect("reopen from file");
        prop_assert_eq!(dev.peek(0, 256).expect("peek"), &shadow[..]);
        drop(dev);
        let _ = std::fs::remove_file(&path);
    }
}
