//! # pnw-baselines — the persistent K/V stores PNW is compared against
//!
//! Figure 9 of the paper compares PNW's written-cache-lines-per-request
//! against three recent NVM stores, each reimplemented here over the same
//! emulated device so the accounting is identical:
//!
//! * [`FpTreeLike`] — FPTree (Oukid et al., SIGMOD 2016): a hybrid
//!   SCM-DRAM B+-tree. Inner nodes live in DRAM; leaves live in NVM with a
//!   slot bitmap and per-slot fingerprints. Leaf splits rewrite half a
//!   leaf's entries — the write-amplification mechanism that makes FPTree
//!   the most line-hungry store in Figure 9.
//! * [`NoveLsmLike`] — NoveLSM (Kannan et al., ATC 2018): an LSM with a
//!   DRAM memtable flushed into sorted NVM runs, compacted into a larger
//!   level. Flush + compaction rewrite entries wholesale.
//! * [`PathHashStore`] — a K/V store over Path Hashing (Zuo & Hua): the
//!   closest competitor in Figure 9; writes little, but is *"not
//!   memory-aware"* — values land wherever the free list points, so its
//!   data-zone writes can't exploit similarity.
//!
//! All three implement the first-class [`Store`] trait from `pnw-core` —
//! the same trait the PNW store ([`PnwStore`](pnw_core::PnwStore)) implements
//! — so the Figure 9 harness and the generic throughput harness drive all
//! four backends uniformly, per-op or via [`Store::apply`] batches, with
//! no adapter in between. Reads take `&self` (shared store lock +
//! [`pnw_nvm_sim::NvmDevice::peek`]), so the baselines can be driven
//! concurrently behind an `Arc<dyn Store>` exactly like the PNW store.

#![warn(missing_docs)]

pub mod fptree;
pub mod lsm;
pub mod path_store;

pub use fptree::FpTreeLike;
pub use lsm::NoveLsmLike;
pub use path_store::PathHashStore;
pub use pnw_core::{Batch, BatchReport, Op, Store, StoreError};

use pnw_core::{OpReport, StoreSnapshot, TrainStats};
use pnw_nvm_sim::{DeviceStats, NvmDevice};

/// Checks a value's size against the bucket size.
pub(crate) fn check_size(expected: usize, value: &[u8]) -> Result<(), StoreError> {
    if value.len() != expected {
        Err(StoreError::WrongValueSize {
            expected,
            got: value.len(),
        })
    } else {
        Ok(())
    }
}

/// Builds a PUT's [`OpReport`] from the device-stats delta since `before`.
/// Baselines have no prediction path, so `predict` stays zero and the
/// value/total write stats coincide.
pub(crate) fn report_since(dev: &NvmDevice, before: &DeviceStats) -> OpReport {
    let total = dev.stats().since(before).totals;
    OpReport {
        cluster: 0,
        fallback: false,
        predict: std::time::Duration::ZERO,
        value_write: total,
        total_write: total,
        modeled_latency: dev.modeled_write_cost(&total),
    }
}

/// Fills a [`StoreSnapshot`] for a model-free baseline: live/capacity and
/// op counters are real, the model/training fields sit at their defaults.
pub(crate) fn baseline_snapshot(
    live: usize,
    capacity: usize,
    device: DeviceStats,
    puts: u64,
    gets: u64,
    deletes: u64,
) -> StoreSnapshot {
    StoreSnapshot {
        live,
        free: capacity.saturating_sub(live),
        capacity,
        k: 0,
        retrains: 0,
        train: TrainStats::default(),
        fallbacks: 0,
        device,
        predict_total: std::time::Duration::ZERO,
        puts,
        gets,
        deletes,
        scrub: pnw_core::ScrubStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn backends(capacity: usize, value_size: usize) -> Vec<Arc<dyn Store>> {
        vec![
            Arc::new(FpTreeLike::new(capacity, value_size)),
            Arc::new(NoveLsmLike::new(capacity, value_size)),
            Arc::new(PathHashStore::new(capacity, value_size)),
        ]
    }

    #[test]
    fn every_baseline_is_a_store_object() {
        for s in backends(64, 8) {
            s.put(1, &[0xAA; 8]).unwrap();
            assert_eq!(s.len(), 1);
            assert_eq!(s.get(1).unwrap().unwrap(), vec![0xAA; 8]);
            let mut buf = [0u8; 8];
            assert!(s.get_into(1, &mut buf).unwrap());
            assert_eq!(buf, [0xAA; 8]);
            assert!(s.delete(1).unwrap());
            assert!(s.is_empty());
            let snap = s.snapshot();
            assert_eq!(snap.puts, 1);
            assert_eq!(snap.gets, 2);
            assert_eq!(snap.deletes, 1);
            assert_eq!(snap.capacity, 64);
        }
    }

    #[test]
    fn default_batch_apply_works_on_every_baseline() {
        for s in backends(64, 8) {
            let mut batch = Batch::new();
            for k in 0..16u64 {
                batch.put(k, &[k as u8; 8]);
            }
            batch.delete(3).delete(99);
            let r = s.apply(&batch);
            assert!(r.all_ok(), "{}: {:?}", s.name(), r.failures);
            assert_eq!(r.puts, 16);
            assert_eq!(r.deleted_existing, 1);
            assert_eq!(s.len(), 15, "{}", s.name());
        }
    }

    #[test]
    fn baselines_serve_concurrent_readers() {
        for s in backends(256, 8) {
            s.put(7, &[0x77; 8]).unwrap();
            let mut handles = Vec::new();
            for worker in 0..3u64 {
                let s = Arc::clone(&s);
                handles.push(std::thread::spawn(move || {
                    for i in 0..50u64 {
                        if worker == 0 {
                            s.put(100 + i, &[i as u8; 8]).unwrap();
                        } else {
                            assert_eq!(s.get(7).unwrap().unwrap(), vec![0x77; 8]);
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(s.len(), 51, "{}", s.name());
        }
    }
}
