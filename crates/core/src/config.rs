//! Store configuration.

/// Where the hash index lives (§V-A.3, Figure 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexPlacement {
    /// Figure 2a: DRAM index — zero NVM bit flips, rebuilt on recovery.
    /// The right choice for small keys.
    Dram,
    /// Figure 2b: Path-hashing index persisted in NVM — survives crashes,
    /// but its write amplification costs NVM bit flips. The paper's
    /// worst-case evaluation setting.
    Nvm,
}

/// Where a store's state lives between processes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum BackingMode {
    /// DRAM-emulated only (the paper's evaluation setting): nothing
    /// survives the process. Stores are built with `new`.
    #[default]
    Volatile,
    /// Durable: the directory holds write-through device images plus the
    /// superblock / WAL / checkpoint metadata files. Stores are built with
    /// `open`, which replays the WAL over the last checkpoint and rebuilds
    /// the DRAM-side structures.
    File(std::path::PathBuf),
}

/// How UPDATE operations are executed (§V-B.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdatePolicy {
    /// Endurance-first (the paper's default): DELETE then PUT, so the new
    /// version lands on the most bit-similar free location.
    DeletePut,
    /// Latency-first: update in place through the hash index, sacrificing
    /// wear for one less indirection.
    InPlace,
}

/// When the model is retrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainMode {
    /// Only when [`PnwStore::retrain_now`](crate::PnwStore::retrain_now) is
    /// called.
    Manual,
    /// Synchronously when pool availability drops below the load factor.
    OnLoadFactor,
    /// A background thread retrains when availability drops below the load
    /// factor; the store keeps serving from the old model and swaps when
    /// training finishes (§V-C's "hide the re-training latency").
    Background,
}

/// Dimensionality-reduction policy (§V-A.1, "curse of dimensionality").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcaPolicy {
    /// Apply PCA when a value's bit count exceeds this threshold. The paper:
    /// *"small (e.g. 64 bit) data elements can be directly passed to the
    /// model, while for large data element (e.g. 4KB) we first apply
    /// dimensionality reduction using PCA"*.
    pub threshold_bits: usize,
    /// Components to project onto.
    pub components: usize,
    /// Sample size for fitting the PCA basis (the Gram-trick eigensolve is
    /// cubic in this).
    pub sample: usize,
}

impl Default for PcaPolicy {
    fn default() -> Self {
        PcaPolicy {
            threshold_bits: 1024,
            components: 32,
            sample: 256,
        }
    }
}

/// Why a [`PnwConfig`] was rejected by [`PnwConfig::build`].
///
/// The builder methods clamp their inputs, but the fields are public and a
/// hand-assembled config used to fail only deep inside store construction
/// (an allocator assert, a division by zero in the pool). `build` rejects
/// those configs at the boundary with a named reason instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// `capacity == 0`: a store needs at least one data-zone bucket.
    ZeroCapacity,
    /// `value_size == 0`: buckets must hold at least one byte.
    ZeroValueSize,
    /// `clusters > capacity`: K-means cannot place more cluster free lists
    /// than there are buckets to label.
    ClustersExceedCapacity {
        /// Configured cluster count K.
        clusters: usize,
        /// Configured bucket count.
        capacity: usize,
    },
    /// `shards == 0`: the sharded store needs at least one shard.
    ZeroShards,
    /// `load_factor` outside `(0, 1]`; carries the offending value.
    BadLoadFactor(f64),
    /// `retention_ring` without `ttl_enabled`: ring eviction orders
    /// entries by expiry deadline, which only exists with TTL on. The
    /// builder ([`PnwConfig::with_ring_retention`]) sets both; this
    /// rejects hand-assembled configs that set the ring flag alone.
    RingWithoutTtl,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroCapacity => write!(f, "capacity must be at least 1 bucket"),
            ConfigError::ZeroValueSize => write!(f, "value_size must be at least 1 byte"),
            ConfigError::ClustersExceedCapacity { clusters, capacity } => {
                write!(f, "clusters ({clusters}) must not exceed capacity ({capacity})")
            }
            ConfigError::ZeroShards => write!(f, "shards must be at least 1"),
            ConfigError::BadLoadFactor(lf) => {
                write!(f, "load_factor {lf} must lie in (0, 1]")
            }
            ConfigError::RingWithoutTtl => {
                write!(f, "retention_ring requires ttl_enabled")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a [`PnwStore`](crate::PnwStore).
#[derive(Debug, Clone)]
pub struct PnwConfig {
    /// Number of data-zone buckets.
    pub capacity: usize,
    /// Value size in bytes (the paper supports 32-bit words up to documents;
    /// one store instance uses one size).
    pub value_size: usize,
    /// Number of clusters K.
    pub clusters: usize,
    /// RNG seed for training.
    pub seed: u64,
    /// Load factor: when more than this fraction of buckets is occupied
    /// (equivalently, pool availability falls below `1 - load_factor`),
    /// retraining is due (§V-C).
    pub load_factor: f64,
    /// Index placement.
    pub index: IndexPlacement,
    /// UPDATE policy.
    pub update_policy: UpdatePolicy,
    /// Retrain trigger.
    pub retrain: RetrainMode,
    /// PCA policy for large values.
    pub pca: PcaPolicy,
    /// Worker threads for K-means training (Figure 11 sweeps 1 vs 4).
    pub train_threads: usize,
    /// Cap on how many data-zone values a training *snapshot* collects
    /// (buckets are stride-subsampled beyond this, per shard).
    pub train_sample: usize,
    /// Hard cap on the samples one training run consumes: snapshots larger
    /// than this are reduced by deterministic reservoir sampling
    /// ([`reservoir_sample`](crate::model::reservoir_sample)) before
    /// featurization, so retrain cost stops scaling with data-zone size.
    /// [`StoreSnapshot::train`](crate::StoreSnapshot::train) reports the
    /// pre- and post-cap counts.
    pub train_sample_cap: usize,
    /// Lloyd iteration cap.
    pub train_iters: usize,
    /// Track per-bit wear (needed for Figure 13; costs DRAM).
    pub track_bit_wear: bool,
    /// Reserved buckets beyond `capacity`, pre-allocated on the device but
    /// inactive until [`PnwStore::extend_zone`](crate::PnwStore::extend_zone)
    /// activates them — the §V-C data-zone extension path (*"when x percent
    /// of the available addresses in the K/V data zone are used, the K/V
    /// data zone needs to be extended"*). When the load factor trips and
    /// reserve is available, the store extends automatically before
    /// retraining.
    pub reserve_buckets: usize,
    /// When set, retraining chooses K automatically with the elbow method
    /// (§V-A.1, Figure 4) by sweeping this inclusive range of cluster
    /// counts on a training subsample. `clusters` is then only the initial
    /// placeholder.
    pub auto_k: Option<(usize, usize)>,
    /// Shard count: the data zone is split into this many independent
    /// slices, each with its own device region, index and address pool,
    /// routed by key hash. `1` (the default) is the one-shard system of
    /// the paper's Algorithms 1–3.
    pub shards: usize,
    /// Where the store's state lives between processes:
    /// [`BackingMode::Volatile`] (default) for the in-process emulated
    /// device, [`BackingMode::File`] for a durable directory opened with
    /// [`PnwStore::open`](crate::PnwStore::open).
    pub backing: BackingMode,
    /// Capacity of each shard's bounded write queue in the sharded
    /// store's single-writer path. A writer that finds the shard's engine
    /// busy enqueues its operation; when the queue is full the operation
    /// fails with [`StoreError::Backpressure`](crate::StoreError) instead
    /// of convoying on a lock. Does not affect geometry or placement.
    pub shard_queue_depth: usize,
    /// Forces [`ShardedPnwStore`](crate::ShardedPnwStore) GETs through
    /// the shard engine lock instead of the lock-free seqlock-validated
    /// read view — the before/after comparison knob for the read-path
    /// benchmarks. Defaults to `false` (lock-free reads). Does not affect
    /// stored bytes or placement.
    pub locked_reads: bool,
    /// End-to-end data integrity (default `true`): every PUT seals a
    /// CRC-32 of `key ‖ value` into the bucket header and read-verifies
    /// the bucket before acknowledging (DCW-style write-verify — a PUT
    /// that lands on stuck media is transparently re-placed onto the next
    /// free bucket and the damaged one retired); every GET re-computes the
    /// CRC and returns [`StoreError::Corruption`](crate::StoreError)
    /// instead of corrupt bytes. Turning this off removes the CRC seal,
    /// the GET verify and the write-verify — the benchmark comparison
    /// knob for measuring integrity overhead.
    pub integrity: bool,
    /// Media endurance in writes per word. When set, each device word
    /// that exceeds this write count may latch a stuck-at bit (the
    /// wear-out fault model of the NVM layer); the placement pool also
    /// deprioritizes buckets whose hottest word has passed 3/4 of this
    /// budget, steering new data toward fresher cells. `None` (default):
    /// no wear-out faults, no deprioritization.
    pub endurance_writes: Option<u32>,
    /// Probability that a past-endurance write latches a stuck bit
    /// (default `1.0` — deterministic wear-out, the testing setting).
    /// Only meaningful with `endurance_writes` set.
    pub stuck_latch_probability: f64,
    /// Background scrub rate in buckets per second for
    /// [`ShardedPnwStore`](crate::ShardedPnwStore). When set, a
    /// low-priority thread walks the shards bucket-by-bucket through the
    /// lock-free read view, verifies each sealed CRC, repairs corrupt
    /// buckets from the durable layer when a clean copy exists and
    /// retires buckets sitting on stuck media. `None` (default): no
    /// background thread; explicit
    /// [`scrub_pass`](crate::ShardedPnwStore::scrub_pass) calls still
    /// work.
    pub scrub_rate: Option<u32>,
    /// Per-key TTL/expiry support (default `false`). When on, the store
    /// allocates an expiry zone alongside the data zone (8 bytes per
    /// bucket holding an absolute unix-millisecond deadline; 0 = never
    /// expires), `put_with_expiry` stamps deadlines, GETs treat expired
    /// keys as absent (lazy expiry, no mutation on the read path) and the
    /// scrubber cursor physically reclaims expired buckets as it passes
    /// them. Expiry stamps ride the same write-through device image as
    /// the data zone, so deadlines survive crash/reopen.
    pub ttl_enabled: bool,
    /// Ring-buffer retention for streaming workloads (default `false`;
    /// implies `ttl_enabled`). When a PUT finds the data zone full, the
    /// store first reclaims expired buckets and, if none exist, evicts
    /// the live entry with the *earliest* expiry deadline — oldest data
    /// falls off the ring, exactly the CCTV-recorder retention model —
    /// before failing with `Full`. Entries without a deadline are never
    /// evicted.
    pub retention_ring: bool,
}

impl PnwConfig {
    /// A config with the paper's defaults for the given geometry.
    pub fn new(capacity: usize, value_size: usize) -> Self {
        PnwConfig {
            capacity,
            value_size,
            // The paper's default K, never exceeding the bucket count (a
            // tiny store cannot meaningfully hold 10 cluster free lists).
            clusters: 10.min(capacity.max(1)),
            seed: 0x0050_4E57, // "PNW"
            load_factor: 0.9,
            index: IndexPlacement::Dram,
            update_policy: UpdatePolicy::DeletePut,
            retrain: RetrainMode::Manual,
            pca: PcaPolicy::default(),
            train_threads: 1,
            train_sample: 4096,
            train_sample_cap: 4096,
            train_iters: 25,
            track_bit_wear: false,
            reserve_buckets: 0,
            auto_k: None,
            shards: 1,
            backing: BackingMode::Volatile,
            shard_queue_depth: 1024,
            locked_reads: false,
            integrity: true,
            endurance_writes: None,
            stuck_latch_probability: 1.0,
            scrub_rate: None,
            ttl_enabled: false,
            retention_ring: false,
        }
    }

    /// Sets K.
    pub fn with_clusters(mut self, k: usize) -> Self {
        self.clusters = k.max(1);
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets index placement.
    pub fn with_index(mut self, p: IndexPlacement) -> Self {
        self.index = p;
        self
    }

    /// Sets the update policy.
    pub fn with_update_policy(mut self, p: UpdatePolicy) -> Self {
        self.update_policy = p;
        self
    }

    /// Sets the retrain mode.
    pub fn with_retrain(mut self, r: RetrainMode) -> Self {
        self.retrain = r;
        self
    }

    /// Sets the load factor (clamped to `(0, 1]`).
    pub fn with_load_factor(mut self, lf: f64) -> Self {
        self.load_factor = lf.clamp(f64::EPSILON, 1.0);
        self
    }

    /// Sets training threads.
    pub fn with_train_threads(mut self, t: usize) -> Self {
        self.train_threads = t.max(1);
        self
    }

    /// Sets the reservoir cap on per-run training samples (clamped to ≥ 1).
    pub fn with_train_sample_cap(mut self, cap: usize) -> Self {
        self.train_sample_cap = cap.max(1);
        self
    }

    /// Enables per-bit wear tracking.
    pub fn with_bit_wear(mut self, on: bool) -> Self {
        self.track_bit_wear = on;
        self
    }

    /// Sets the PCA policy.
    pub fn with_pca(mut self, pca: PcaPolicy) -> Self {
        self.pca = pca;
        self
    }

    /// Reserves extra buckets for later zone extension.
    pub fn with_reserve(mut self, buckets: usize) -> Self {
        self.reserve_buckets = buckets;
        self
    }

    /// Enables elbow-method K selection over `[min, max]`.
    pub fn with_auto_k(mut self, min: usize, max: usize) -> Self {
        self.auto_k = Some((min.max(1), max.max(min.max(1))));
        self
    }

    /// Sets the shard count for
    /// [`ShardedPnwStore`](crate::ShardedPnwStore) (clamped to ≥ 1).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Sets the per-shard write-queue depth (clamped to ≥ 1).
    pub fn with_shard_queue_depth(mut self, depth: usize) -> Self {
        self.shard_queue_depth = depth.max(1);
        self
    }

    /// Routes sharded-store GETs through the shard lock instead of the
    /// lock-free read view (benchmark comparison knob).
    pub fn with_locked_reads(mut self, locked: bool) -> Self {
        self.locked_reads = locked;
        self
    }

    /// Enables or disables end-to-end integrity (CRC seal + GET verify +
    /// PUT write-verify). On by default; turn off only for overhead
    /// benchmarks.
    pub fn with_integrity(mut self, on: bool) -> Self {
        self.integrity = on;
        self
    }

    /// Sets the media endurance budget in writes per word (clamped to
    /// ≥ 1), arming the device's stuck-at wear-out model and the pool's
    /// wear deprioritization.
    pub fn with_endurance(mut self, writes: u32) -> Self {
        self.endurance_writes = Some(writes.max(1));
        self
    }

    /// Sets the probability that a past-endurance write latches a stuck
    /// bit (clamped to `[0, 1]`).
    pub fn with_stuck_latch_probability(mut self, p: f64) -> Self {
        self.stuck_latch_probability = if p.is_nan() { 1.0 } else { p.clamp(0.0, 1.0) };
        self
    }

    /// Enables the background scrubber at `buckets_per_sec` (clamped to
    /// ≥ 1) on [`ShardedPnwStore`](crate::ShardedPnwStore).
    pub fn with_scrub(mut self, buckets_per_sec: u32) -> Self {
        self.scrub_rate = Some(buckets_per_sec.max(1));
        self
    }

    /// Enables per-key TTL/expiry (allocates the expiry zone).
    pub fn with_ttl(mut self) -> Self {
        self.ttl_enabled = true;
        self
    }

    /// Enables ring-buffer retention (implies TTL): a full data zone
    /// evicts the entry with the earliest expiry deadline instead of
    /// failing the PUT.
    pub fn with_ring_retention(mut self) -> Self {
        self.ttl_enabled = true;
        self.retention_ring = true;
        self
    }

    /// Makes the store durable at `path` (a directory; created on first
    /// open). Build the store with `open` instead of `new` afterwards.
    pub fn with_path(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.backing = BackingMode::File(path.into());
        self
    }

    /// Whether values of this size go through PCA.
    pub fn uses_pca(&self) -> bool {
        self.value_size * 8 > self.pca.threshold_bits
    }

    /// Checks the invariants the store relies on. The builder
    /// methods clamp their inputs, but all fields are public — this is the
    /// boundary check for hand-assembled configs.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if self.value_size == 0 {
            return Err(ConfigError::ZeroValueSize);
        }
        if self.clusters > self.capacity {
            return Err(ConfigError::ClustersExceedCapacity {
                clusters: self.clusters,
                capacity: self.capacity,
            });
        }
        if self.shards == 0 {
            return Err(ConfigError::ZeroShards);
        }
        if !(self.load_factor > 0.0 && self.load_factor <= 1.0) {
            return Err(ConfigError::BadLoadFactor(self.load_factor));
        }
        if self.retention_ring && !self.ttl_enabled {
            return Err(ConfigError::RingWithoutTtl);
        }
        Ok(())
    }

    /// Validates and returns the finished configuration — the fallible end
    /// of the builder chain. Store constructors run the same
    /// [`PnwConfig::validate`] check, so an invalid config is rejected at
    /// the API boundary with a named [`ConfigError`] instead of panicking
    /// deep inside store construction.
    ///
    /// ```
    /// use pnw_core::{ConfigError, PnwConfig};
    ///
    /// let cfg = PnwConfig::new(256, 8).with_clusters(4).build().unwrap();
    /// assert_eq!(cfg.capacity, 256);
    ///
    /// let mut bad = PnwConfig::new(8, 8);
    /// bad.clusters = 99; // direct field access skips the clamping builder
    /// assert_eq!(
    ///     bad.build().unwrap_err(),
    ///     ConfigError::ClustersExceedCapacity { clusters: 99, capacity: 8 }
    /// );
    /// ```
    pub fn build(self) -> Result<Self, ConfigError> {
        self.validate()?;
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = PnwConfig::new(1000, 64);
        assert_eq!(c.capacity, 1000);
        assert_eq!(c.value_size, 64);
        assert!(c.clusters >= 1);
        assert!((0.0..=1.0).contains(&c.load_factor));
        assert_eq!(c.index, IndexPlacement::Dram);
        assert_eq!(c.update_policy, UpdatePolicy::DeletePut);
    }

    #[test]
    fn pca_threshold() {
        assert!(!PnwConfig::new(10, 4).uses_pca()); // 32 bits
        assert!(PnwConfig::new(10, 784).uses_pca()); // 6272 bits
    }

    #[test]
    fn builder_clamps() {
        let c = PnwConfig::new(1, 1)
            .with_clusters(0)
            .with_load_factor(7.0)
            .with_train_threads(0)
            .with_train_sample_cap(0)
            .with_shards(0);
        assert_eq!(c.clusters, 1);
        assert_eq!(c.load_factor, 1.0);
        assert_eq!(c.train_threads, 1);
        assert_eq!(c.train_sample_cap, 1);
        assert_eq!(c.shards, 1);
        assert_eq!(PnwConfig::new(8, 8).with_shards(4).shards, 4);
        assert_eq!(PnwConfig::new(8, 8).with_shard_queue_depth(0).shard_queue_depth, 1);
        assert_eq!(PnwConfig::new(8, 8).with_shard_queue_depth(64).shard_queue_depth, 64);
        assert!(PnwConfig::new(8, 8).with_locked_reads(true).locked_reads);
        assert!(!PnwConfig::new(8, 8).locked_reads);
        assert_eq!(PnwConfig::new(8, 8).with_train_sample_cap(99).train_sample_cap, 99);
        assert_eq!(PnwConfig::new(8, 8).with_endurance(0).endurance_writes, Some(1));
        assert_eq!(PnwConfig::new(8, 8).with_scrub(0).scrub_rate, Some(1));
        let c = PnwConfig::new(8, 8).with_stuck_latch_probability(7.0);
        assert_eq!(c.stuck_latch_probability, 1.0);
        let c = PnwConfig::new(8, 8).with_stuck_latch_probability(f64::NAN);
        assert_eq!(c.stuck_latch_probability, 1.0);
    }

    #[test]
    fn integrity_defaults_on_and_wearout_defaults_off() {
        let c = PnwConfig::new(64, 8);
        assert!(c.integrity, "integrity must be the default — corruption detection is not opt-in");
        assert_eq!(c.endurance_writes, None);
        assert_eq!(c.scrub_rate, None);
        assert!(!PnwConfig::new(64, 8).with_integrity(false).integrity);
        assert_eq!(PnwConfig::new(64, 8).with_endurance(500).endurance_writes, Some(500));
        assert_eq!(PnwConfig::new(64, 8).with_scrub(4096).scrub_rate, Some(4096));
    }

    #[test]
    fn build_accepts_sane_configs() {
        assert!(PnwConfig::new(64, 8).with_clusters(4).build().is_ok());
        assert!(PnwConfig::new(1, 1).build().is_ok());
    }

    #[test]
    fn ttl_and_ring_builders() {
        let c = PnwConfig::new(64, 8);
        assert!(!c.ttl_enabled && !c.retention_ring, "TTL must be opt-in");
        let c = PnwConfig::new(64, 8).with_ttl();
        assert!(c.ttl_enabled && !c.retention_ring);
        let c = PnwConfig::new(64, 8).with_ring_retention();
        assert!(c.ttl_enabled && c.retention_ring, "ring implies ttl");
        assert!(c.build().is_ok());
    }

    #[test]
    fn build_rejects_each_invalid_field() {
        assert_eq!(
            PnwConfig::new(0, 8).build().unwrap_err(),
            ConfigError::ZeroCapacity
        );
        assert_eq!(
            PnwConfig::new(8, 0).build().unwrap_err(),
            ConfigError::ZeroValueSize
        );
        let mut c = PnwConfig::new(4, 8);
        c.clusters = 5;
        assert_eq!(
            c.build().unwrap_err(),
            ConfigError::ClustersExceedCapacity {
                clusters: 5,
                capacity: 4
            }
        );
        let mut c = PnwConfig::new(8, 8);
        c.shards = 0;
        assert_eq!(c.build().unwrap_err(), ConfigError::ZeroShards);
        let mut c = PnwConfig::new(8, 8);
        c.retention_ring = true; // skipped the builder, so ttl stayed off
        assert_eq!(c.build().unwrap_err(), ConfigError::RingWithoutTtl);
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let mut c = PnwConfig::new(8, 8);
            c.load_factor = bad;
            assert!(
                matches!(c.build(), Err(ConfigError::BadLoadFactor(_))),
                "load_factor {bad} must be rejected"
            );
        }
    }

    #[test]
    fn config_error_displays_the_reason() {
        let e = ConfigError::ClustersExceedCapacity {
            clusters: 9,
            capacity: 4,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        assert!(ConfigError::BadLoadFactor(2.0).to_string().contains("(0, 1]"));
    }
}
