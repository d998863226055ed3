//! Equivalence of the packed bit-domain prediction kernel with the
//! reference float featurize-then-scan path, at the [`ModelManager`]
//! level: random trained models, the PCA-configured projector path, and
//! the post-retrain LUT-rebuild case.
//!
//! Exactness contract: distances agree within f32 ulp-level tolerance (the
//! two paths sum in different orders), and argmin/ranking agree whenever
//! the float path's distance margins exceed that tolerance — genuine
//! near-ties may resolve either way under reordered f32 summation, which
//! is as exact as f32 arithmetic admits.

use pnw::core_api::{ModelManager, PnwConfig, PredictScratch};
use pnw_ml::featurize::bits_to_features;
use pnw_ml::matrix::sq_dist;
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Structured random values: a few byte-fill families plus random noise
/// bytes, so K-means finds real clusters (pure noise collapses them).
fn random_values(n: usize, bytes: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fill = ((i % families.max(1)) * 255 / families.max(1)) as u8;
            (0..bytes)
                .map(|b| if b % 3 == 2 { rng.gen() } else { fill })
                .collect()
        })
        .collect()
}

/// Distance tolerance scaled to the magnitude (both paths round f32).
fn tol(reference: f32) -> f32 {
    1e-3 * (1.0 + reference.abs())
}

/// Asserts packed and float paths agree on `values` for `m`: distances
/// within tolerance, argmin and ranking identical up to near-ties.
fn assert_equivalent(m: &ModelManager, values: &[Vec<u8>]) {
    let mut scratch = PredictScratch::new();
    for v in values {
        let packed_argmin = m.predict_into(v, &mut scratch);
        let packed_dist = scratch.distances().to_vec();
        let f = bits_to_features(v);
        let float_dist: Vec<f32> = (0..m.k())
            .map(|c| sq_dist(m.kmeans().centroid(c), &f))
            .collect();
        for (c, (&p, &fl)) in packed_dist.iter().zip(&float_dist).enumerate() {
            assert!(
                (p - fl).abs() <= tol(fl),
                "cluster {c}: packed {p} vs float {fl}"
            );
        }
        // Argmin agrees when the float margin is decisive.
        let float_argmin = m.kmeans().predict(&f);
        let mut sorted = float_dist.clone();
        sorted.sort_by(f32::total_cmp);
        let margin = if sorted.len() > 1 {
            sorted[1] - sorted[0]
        } else {
            f32::INFINITY
        };
        if margin > tol(sorted[0]) {
            assert_eq!(packed_argmin, float_argmin, "value {v:?}");
        }
        // The lazy ranking is a valid nearest-first order under the float
        // distances (within tolerance), starting at the packed argmin.
        let ranking = m.ranked_after_predict(&mut scratch);
        assert_eq!(ranking.len(), m.k());
        assert_eq!(ranking[0], packed_argmin);
        for w in ranking.windows(2) {
            assert!(
                float_dist[w[0]] <= float_dist[w[1]] + tol(float_dist[w[1]]),
                "ranking {ranking:?} not sorted under float distances {float_dist:?}"
            );
        }
    }
}

proptest! {
    /// Random small models: the packed kernel reproduces the float path's
    /// distances and ordering on trained managers.
    #[test]
    fn manager_packed_matches_float(
        seed in 0u64..500,
        value_bytes in 1usize..16,
        k in 1usize..6,
    ) {
        let cfg = PnwConfig::new(128, value_bytes).with_clusters(k).with_seed(seed);
        let mut m = ModelManager::new(&cfg);
        let values = random_values(48, value_bytes, k.max(2), seed);
        // Untrained (single zero centroid) first…
        assert_equivalent(&m, &values[..8]);
        // …then trained.
        m.train(&values);
        prop_assert!(m.uses_packed());
        assert_equivalent(&m, &values);
    }
}

/// PCA-configured models keep the sparse projector path, and the split
/// scratch prediction still matches the reference featurize + scan.
#[test]
fn pca_model_predicts_identically_through_scratch() {
    // 160 B = 1280 bits > the default 1024-bit PCA threshold.
    let cfg = PnwConfig::new(128, 160).with_clusters(3).with_seed(21);
    assert!(cfg.uses_pca());
    let mut m = ModelManager::new(&cfg);
    let values = random_values(60, 160, 3, 77);
    m.train(&values);
    assert!(
        !m.uses_packed(),
        "PCA space is not 0/1: the projector path must stay"
    );
    let mut scratch = PredictScratch::new();
    for v in &values {
        // In PCA space both paths scan the same float features, so the
        // prediction must be the argmin of the scratch distances exactly.
        let c = m.predict_into(v, &mut scratch);
        let best = scratch
            .distances()
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(c, best);
        let ranked = m.ranked_after_predict(&mut scratch);
        assert_eq!(c, ranked[0]);
        assert_eq!(ranked.len(), m.k());
    }
}

/// The store's PCA prediction (dispatched set-bit projector, then the
/// PCA-space scan) leaves exactly the distances of the scalar reference
/// projection in the scratch — bit for bit, on 256-B Amazon-like rows.
#[test]
fn pca_scratch_distances_equal_scalar_projection_exactly() {
    use pnw_workloads::{SparseBinary, Workload};
    let mut w = SparseBinary::amazon_like(4);
    let cfg = PnwConfig::new(1024, w.value_size()).with_clusters(14).with_seed(4);
    assert!(cfg.uses_pca());
    let mut m = ModelManager::new(&cfg);
    m.train(&w.take_values(600));
    let proj = m.projector().expect("PCA model predicts through the projector");
    let mut scratch = PredictScratch::new();
    let mut features = vec![0.0f32; proj.n_components()];
    let mut reference = vec![0.0f32; m.k()];
    for v in w.take_values(100) {
        let c = m.predict_into(&v, &mut scratch);
        proj.project_into_scalar(&v, &mut features);
        let best = m.kmeans().distances_into(&features, &mut reference);
        assert_eq!(c, best);
        let bits = |d: &[f32]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(scratch.distances()), bits(&reference));
    }
}

/// Retraining swaps centroids; the packed LUTs must be rebuilt with them
/// (stale tables would keep predicting under the old geometry).
#[test]
fn retrain_rebuilds_luts_and_stays_equivalent() {
    let cfg = PnwConfig::new(256, 8).with_clusters(2).with_seed(5);
    let mut m = ModelManager::new(&cfg);
    let first = random_values(64, 8, 2, 1);
    m.train(&first);
    assert_equivalent(&m, &first);

    // Retrain on a shifted distribution (different families, different K
    // structure) — equivalence must hold against the *new* centroids.
    let second = random_values(64, 8, 4, 2);
    let cfg4 = PnwConfig::new(256, 8).with_clusters(4).with_seed(5);
    let mut m4 = ModelManager::new(&cfg4);
    m4.train(&first);
    m4.train(&second);
    assert_eq!(m4.retrains(), 2);
    assert!(m4.uses_packed());
    assert_equivalent(&m4, &second);
    assert_equivalent(&m4, &first);
}

/// Background training installs through the same `install` path, so the
/// swapped-in model must also rebuild its LUTs.
#[test]
fn background_install_rebuilds_luts() {
    let cfg = PnwConfig::new(256, 8).with_clusters(3).with_seed(9);
    let mut m = ModelManager::new(&cfg);
    let values = random_values(96, 8, 3, 3);
    m.train_in_background(values.clone());
    assert!(m.wait_for_background());
    assert!(m.uses_packed());
    assert_equivalent(&m, &values);
}
