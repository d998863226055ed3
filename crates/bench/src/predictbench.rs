//! Prediction-kernel microbenchmark.
//!
//! The paper budgets 5–6 µs of model latency per PUT (§VI-D, Figure 6);
//! the bit-domain LUT kernel ([`pnw_ml::packed`]) replaces the float
//! featurize-then-scan path on that budget's critical path. This module
//! measures both implementations on the *same trained model* across value
//! sizes and cluster counts, reporting ns/op — the numbers recorded in
//! `BENCH_predict.json` by the `predict` binary.
//!
//! PCA is disabled for the packed sweep (threshold raised above every
//! measured size) so the float baseline is always the full featurize +
//! dense-scan pipeline the packed kernel replaces. One further row
//! ([`measure_pca_case`]) keeps the default PCA policy on 256-B
//! Amazon-like values and times the set-bit projector those models
//! predict through, dispatched and scalar.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use pnw_core::{ModelManager, PcaPolicy, PnwConfig, PredictScratch};
use pnw_ml::featurize::bits_to_features;
use pnw_ml::packed::PackedPredictor;
use pnw_workloads::{SparseBinary, Workload};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One (value size, cluster count) measurement point.
#[derive(Debug, Clone, Copy)]
pub struct PredictCase {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K.
    pub k: usize,
}

/// The default sweep: value sizes around the paper's small-item regime
/// with a K sweep at 64 B (the acceptance point is 64 B / K = 16).
pub fn default_cases() -> Vec<PredictCase> {
    [(8, 16), (64, 4), (64, 16), (64, 64), (256, 16)]
        .into_iter()
        .map(|(value_size, k)| PredictCase { value_size, k })
        .collect()
}

/// ns/op results for one case.
#[derive(Debug, Clone)]
pub struct PredictResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K actually fitted (may be below the request on tiny
    /// data; the generator provides ≥ K distinct patterns so it never is).
    pub k: usize,
    /// Timed iterations per path.
    pub iters: u64,
    /// Packed LUT kernel (runtime-dispatched SIMD), nanoseconds per
    /// prediction.
    pub packed_ns: f64,
    /// The same packed LUT tables forced onto the scalar fallback kernel,
    /// nanoseconds per prediction — isolates the SIMD gather's gain from
    /// the bit-domain reformulation itself.
    pub packed_scalar_ns: f64,
    /// Float featurize + dense scan, nanoseconds per prediction.
    pub float_ns: f64,
    /// `float_ns / packed_ns`.
    pub speedup: f64,
    /// `packed_scalar_ns / packed_ns` — 1.0 on hosts where no SIMD kernel
    /// is compiled in or detected.
    pub simd_speedup: f64,
}

/// Deterministic value generator: `families` byte-fill patterns plus a
/// random tail, the same shape the throughput harness writes.
fn gen_values(n: usize, value_size: usize, families: usize, seed: u64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let fill = (255 / families.max(1) * (i % families.max(1))) as u8;
            let mut v = vec![fill; value_size];
            let tail = value_size.min(4);
            for b in &mut v[value_size - tail..] {
                *b = rng.gen();
            }
            v
        })
        .collect()
}

/// Trains a manager for one case (PCA disabled so the float baseline is
/// the full bit-feature scan at every size).
pub fn trained_manager(case: PredictCase, seed: u64) -> ModelManager {
    let cfg = PnwConfig::new(1024, case.value_size)
        .with_clusters(case.k)
        .with_seed(seed)
        .with_pca(PcaPolicy {
            threshold_bits: usize::MAX,
            ..PcaPolicy::default()
        });
    let mut m = ModelManager::new(&cfg);
    m.train(&gen_values(512, case.value_size, case.k.max(4), seed ^ 0xFEED));
    assert!(m.uses_packed(), "bench model must be bit-domain");
    m
}

/// Measures one case: `iters` timed predictions per path (clamped to ≥ 1
/// so the ns/op division is always defined) over a rotating probe set,
/// after an eighth of that as warm-up.
pub fn measure_case(case: PredictCase, iters: u64, seed: u64) -> PredictResult {
    let iters = iters.max(1);
    let m = trained_manager(case, seed);
    let probes = gen_values(64, case.value_size, case.k.max(4), seed ^ 0xBEEF);
    let mut scratch = PredictScratch::new();

    let mut sink = 0usize;
    for (i, v) in probes.iter().cycle().take((iters / 8).max(1) as usize).enumerate() {
        sink ^= m.predict_into(v, &mut scratch) ^ i;
    }
    let t0 = Instant::now();
    for v in probes.iter().cycle().take(iters as usize) {
        sink ^= m.predict_into(black_box(v), &mut scratch);
    }
    let packed_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Same LUT tables, scalar accumulator forced: what the packed path
    // costs on a host without usable vector units.
    let packed = PackedPredictor::from_centroids(m.kmeans().centroids());
    let mut dist = vec![0.0f32; m.k()];
    for v in probes.iter().cycle().take((iters / 8).max(1) as usize) {
        sink ^= packed.distances_into_scalar(v, &mut dist);
    }
    let t0 = Instant::now();
    for v in probes.iter().cycle().take(iters as usize) {
        sink ^= packed.distances_into_scalar(black_box(v), &mut dist);
    }
    let packed_scalar_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Reference float path: featurize into a fresh feature vector, dense
    // K×d scan — exactly what every PUT paid before the packed kernel.
    for v in probes.iter().cycle().take((iters / 8).max(1) as usize) {
        sink ^= m.kmeans().predict(&bits_to_features(v));
    }
    let t0 = Instant::now();
    for v in probes.iter().cycle().take(iters as usize) {
        sink ^= m.kmeans().predict(&bits_to_features(black_box(v)));
    }
    let float_ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    black_box(sink);

    PredictResult {
        value_size: case.value_size,
        k: m.k(),
        iters,
        packed_ns,
        packed_scalar_ns,
        float_ns,
        speedup: float_ns / packed_ns.max(1e-9),
        simd_speedup: packed_scalar_ns / packed_ns.max(1e-9),
    }
}

/// Runs the whole sweep.
pub fn run_sweep(cases: &[PredictCase], iters: u64, seed: u64) -> Vec<PredictResult> {
    cases.iter().map(|&c| measure_case(c, iters, seed)).collect()
}

/// ns/op results for the PCA row.
#[derive(Debug, Clone)]
pub struct PcaPredictResult {
    /// Value size in bytes.
    pub value_size: usize,
    /// Cluster count K.
    pub k: usize,
    /// PCA components the values are projected onto.
    pub components: usize,
    /// Timed iterations per path.
    pub iters: u64,
    /// The model's whole prediction (projection plus the PCA-space
    /// centroid scan), nanoseconds per prediction.
    pub predict_ns: f64,
    /// `BitProjector::project_into` (runtime-dispatched SIMD), nanoseconds
    /// per projection.
    pub projector_ns: f64,
    /// `BitProjector::project_into_scalar` on the same projector,
    /// nanoseconds per projection.
    pub projector_scalar_ns: f64,
    /// `projector_scalar_ns / projector_ns`.
    pub simd_speedup: f64,
}

/// Measures the PCA row: 256-B `SparseBinary::amazon_like` values, K = 14
/// (fig6's knee), the default PCA policy. Same warm-up and rotating probe
/// set as [`measure_case`].
pub fn measure_pca_case(iters: u64, seed: u64) -> PcaPredictResult {
    let iters = iters.max(1);
    let mut w = SparseBinary::amazon_like(seed);
    let cfg = PnwConfig::new(4096, w.value_size()).with_clusters(14).with_seed(seed);
    let mut m = ModelManager::new(&cfg);
    m.train(&w.take_values(2048));
    let proj = m.projector().expect("256-B values exceed the PCA threshold");
    let probes = w.take_values(64);
    let mut scratch = PredictScratch::new();
    let mut y = vec![0.0f32; proj.n_components()];
    let mut sink = 0usize;
    let mut time = |f: &mut dyn FnMut(&[u8]) -> usize| {
        for v in probes.iter().cycle().take((iters / 8).max(1) as usize) {
            sink ^= f(v);
        }
        let t0 = Instant::now();
        for v in probes.iter().cycle().take(iters as usize) {
            sink ^= f(black_box(v));
        }
        t0.elapsed().as_nanos() as f64 / iters as f64
    };
    let predict_ns = time(&mut |v| m.predict_into(v, &mut scratch));
    let projector_ns = time(&mut |v| {
        proj.project_into(v, &mut y);
        y[0].to_bits() as usize
    });
    let projector_scalar_ns = time(&mut |v| {
        proj.project_into_scalar(v, &mut y);
        y[0].to_bits() as usize
    });
    black_box(sink);
    PcaPredictResult {
        value_size: w.value_size(),
        k: m.k(),
        components: proj.n_components(),
        iters,
        predict_ns,
        projector_ns,
        projector_scalar_ns,
        simd_speedup: projector_scalar_ns / projector_ns.max(1e-9),
    }
}

/// Serializes results as JSON (hand-rolled, like the throughput harness —
/// the workspace has no JSON dependency) for `BENCH_predict.json`: the
/// packed sweep's rows, then the PCA row.
pub fn to_json(results: &[PredictResult], pca: &PcaPredictResult) -> String {
    let mut out = String::from("{\n  \"bench\": \"predict\",\n  \"unit\": \"ns/op\",\n  \"results\": [\n");
    for r in results {
        out.push_str(&format!(
            "    {{\"value_size\": {}, \"k\": {}, \"iters\": {}, \
             \"packed_ns\": {:.1}, \"packed_scalar_ns\": {:.1}, \"float_ns\": {:.1}, \
             \"speedup\": {:.2}, \"simd_speedup\": {:.2}}},\n",
            r.value_size,
            r.k,
            r.iters,
            r.packed_ns,
            r.packed_scalar_ns,
            r.float_ns,
            r.speedup,
            r.simd_speedup,
        ));
    }
    out.push_str(&format!(
        "    {{\"value_size\": {}, \"k\": {}, \"pca_components\": {}, \"iters\": {}, \
         \"predict_ns\": {:.1}, \"projector_ns\": {:.1}, \"projector_scalar_ns\": {:.1}, \
         \"simd_speedup\": {:.2}}}\n  ]\n}}\n",
        pca.value_size,
        pca.k,
        pca.components,
        pca.iters,
        pca.predict_ns,
        pca.projector_ns,
        pca.projector_scalar_ns,
        pca.simd_speedup,
    ));
    out
}

/// Writes [`to_json`] output to `path`.
pub fn write_json(path: &Path, results: &[PredictResult], pca: &PcaPredictResult) -> std::io::Result<()> {
    std::fs::write(path, to_json(results, pca))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_produces_sane_numbers() {
        let r = measure_case(PredictCase { value_size: 16, k: 4 }, 200, 7);
        assert_eq!(r.value_size, 16);
        assert_eq!(r.k, 4);
        assert!(r.packed_ns > 0.0);
        assert!(r.packed_scalar_ns > 0.0);
        assert!(r.float_ns > 0.0);
        assert!(r.speedup > 0.0);
        assert!(r.simd_speedup > 0.0);
    }

    #[test]
    fn json_shape() {
        let pca = measure_pca_case(50, 3);
        assert_eq!((pca.value_size, pca.k, pca.components), (256, 14, 32));
        assert!(pca.predict_ns > 0.0 && pca.projector_ns > 0.0 && pca.projector_scalar_ns > 0.0);
        let j = to_json(&run_sweep(&[PredictCase { value_size: 8, k: 2 }], 100, 3), &pca);
        assert!(j.contains("\"bench\": \"predict\""));
        assert!(j.contains("\"packed_ns\""));
        assert!(j.contains("\"packed_scalar_ns\""));
        assert!(j.contains("\"speedup\""));
        assert!(j.contains("\"simd_speedup\""));
        assert!(j.contains("\"projector_ns\""));
        assert!(j.contains("\"projector_scalar_ns\""));
        assert!(j.trim_end().ends_with("}\n  ]\n}"), "{j}");
    }

    #[test]
    fn both_paths_agree_on_predictions() {
        let case = PredictCase { value_size: 32, k: 8 };
        let m = trained_manager(case, 11);
        let mut scratch = PredictScratch::new();
        for v in gen_values(32, 32, 8, 99) {
            assert_eq!(
                m.predict_into(&v, &mut scratch),
                m.kmeans().predict(&bits_to_features(&v)),
            );
        }
    }
}
