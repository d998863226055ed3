//! One function per paper table/figure.
//!
//! Every function returns a [`Table`] whose rows mirror what the paper
//! plots, so the binaries just print them. `EXPERIMENTS.md` records the
//! paper-reported vs measured values for each.

use pnw_core::{IndexPlacement, PnwConfig, PnwStore, RetrainMode, Store};
use pnw_ml::elbow::{elbow_point, sse_curve};
use pnw_ml::featurize::featurize_values;
use pnw_ml::kmeans::{KMeans, KMeansConfig};
use pnw_ml::matrix::Matrix;
use pnw_ml::pca::Pca;
use pnw_nvm_sim::MemoryTech;
use pnw_schemes::SchemeKind;
use pnw_workloads::{DatasetKind, ImageStyle, Interleaved, TemplateImages, Workload};

use crate::replace::{run_pnw, run_scheme, time_training, ReplaceParams, SeriesPoint};
use crate::table::{f2, f3, Table};
use crate::Scale;

/// Cluster counts swept in Figure 6 (the paper sweeps 1..30).
pub const FIG6_KS: [usize; 7] = [1, 2, 5, 10, 14, 20, 30];

fn dataset_params(dataset: DatasetKind, scale: Scale) -> ReplaceParams {
    // Small values get big zones; large values are scaled to keep the
    // harness minutes-scale (shape, not absolute throughput, is the target).
    let value_size = dataset.build(0).value_size();
    let (buckets, writes) = if value_size <= 16 {
        (scale.pick(512, 8192), scale.pick(512, 16384))
    } else if value_size <= 512 {
        (scale.pick(192, 2048), scale.pick(192, 4096))
    } else {
        (scale.pick(128, 1024), scale.pick(128, 2048))
    };
    ReplaceParams {
        buckets,
        writes,
        seed: 0xF1_60 + dataset as u64,
    }
}

/// Figure 3: PCA cumulative explained-variance ratio vs number of
/// components, on MNIST-like images.
pub fn fig3(scale: Scale) -> Table {
    let n = scale.pick(128, 512);
    let mut w = TemplateImages::new(ImageStyle::Digits, 33);
    let values = w.take_values(n);
    let data = featurize_values(&values);
    let pca = Pca::fit(&data, 1); // spectrum is computed in full regardless
    let cum = pca.cumulative_variance_ratio();

    let mut t = Table::new(vec!["components", "cumulative variance ratio"]);
    for &c in &[1usize, 2, 5, 10, 20, 50, 100, 200, 400] {
        if c <= cum.len() {
            t.row(vec![c.to_string(), f3(cum[c - 1])]);
        }
    }
    t.row(vec![
        format!(">=80% variance at"),
        format!("{} components", pca.components_for_variance(0.8)),
    ]);
    t
}

/// Figure 4: K-means SSE vs K on MNIST-like images, with the detected
/// elbow.
pub fn fig4(scale: Scale) -> (Table, usize) {
    let n = scale.pick(96, 256);
    let mut w = TemplateImages::new(ImageStyle::Digits, 44);
    let values = w.take_values(n);
    let data = featurize_values(&values);
    let ks: Vec<usize> = (1..=15).collect();
    let curve = sse_curve(&data, &ks, 44);
    let elbow = elbow_point(&curve);

    let mut t = Table::new(vec!["K", "SSE"]);
    for (k, sse) in &curve {
        let marker = if *k == elbow { " <- elbow" } else { "" };
        t.row(vec![k.to_string(), format!("{}{}", f2(f64::from(*sse)), marker)]);
    }
    (t, elbow)
}

/// Figure 6 (one panel): bit updates per 512 bits for every baseline plus
/// PNW across the K sweep, and PNW's prediction latency.
pub fn fig6(dataset: DatasetKind, scale: Scale) -> Table {
    let p = dataset_params(dataset, scale);
    let mut t = Table::new(vec!["method", "bit updates / 512 bits", "predict µs"]);
    for kind in SchemeKind::all() {
        let s = run_scheme(kind, dataset, &p);
        t.row(vec![s.label, f2(s.flips_per_512), String::new()]);
    }
    for &k in &FIG6_KS {
        let s = run_pnw(dataset, k, &p, 1);
        t.row(vec![s.label, f2(s.flips_per_512), f2(s.predict_us)]);
    }
    t
}

/// All six Figure 6 panels.
pub fn fig6_datasets() -> [DatasetKind; 6] {
    [
        DatasetKind::Amazon,
        DatasetKind::Road,
        DatasetKind::Sherbrooke,
        DatasetKind::Traffic,
        DatasetKind::Normal,
        DatasetKind::Uniform,
    ]
}

/// Figure 7: end-to-end write latency per dataset per method, normalized to
/// the conventional write (paper reports normalized time).
pub fn fig7(scale: Scale) -> Table {
    let datasets = [
        DatasetKind::Normal,
        DatasetKind::Uniform,
        DatasetKind::Amazon,
        DatasetKind::Road,
        DatasetKind::Cifar,
        DatasetKind::Traffic,
    ];
    let mut header = vec!["method".to_string()];
    header.extend(datasets.iter().map(|d| d.name().to_string()));
    let mut t = Table::new(header);

    // Collect per-dataset series.
    let mut columns: Vec<Vec<SeriesPoint>> = Vec::new();
    for &d in &datasets {
        let p = dataset_params(d, scale);
        let mut col: Vec<SeriesPoint> = SchemeKind::all()
            .iter()
            .map(|&k| run_scheme(k, d, &p))
            .collect();
        col.push(run_pnw(d, 20, &p, 1));
        columns.push(col);
    }
    let n_methods = columns[0].len();
    for m in 0..n_methods {
        let label = columns[0][m].label.clone();
        let mut row = vec![label];
        for col in &columns {
            let conv = col[0].latency_ns.max(1e-9);
            row.push(f3(col[m].latency_ns / conv));
        }
        t.row(row);
    }
    // The PNW row above includes measured model-prediction time. At the
    // paper's full item sizes (800×600 frames ≈ 480 KB ≈ 7500 cache lines)
    // prediction is <1% of the write cost; at this harness's scaled-down
    // item sizes it dominates, so the device-only row is the one whose
    // *shape* reproduces Figure 7. EXPERIMENTS.md discusses both.
    let mut row = vec!["PNW k=20 (device only)".to_string()];
    for col in &columns {
        let conv = col[0].latency_ns.max(1e-9);
        let pnw = col.last().expect("pnw column");
        let device_only = pnw.latency_ns - pnw.predict_us * 1000.0;
        row.push(f3(device_only / conv));
    }
    t.row(row);
    t
}

/// Figure 8: average write latency vs K on the PubMed-like workload
/// (insert:delete 1:1, which `run_pnw`'s put-then-delete loop is).
pub fn fig8(scale: Scale) -> Table {
    let p = dataset_params(DatasetKind::PubMed, scale);
    let mut t = Table::new(vec!["K", "avg write latency µs", "lines/write"]);
    for &k in &FIG6_KS {
        let s = run_pnw(DatasetKind::PubMed, k, &p, 1);
        t.row(vec![
            k.to_string(),
            f2(s.latency_ns / 1000.0),
            f2(s.lines_per_write),
        ]);
    }
    t
}

/// Figure 9: average written cache lines per request, PNW vs FPTree vs
/// NoveLSM vs Path hashing; insert n items then delete 0.5n (§VI-E).
pub fn fig9(scale: Scale) -> Table {
    use pnw_baselines::{FpTreeLike, NoveLsmLike, PathHashStore};

    let datasets = [DatasetKind::Normal, DatasetKind::Road, DatasetKind::Amazon];
    let n = scale.pick(384, 4096);

    let mut header = vec!["store".to_string()];
    header.extend(datasets.iter().map(|d| d.name().to_string()));
    let mut t = Table::new(header);

    let mut rows: Vec<Vec<String>> = vec![
        vec!["FPTree".into()],
        vec!["NoveLSM".into()],
        vec!["Path hashing".into()],
        vec!["PNW".into()],
    ];

    for &d in &datasets {
        // Paper methodology (§VI-B): warm with the first items of the
        // dataset, then write the *remaining* items. One generator supplies
        // both, so the warm-up content and the incoming values share their
        // latent structure without being identical.
        let mut w = d.build(0x919);
        let vs = w.value_size();
        let warmup: Vec<Vec<u8>> = w.take_values(n * 2);
        let values: Vec<Vec<u8>> = w.take_values(n);

        // All four backends behind the one `Store` trait — no adapter.
        let stores: Vec<Box<dyn Store>> = vec![
            Box::new(FpTreeLike::new(n * 2, vs)),
            Box::new(NoveLsmLike::new(n * 2, vs)),
            Box::new(PathHashStore::new(n * 2, vs)),
            Box::new({
                // Figure 2a configuration (DRAM index), as §VI-E states.
                let cfg = PnwConfig::new(n * 2, vs)
                    .with_clusters(10)
                    .with_index(IndexPlacement::Dram)
                    .with_retrain(RetrainMode::Manual);
                let s = PnwStore::new(cfg);
                let mut it = warmup.iter();
                s.prefill_free_buckets(|| it.next().expect("enough warmup").clone())
                    .expect("prefill");
                s.retrain_now().expect("train");
                s
            }),
        ];

        for (row, store) in rows.iter_mut().zip(stores.iter()) {
            store.reset_device_stats();
            for (i, v) in values.iter().enumerate() {
                store.put(i as u64, v).expect("capacity suffices");
            }
            for i in 0..n / 2 {
                store.delete(i as u64).expect("inserted above");
            }
            let ops = (n + n / 2) as f64;
            let lines = store.device_stats().totals.lines_written as f64;
            row.push(f2(lines / ops));
        }
    }
    for r in rows {
        t.row(r);
    }
    t
}

/// One Figure 10 measurement window.
#[derive(Debug, Clone)]
pub struct Fig10Point {
    /// Items streamed so far.
    pub written: usize,
    /// Phase number (1–4).
    pub phase: usize,
    /// Mean bit updates per 512 bits over the window.
    pub flips_per_512: f64,
}

/// Figure 10: workload shift MNIST → Fashion-MNIST over four phases, with
/// the model retrained only at the start of phase 4.
pub fn fig10(scale: Scale) -> (Table, Vec<Fig10Point>) {
    let capacity = scale.pick(384, 4096);
    let per_phase = [
        scale.pick(400, 8000),  // phase 1: MNIST only
        scale.pick(450, 9000),  // phase 2: Fashion:MNIST at 2:1
        scale.pick(200, 4000),  // phase 3: Fashion only
        scale.pick(400, 8000),  // phase 4: Fashion, after retraining
    ];
    let window = scale.pick(100, 500);

    // K = 20: the stream spans two 10-class distributions, and the zone
    // holds a mixture of both around the phase boundaries.
    let store = PnwStore::new(
        PnwConfig::new(capacity, 784)
            .with_clusters(20)
            .with_seed(0xF1_610)
            .with_retrain(RetrainMode::Manual),
    );
    let mut mnist_warm = TemplateImages::new(ImageStyle::Digits, 1);
    store
        .prefill_free_buckets(|| mnist_warm.next_value())
        .expect("prefill");
    store.retrain_now().expect("train");
    store.reset_device_stats();

    let mut points = Vec::new();
    let mut written = 0usize;
    let mut win_flips = 0u64;
    let mut win_bits = 0u64;
    let mut next_key = 0u64;

    let mut run_phase = |store: &PnwStore,
                         w: &mut dyn Workload,
                         n: usize,
                         phase: usize,
                         points: &mut Vec<Fig10Point>| {
        for _ in 0..n {
            let v = w.next_value();
            let r = store.put(next_key, &v).expect("replacement keeps pool full");
            store.delete(next_key).expect("just inserted");
            next_key += 1;
            written += 1;
            win_flips += r.value_write.total_bit_flips();
            win_bits += r.value_write.bits_addressed;
            if written.is_multiple_of(window) {
                points.push(Fig10Point {
                    written,
                    phase,
                    flips_per_512: win_flips as f64 * 512.0 / win_bits.max(1) as f64,
                });
                win_flips = 0;
                win_bits = 0;
            }
        }
    };

    // One MNIST dataset and one Fashion dataset across all phases, exactly
    // as the paper streams from the same two datasets: the class templates
    // derive from the generator seed, so the template seeds stay fixed —
    // while each phase gets a fresh *sample stream* (same distribution,
    // new draws; replaying the prefill stream verbatim would score
    // zero-flip exact matches).
    const MNIST_SEED: u64 = 1;
    const FASHION_SEED: u64 = 9;

    let mut p1 = TemplateImages::new(ImageStyle::Digits, MNIST_SEED).with_stream_seed(101);
    run_phase(&store, &mut p1, per_phase[0], 1, &mut points);

    let mut p2 = Interleaved::new(
        TemplateImages::new(ImageStyle::Fashion, FASHION_SEED).with_stream_seed(102),
        TemplateImages::new(ImageStyle::Digits, MNIST_SEED).with_stream_seed(103),
        2,
        1,
    );
    run_phase(&store, &mut p2, per_phase[1], 2, &mut points);

    let mut p3 = TemplateImages::new(ImageStyle::Fashion, FASHION_SEED).with_stream_seed(104);
    run_phase(&store, &mut p3, per_phase[2], 3, &mut points);

    // Phase 4: retrain on the (now Fashion-dominated) data zone.
    store.retrain_now().expect("retrain");
    let mut p4 = TemplateImages::new(ImageStyle::Fashion, FASHION_SEED).with_stream_seed(105);
    run_phase(&store, &mut p4, per_phase[3], 4, &mut points);

    let mut t = Table::new(vec!["written", "phase", "bit updates / 512 bits"]);
    for p in &points {
        t.row(vec![
            p.written.to_string(),
            p.phase.to_string(),
            f2(p.flips_per_512),
        ]);
    }
    (t, points)
}

/// Figure 11: model training time for K ∈ {2,4,8,16} at several sample
/// sizes, single-core vs multi-core, on the two video datasets.
pub fn fig11(scale: Scale) -> Table {
    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![200, 400],
        Scale::Full => vec![1000, 2000, 4000, 8000],
    };
    let mut t = Table::new(vec![
        "dataset", "K", "samples", "1-core ms", "4-core ms", "speedup",
    ]);
    for dataset in [DatasetKind::Traffic, DatasetKind::Sherbrooke] {
        for &k in &[2usize, 4, 8, 16] {
            for &n in &sizes {
                let t1 = time_training(dataset, k, n, 1, 0x11).as_secs_f64() * 1e3;
                let t4 = time_training(dataset, k, n, 4, 0x11).as_secs_f64() * 1e3;
                t.row(vec![
                    dataset.name().to_string(),
                    k.to_string(),
                    n.to_string(),
                    f2(t1),
                    f2(t4),
                    f2(t1 / t4.max(1e-9)),
                ]);
            }
        }
    }
    t
}

/// Wear experiment output: CDF checkpoints for Figures 12 and 13.
pub struct WearResult {
    /// `(x, P(word writes <= x))` checkpoints.
    pub word_cdf: Vec<(u32, f64)>,
    /// `(x, P(bit flips <= x))` checkpoints.
    pub bit_cdf: Vec<(u32, f64)>,
}

/// Figures 12/13: wear-leveling CDFs at k=5 and k=30 on the MNIST +
/// Fashion mixture; each word of the data zone updated ~4× on average.
pub fn fig12_13(k: usize, scale: Scale) -> WearResult {
    let capacity = scale.pick(256, 2048);
    let writes = capacity * 4;
    let mut mix = Interleaved::new(
        TemplateImages::new(ImageStyle::Digits, 7).with_stream_seed(201),
        TemplateImages::new(ImageStyle::Fashion, 8).with_stream_seed(202),
        1,
        1,
    );
    let store = PnwStore::new(
        PnwConfig::new(capacity, 784)
            .with_clusters(k)
            .with_seed(0x1213)
            .with_bit_wear(true)
            .with_retrain(RetrainMode::Manual),
    );
    store.prefill_free_buckets(|| mix.next_value()).expect("prefill");
    store.retrain_now().expect("train");
    // Stats and wear counters start clean so the CDFs cover the measured
    // stream only, not the warm-up.
    store.reset_device_stats();
    store.reset_wear();

    for i in 0..writes {
        let v = mix.next_value();
        store.put(i as u64, &v).expect("pool cycles");
        store.delete(i as u64).expect("just inserted");
    }

    let wcdf = store.word_wear_cdf();
    let bcdf = store.bit_wear_cdf().expect("bit wear enabled");

    let checkpoints = |max: u32| -> Vec<u32> {
        let mut xs: Vec<u32> = (0..=max.min(10)).collect();
        let mut x = 12;
        while x <= max {
            xs.push(x);
            x += x / 4 + 1;
        }
        xs.push(max);
        xs.dedup();
        xs
    };
    WearResult {
        word_cdf: checkpoints(wcdf.max())
            .into_iter()
            .map(|x| (x, wcdf.probability_le(x)))
            .collect(),
        bit_cdf: checkpoints(bcdf.max())
            .into_iter()
            .map(|x| (x, bcdf.probability_le(x)))
            .collect(),
    }
}

/// Renders a [`WearResult`] as the two CDF tables.
pub fn wear_tables(k: usize, r: &WearResult) -> (Table, Table) {
    let mut tw = Table::new(vec![
        format!("max writes per address (k={k})"),
        "P(X <= x)".to_string(),
    ]);
    for (x, p) in &r.word_cdf {
        tw.row(vec![x.to_string(), f3(*p)]);
    }
    let mut tb = Table::new(vec![
        format!("flips per bit (k={k})"),
        "P(X <= x)".to_string(),
    ]);
    for (x, p) in &r.bit_cdf {
        tb.row(vec![x.to_string(), f3(*p)]);
    }
    (tw, tb)
}

/// Writes every table and figure in paper order — the whole reproduction,
/// exactly as the `repro_all` binary prints it.
pub fn write_all(scale: Scale, out: &mut impl std::io::Write) -> std::io::Result<()> {
    writeln!(out, "== PNW reproduction: all tables and figures ({scale:?}) ==\n")?;
    writeln!(out, "Table I — memory technologies\n{}", table1().render())?;
    writeln!(out, "Table II — worked clustering example\n{}", table2().render())?;
    writeln!(out, "Figure 3 — PCA cumulative variance\n{}", fig3(scale).render())?;
    let (t4, elbow) = fig4(scale);
    writeln!(out, "Figure 4 — SSE vs K\n{}\nelbow at K = {elbow}\n", t4.render())?;
    for d in fig6_datasets() {
        writeln!(out, "Figure 6 — {}\n{}", d.name(), fig6(d, scale).render())?;
    }
    writeln!(out, "Figure 7 — normalized write latency\n{}", fig7(scale).render())?;
    writeln!(out, "Figure 8 — latency vs K (PubMed-like)\n{}", fig8(scale).render())?;
    writeln!(out, "Figure 9 — written cache lines per request\n{}", fig9(scale).render())?;
    let (t10, _) = fig10(scale);
    writeln!(out, "Figure 10 — workload shift\n{}", t10.render())?;
    writeln!(out, "Figure 11 — training time\n{}", fig11(scale).render())?;
    for k in [5usize, 30] {
        let r = fig12_13(k, scale);
        let (tw, tb) = wear_tables(k, &r);
        writeln!(out, "Figure 12 (k={k})\n{}", tw.render())?;
        writeln!(out, "Figure 13 (k={k})\n{}", tb.render())?;
    }
    Ok(())
}

/// Table I: memory-technology characteristics (the constants the latency
/// model uses).
pub fn table1() -> Table {
    let mut t = Table::new(vec![
        "Category",
        "Read Latency",
        "Write Latency",
        "Write Endurance",
    ]);
    for (name, tech) in [
        ("HDD", MemoryTech::Hdd),
        ("DRAM", MemoryTech::Dram),
        ("PCM", MemoryTech::Pcm),
        ("ReRAM", MemoryTech::ReRam),
        ("SLC Flash", MemoryTech::SlcFlash),
        ("STT-RAM", MemoryTech::SttRam),
        ("3D-XPoint", MemoryTech::Xpoint),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:?}", tech.read_latency()),
            format!("{:?}", tech.write_latency()),
            format!("{:.0e}", tech.endurance_writes()),
        ]);
    }
    t
}

/// Table II: the 6-entry worked example — cluster it, show the labels and
/// verify the paper's "1 bit per item" claim for d1 and d2.
pub fn table2() -> Table {
    let rows: Vec<Vec<f32>> = vec![
        vec![0., 0., 0., 0., 0., 1., 1., 1.],
        vec![0., 0., 0., 0., 1., 0., 1., 1.],
        vec![0., 0., 1., 0., 1., 1., 0., 0.],
        vec![0., 0., 1., 1., 1., 1., 0., 0.],
        vec![1., 1., 0., 1., 0., 0., 0., 0.],
        vec![0., 1., 1., 1., 0., 0., 0., 0.],
    ];
    let data = Matrix::from_rows(&rows);
    let model = KMeans::fit(&data, &KMeansConfig::new(3).with_seed(42));
    let labels = model.labels(&data);

    let mut t = Table::new(vec!["index", "content", "cluster"]);
    for (i, row) in rows.iter().enumerate() {
        let content: String = row.iter().map(|&b| if b > 0.5 { '1' } else { '0' }).collect();
        t.row(vec![i.to_string(), content, labels[i].to_string()]);
    }
    // The paper's d1/d2 placements.
    let d1 = [0.0f32, 0., 0., 0., 1., 1., 1., 1.];
    let d2 = [1.0f32, 1., 1., 1., 0., 0., 0., 0.];
    let c1 = model.predict(&d1);
    let c2 = model.predict(&d2);
    // Min Hamming distance of d to the members of cluster c.
    let min_ham = |d: &[f32], c: usize| -> u32 {
        rows.iter()
            .zip(&labels)
            .filter(|(_, &l)| l == c)
            .map(|(r, _)| {
                r.iter()
                    .zip(d)
                    .filter(|(a, b)| (**a > 0.5) != (**b > 0.5))
                    .count() as u32
            })
            .min()
            .unwrap_or(u32::MAX)
    };
    t.row(vec![
        "d1=00001111".to_string(),
        format!("-> cluster {c1}"),
        format!("{} bit flip(s)", min_ham(&d1, c1)),
    ]);
    t.row(vec![
        "d2=11110000".to_string(),
        format!("-> cluster {c2}"),
        format!("{} bit flip(s)", min_ham(&d2, c2)),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_variance_is_monotone() {
        let t = fig3(Scale::Quick);
        assert!(t.rows.len() >= 5);
        let vals: Vec<f64> = t
            .rows
            .iter()
            .filter_map(|r| r[1].parse::<f64>().ok())
            .collect();
        for w in vals.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{vals:?}");
        }
    }

    #[test]
    fn fig4_produces_elbow_in_range() {
        let (t, elbow) = fig4(Scale::Quick);
        assert_eq!(t.rows.len(), 15);
        assert!((2..=15).contains(&elbow), "elbow={elbow}");
    }

    #[test]
    fn table2_matches_paper() {
        let t = table2();
        // 6 data rows + 2 placement rows.
        assert_eq!(t.rows.len(), 8);
        // Pairs share clusters.
        assert_eq!(t.rows[0][2], t.rows[1][2]);
        assert_eq!(t.rows[2][2], t.rows[3][2]);
        assert_eq!(t.rows[4][2], t.rows[5][2]);
        assert_ne!(t.rows[0][2], t.rows[2][2]);
        // The paper's headline: 1 bit per item, no extra flag bits.
        assert!(t.rows[6][2].starts_with('1'), "{:?}", t.rows[6]);
        assert!(t.rows[7][2].starts_with('1'), "{:?}", t.rows[7]);
    }

    #[test]
    fn table1_lists_all_technologies() {
        assert_eq!(table1().rows.len(), 7);
    }

    #[test]
    fn fig12_13_cdfs_are_valid() {
        let r = fig12_13(5, Scale::Quick);
        assert!(!r.word_cdf.is_empty());
        assert!(!r.bit_cdf.is_empty());
        let last = r.word_cdf.last().unwrap();
        assert!((last.1 - 1.0).abs() < 1e-9, "CDF must end at 1.0");
        for w in r.word_cdf.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn fig10_phase2_degrades_phase4_recovers() {
        let (_, points) = fig10(Scale::Quick);
        let mean = |ph: usize| -> f64 {
            let xs: Vec<f64> = points
                .iter()
                .filter(|p| p.phase == ph)
                .map(|p| p.flips_per_512)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let p1 = mean(1);
        let p2 = mean(2);
        let p3 = mean(3);
        let p4 = mean(4);
        // The paper's Figure 10 narrative: phase 2's foreign items spike the
        // bit flips immediately; phase 4 (same distribution as phase 3 but
        // with a retrained model) "got better and fluctuated less".
        assert!(p2 > p1 * 1.5, "mixing a new distribution must hurt: {p1} vs {p2}");
        assert!(p4 < p3 * 0.9, "retraining must help: phase3 {p3} vs phase4 {p4}");
    }
}
