//! Golden check for the paper reproduction: every table and figure of
//! `repro_all --quick`, rendered through `pnw_bench::figures`, must match
//! `tests/golden/figures_quick.txt` byte for byte once the wall-clock
//! timing fields are masked. Removing or restructuring code must not move
//! a single reproduced number.
//!
//! The full check renders the quick reproduction (about 14 s optimised,
//! about 9 min unoptimised), so it only runs in release builds:
//! `cargo test --release -q --test figures_golden`.

use std::ops::Range;

use pnw_bench::{figures, Scale};

/// The fields of one output line that hold wall-clock timings, counted
/// from the end of the line (0 = last field), given the figure the line
/// belongs to. Everything else is a deterministic count or ratio.
fn timed_fields(section: &str, line: &str) -> Range<usize> {
    let row = line.trim_start();
    let first_is_number = row
        .split_whitespace()
        .next()
        .is_some_and(|t| t.parse::<f64>().is_ok());
    let last_is_number = row
        .split_whitespace()
        .last()
        .is_some_and(|t| t.parse::<f64>().is_ok());
    if section.starts_with("Figure 6 ") && row.starts_with("PNW k=") {
        0..1 // predict µs
    } else if section.starts_with("Figure 7 ")
        && row.starts_with("PNW k=20 ")
        && !row.contains("(device only)")
    {
        0..6 // end-to-end latency includes measured prediction time
    } else if section.starts_with("Figure 8 ") && first_is_number {
        1..2 // avg write latency µs
    } else if section.starts_with("Figure 11 ") && last_is_number {
        0..3 // 1-core ms, 4-core ms, speedup
    } else {
        0..0
    }
}

/// Masks the timing fields of a rendered reproduction. Each masked field
/// becomes `~` at its right edge, so right-aligned columns keep their
/// layout whatever the width of the measured value.
fn mask(text: &str) -> String {
    let mut section = "";
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        if line.starts_with("Figure ") || line.starts_with("Table ") {
            section = line;
        }
        let timed = timed_fields(section, line);
        let spans: Vec<(usize, usize)> = line
            .split_whitespace()
            .map(|t| {
                let start = t.as_ptr() as usize - line.as_ptr() as usize;
                (start, start + t.len())
            })
            .collect();
        let mut masked = line.to_string();
        for (from_end, &(start, end)) in spans.iter().rev().enumerate() {
            if timed.contains(&from_end) && line[start..end].parse::<f64>().is_ok() {
                let blank = " ".repeat(line[start..end].chars().count() - 1) + "~";
                masked.replace_range(start..end, &blank);
            }
        }
        out.push_str(&masked);
        out.push('\n');
    }
    out
}

#[test]
fn mask_hides_only_timing_fields() {
    let text = "\
Figure 6 — Amazon Access Samples
     DCW                   44.36
 PNW k=1                   44.13         0.48
PNW k=10                   15.83        12.55
Figure 7 — normalized write latency
              PNW k=20  1.213  1.636
PNW k=20 (device only)  1.000  1.164
Figure 8 — latency vs K (PubMed-like)
 1                   4.03         5.56
Figure 11 — training time
Sherbrooke   2      200     143.02     191.17     0.75
";
    let expected = "\
Figure 6 — Amazon Access Samples
     DCW                   44.36
 PNW k=1                   44.13            ~
PNW k=10                   15.83            ~
Figure 7 — normalized write latency
              PNW k=20      ~      ~
PNW k=20 (device only)  1.000  1.164
Figure 8 — latency vs K (PubMed-like)
 1                      ~         5.56
Figure 11 — training time
Sherbrooke   2      200          ~          ~        ~
";
    assert_eq!(mask(text), expected);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "renders the whole quick reproduction; run with --release"
)]
fn quick_reproduction_matches_golden() {
    let mut out = Vec::new();
    figures::write_all(Scale::Quick, &mut out).expect("render into memory");
    let actual = mask(&String::from_utf8(out).expect("tables are UTF-8"));
    let golden = include_str!("golden/figures_quick.txt");
    for (i, (a, g)) in actual.lines().zip(golden.lines()).enumerate() {
        assert_eq!(a, g, "line {} of the golden differs", i + 1);
    }
    assert_eq!(actual.lines().count(), golden.lines().count(), "line count");
}
