//! # bas-bench — shared plumbing for the figure-reproduction benches
//!
//! Every figure of the paper's evaluation (§5, Figures 1–9) has a bench
//! target under `benches/` that regenerates the figure's series as a
//! table: same datasets (via the generators of `bas-data`), same
//! algorithm set, same axes (average error `‖x−x̂‖₁/n` and maximum error
//! `‖x−x̂‖∞` versus sketch width `s` or depth `d`).
//!
//! Scale knobs (environment variables):
//!
//! * `BAS_SCALE` — multiplies every dataset size (default 1; the
//!   defaults are laptop-sized, see EXPERIMENTS.md for the mapping to
//!   paper-scale runs);
//! * `BAS_TRIALS` — independent trials to average per point (default 1).

#![forbid(unsafe_code)]

use bas_core::oracle;
use bas_eval::table::fmt_err;
use bas_eval::{PointQueryResult, ResultTable};

/// Dataset scale multiplier from `BAS_SCALE`.
pub fn scale() -> f64 {
    std::env::var("BAS_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a default dataset size by `BAS_SCALE`.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(1_000)
}

/// Trial count from `BAS_TRIALS`.
pub fn trials() -> usize {
    std::env::var("BAS_TRIALS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// Prints the oracle context for a dataset: the best bias `β*` and the
/// de-biased vs plain tail errors at a reference `k`, so the measured
/// sketch errors can be read against the theory.
pub fn print_dataset_summary(name: &str, x: &[f64], k: usize) {
    let n = x.len();
    let mean = x.iter().sum::<f64>() / n as f64;
    let t1 = oracle::min_beta_err_k1(x, k);
    let t2 = oracle::min_beta_err_k2(x, k);
    println!("dataset {name}: n = {n}, mean = {mean:.2}");
    println!(
        "  oracle @ k={k}: beta* = {:.2} | Err_1^k = {} vs min_b = {} | Err_2^k = {} vs min_b = {}",
        t2.beta,
        fmt_err(oracle::err_k_p(x, k, 1)),
        fmt_err(t1.err),
        fmt_err(oracle::err_k_p(x, k, 2)),
        fmt_err(t2.err),
    );
}

/// Renders a width/depth sweep as the two sub-figure tables (average
/// and maximum error), in the paper's orientation: one row per
/// algorithm, one column per x-axis value.
pub fn print_sweep_tables(title: &str, results: &[PointQueryResult], x_axis: &str) {
    let mut xs: Vec<usize> = results
        .iter()
        .map(|r| {
            if x_axis == "d" {
                r.config_depth
            } else {
                r.width
            }
        })
        .collect();
    xs.sort_unstable();
    xs.dedup();
    let mut algos: Vec<&'static str> = Vec::new();
    for r in results {
        if !algos.contains(&r.algorithm) {
            algos.push(r.algorithm);
        }
    }

    for (metric, pick) in [("average error", 0usize), ("maximum error", 1usize)] {
        let mut headers: Vec<String> = vec!["algorithm".to_string()];
        headers.extend(xs.iter().map(|w| format!("{x_axis}={w}")));
        let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        let mut table = ResultTable::new(format!("{title} — {metric}"), &header_refs);
        for &algo in &algos {
            let mut row = vec![algo.to_string()];
            for &w in &xs {
                let cell = results
                    .iter()
                    .find(|r| {
                        r.algorithm == algo
                            && (if x_axis == "d" {
                                r.config_depth
                            } else {
                                r.width
                            }) == w
                    })
                    .map(|r| {
                        fmt_err(if pick == 0 {
                            r.errors.avg_err
                        } else {
                            r.errors.max_err
                        })
                    })
                    .unwrap_or_else(|| "-".to_string());
                row.push(cell);
            }
            table.push_row(row);
        }
        println!("{}", table.to_text());
    }
}

/// Prints per-point timing (sketching and recovery seconds).
pub fn print_timing_table(title: &str, results: &[PointQueryResult]) {
    let mut table = ResultTable::new(
        format!("{title} — timing"),
        &["algorithm", "s", "ingest (s)", "recover (s)"],
    );
    for r in results {
        table.push_row(vec![
            r.algorithm.to_string(),
            r.width.to_string(),
            format!("{:.3}", r.build_secs),
            format!("{:.3}", r.recover_secs),
        ]);
    }
    println!("{}", table.to_text());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_default_is_one() {
        // Cannot assume the env var is unset under `cargo test`, so just
        // check the parser's fallback path with the current environment.
        let s = scale();
        assert!(s > 0.0);
        assert!(scaled(100_000) >= 1_000);
        assert!(trials() >= 1);
    }

    #[test]
    fn sweep_tables_render() {
        use bas_eval::{run_width_sweep, Algorithm, SweepConfig};
        let x: Vec<f64> = (0..2000).map(|i| 50.0 + (i % 5) as f64).collect();
        let cfg = SweepConfig {
            widths: vec![64, 128],
            depth: 3,
            trials: 1,
            seed: 1,
        };
        let res = run_width_sweep(&x, &[Algorithm::L2SR, Algorithm::CountSketch], &cfg);
        // Should not panic; visual output checked by the bench runs.
        print_sweep_tables("unit-test", &res, "s");
        print_timing_table("unit-test", &res);
        print_dataset_summary("unit-test", &x, 16);
    }
}
