//! Windowed cross-site aggregation: same-window planes summed by
//! linearity.
//!
//! [`aggregate_live`](crate::aggregate_live) answers *since-boot*
//! questions over still-ingesting sites. Telemetry coordinators ask
//! time-scoped ones — "global heavy hitters over the last K intervals"
//! — and the same linearity answers them: each site runs a windowed
//! `bas_serve::QueryEngine`, pins a
//! [`WindowSnapshot`] of its local window, and ships the frozen plane;
//! the coordinator adds planes cell-wise. Because every site's window
//! plane is already `cumulative − boundary` over the **same interval
//! range** (sites rotate on a shared interval clock, e.g. the
//! timestamps driving `bas_stream::drive_timestamped`), the sum is the
//! sketch of the *global* window vector — `Φx^{(a,t]} = Σᵢ Φxᵢ^{(a,t]}`
//! — at exactly the batch protocol's per-site upload cost.

use crate::meter::CommMeter;
use bas_serve::{combine_plane_estimates, EstimateCombine, WindowSnapshot};
use bas_sketch::{MergeError, Reseedable, SharedSketch, Snapshottable};

/// The coordinator's view after one round of windowed aggregation: the
/// merged global window plane plus the per-site positions and the
/// communication cost of the round.
#[derive(Debug)]
pub struct WindowAggregate<S: Snapshottable> {
    /// The merged global window plane `Σᵢ windowᵢ`. Query it with the
    /// configuration sketch of any site (all sites share seeds):
    /// `site_sketch.estimate_in(&agg.global, item)`.
    pub global: S::Snapshot,
    /// Number of sites aggregated.
    pub sites: usize,
    /// First interval the window covers (same at every site).
    pub start_interval: u64,
    /// Last interval the window covers (same at every site).
    pub end_interval: u64,
    /// Per-site updates inside the window, in site order.
    pub applied_per_site: Vec<u64>,
    /// Total delta mass inside the global window — the base for global
    /// heavy-hitter thresholds.
    pub mass: f64,
    /// Words each site uploads for its window plane (the sketch size —
    /// a subtracted plane is the same `s·d` counters a cumulative one
    /// is).
    pub words_per_site: u64,
    /// Total words this round (site uploads only).
    pub total_words: u64,
}

/// Merges per-site [`WindowSnapshot`]s of the **same window** by
/// linearity: the global plane starts zeroed and every site's frozen
/// plane is added cell-wise. The snapshots are borrowed, not consumed —
/// sites keep ingesting and rotating throughout, and the caller can
/// refresh the same snapshots for the next round.
///
/// All sites must cover the same interval range — window planes over
/// different ranges sum to the sketch of no meaningful vector, so a
/// mismatch is rejected rather than silently blended. Every plane must
/// also share one hasher configuration (seed included): counter-space
/// addition presumes bucket `(r, c)` means the same colliding set in
/// every plane, so mismatched-seed planes — other sites' seeds, or the
/// several generations of one seed-rotating site's window — are
/// rejected with [`MergeError::PlaneSeedMismatch`]; combine their
/// **estimates** with [`aggregate_window_estimates`] instead.
///
/// # Errors
/// Returns a [`MergeError`] if the windows cover different interval
/// ranges, hold planes pinned under different hasher configurations,
/// or the planes cannot be added.
///
/// # Panics
/// Panics if `windows` is empty.
pub fn aggregate_windows<S>(windows: &[WindowSnapshot<S>]) -> Result<WindowAggregate<S>, MergeError>
where
    S: Snapshottable + SharedSketch + Reseedable + Send,
{
    assert!(!windows.is_empty(), "need at least one site window");
    let meter = CommMeter::new();
    let (reference, _) = windows[0].planes().next().expect("a window holds a plane");
    let start_interval = windows[0].start_interval();
    let end_interval = windows[0].end_interval();
    let words_per_site = reference.size_in_words() as u64;

    let reference_config = reference.config();
    let mut applied_per_site = Vec::with_capacity(windows.len());
    let mut mass = 0.0;
    let mut global = reference.make_snapshot();
    for window in windows {
        if window.start_interval() != start_interval || window.end_interval() != end_interval {
            return Err(MergeError::ShapeMismatch {
                what: "window interval ranges",
            });
        }
        meter.record_upload(words_per_site);
        applied_per_site.push(window.applied());
        mass += window.mass();
        for (sketch, plane) in window.planes() {
            reference_config.check_counter_compatible(&sketch.config())?;
            reference.merge_snapshot(&mut global, plane)?;
        }
    }
    Ok(WindowAggregate {
        global,
        sites: windows.len(),
        start_interval,
        end_interval,
        applied_per_site,
        mass,
        words_per_site,
        total_words: meter.total_words(),
    })
}

/// Aggregates per-site windows in **estimate space**: each site's
/// plane is queried through its own hashers and the per-site estimates
/// are combined per item — the path that stays sound when the sites'
/// hasher configurations differ (independent seeds, per-site rotation
/// schedules), where [`aggregate_windows`] must refuse to add
/// counters.
///
/// For disjoint site streams use [`EstimateCombine::Sum`]; for
/// replicated streams (every site saw the same updates) use `Mean` or
/// `Median`. On homogeneous-seed sites the `Sum` path counter-merges
/// internally and agrees with [`aggregate_windows`] bit for bit
/// (`tests/estimate_space.rs`); on heterogeneous seeds each site
/// contributes its own error term.
///
/// # Errors
/// Returns a [`MergeError`] if the windows cover different interval
/// ranges.
///
/// # Panics
/// Panics if `windows` or `items` is empty-of-sites (at least one site
/// window is required).
pub fn aggregate_window_estimates<S>(
    windows: &[WindowSnapshot<S>],
    items: &[u64],
    combine: EstimateCombine,
) -> Result<Vec<f64>, MergeError>
where
    S: Snapshottable + SharedSketch + Reseedable + Send,
{
    assert!(!windows.is_empty(), "need at least one site window");
    let (start_interval, end_interval) = (windows[0].start_interval(), windows[0].end_interval());
    for window in windows {
        if window.start_interval() != start_interval || window.end_interval() != end_interval {
            return Err(MergeError::ShapeMismatch {
                what: "window interval ranges",
            });
        }
    }
    let entries: Vec<(&S, &S::Snapshot)> = windows.iter().flat_map(|w| w.planes()).collect();
    Ok(combine_plane_estimates(&entries, items, combine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_serve::{Policy, QueryEngine, Sliding};
    use bas_sketch::{AtomicCountSketch, CountSketch, PointQuerySketch, SketchParams};

    const N: u64 = 600;

    fn params() -> SketchParams {
        SketchParams::new(N, 64, 5).with_seed(19)
    }

    fn site_stream(site: u64, interval: u64, len: u64) -> Vec<(u64, f64)> {
        (0..len)
            .map(|i| {
                (
                    (i * 7 + site * 13 + interval * 31) % N,
                    (1 + (i + site + interval) % 4) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn global_window_equals_centralized_window_sketch() {
        let policy = Sliding::new(1).unwrap();
        let mut engines: Vec<QueryEngine<AtomicCountSketch>> = (0..3)
            .map(|_| {
                QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy)
            })
            .collect();
        // Two closed intervals; the window covers interval 2 (the one
        // in progress) only, under Sliding(1).
        let mut central_window = CountSketch::new(&params());
        for interval in 0..3u64 {
            for (s, engine) in engines.iter_mut().enumerate() {
                let updates = site_stream(s as u64, interval, 1_000);
                engine.extend_from_slice(&updates);
                if interval < 2 {
                    engine.advance_interval();
                } else {
                    engine.flush();
                    central_window.update_batch(&updates);
                }
            }
        }
        let windows: Vec<_> = engines.iter().map(|e| e.pin_window()).collect();
        let reference = engines[0].sketch().clone();
        let agg = aggregate_windows(&windows).unwrap();
        assert_eq!(agg.sites, 3);
        assert_eq!(agg.start_interval, 2);
        assert_eq!(agg.end_interval, 2);
        assert_eq!(agg.applied_per_site, vec![1_000; 3]);
        assert_eq!(agg.words_per_site, 64 * 5);
        assert_eq!(agg.total_words, 3 * 64 * 5);
        for j in 0..N {
            assert_eq!(
                reference.estimate_in(&agg.global, j),
                central_window.estimate(j),
                "item {j}"
            );
        }
    }

    #[test]
    fn mismatched_interval_ranges_rejected() {
        let policy = Sliding::new(1).unwrap();
        let mut a = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        let mut b = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        a.advance_interval(); // site a is one interval ahead
        a.push(1, 1.0);
        b.push(1, 1.0);
        a.flush();
        b.flush();
        let err = aggregate_windows(&[a.pin_window(), b.pin_window()]).unwrap_err();
        assert!(matches!(err, MergeError::ShapeMismatch { .. }));
    }

    #[test]
    #[should_panic(expected = "at least one site")]
    fn empty_sites_rejected() {
        let _ = aggregate_windows::<AtomicCountSketch>(&[]);
    }

    #[test]
    fn mismatched_seed_counter_merge_rejected() {
        // Two sites on the same interval clock but different seeds:
        // counter-space aggregation must refuse, not silently blend.
        let policy = Sliding::new(1).unwrap();
        let mut a = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        let mut b = QueryEngine::with_policy(
            1,
            AtomicCountSketch::with_backend(&params().with_seed(20)),
            policy,
        );
        a.push(1, 1.0);
        b.push(1, 1.0);
        a.flush();
        b.flush();
        let err = aggregate_windows(&[a.pin_window(), b.pin_window()]).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::PlaneSeedMismatch {
                    left: 19,
                    right: 20
                }
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("combine their estimates"));
    }

    #[test]
    fn rotating_site_windows_aggregate_in_estimate_space_only() {
        // A seed-rotating site's window holds one plane per generation,
        // each under its own seed: counter space refuses it, estimate
        // space sums every generation of every site.
        let policy = Policy::Rotating(Sliding::new(2).unwrap());
        let mut a = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        let mut b = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        for (site, engine) in [&mut a, &mut b].into_iter().enumerate() {
            engine.push(7, 10.0 + site as f64);
            engine.advance_interval();
            engine.push(7, 1.0);
            engine.flush();
        }
        let windows = [a.pin_window(), b.pin_window()];
        let err = aggregate_windows(&windows).unwrap_err();
        assert!(
            matches!(err, MergeError::PlaneSeedMismatch { right: 19, .. }),
            "{err:?}"
        );
        let out = aggregate_window_estimates(&windows, &[7], EstimateCombine::Sum).unwrap();
        assert_eq!(out, vec![23.0]);
    }

    #[test]
    fn heterogeneous_seed_sites_aggregate_in_estimate_space() {
        let policy = Sliding::new(1).unwrap();
        let mut a = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        let mut b = QueryEngine::with_policy(
            1,
            AtomicCountSketch::with_backend(&params().with_seed(21)),
            policy,
        );
        // Sparse disjoint streams on a wide sketch: per-site estimates
        // are exact, so the Sum aggregate is exact.
        a.push(7, 30.0);
        a.push(9, 5.0);
        b.push(7, 12.0);
        b.push(11, 4.0);
        a.flush();
        b.flush();
        let windows = [a.pin_window(), b.pin_window()];
        let out = aggregate_window_estimates(&windows, &[7, 9, 11], EstimateCombine::Sum).unwrap();
        assert_eq!(out, vec![42.0, 5.0, 4.0]);
    }

    #[test]
    fn estimate_space_aggregation_still_checks_interval_ranges() {
        let policy = Sliding::new(1).unwrap();
        let mut a = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        let mut b = QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy);
        a.advance_interval();
        a.flush();
        b.flush();
        let err = aggregate_window_estimates(
            &[a.pin_window(), b.pin_window()],
            &[1],
            EstimateCombine::Sum,
        )
        .unwrap_err();
        assert!(matches!(err, MergeError::ShapeMismatch { .. }));
    }

    #[test]
    fn homogeneous_sites_estimate_space_equals_counter_space() {
        let policy = Sliding::new(1).unwrap();
        let mut engines: Vec<QueryEngine<AtomicCountSketch>> = (0..3)
            .map(|_| {
                QueryEngine::with_policy(1, AtomicCountSketch::with_backend(&params()), policy)
            })
            .collect();
        for (s, engine) in engines.iter_mut().enumerate() {
            engine.extend_from_slice(&site_stream(s as u64, 0, 900));
            engine.flush();
        }
        let windows: Vec<_> = engines.iter().map(|e| e.pin_window()).collect();
        let agg = aggregate_windows(&windows).unwrap();
        let items: Vec<u64> = (0..N).collect();
        let est = aggregate_window_estimates(&windows, &items, EstimateCombine::Sum).unwrap();
        let reference = engines[0].sketch();
        for (j, &e) in items.iter().zip(&est) {
            assert_eq!(e, reference.estimate_in(&agg.global, *j), "item {j}");
        }
    }
}
