//! The exactness gate: after the timed phase, probe answers over the
//! socket and require them to equal, bit for bit, in-process reference
//! sketches built from the same seeded frames.

use crate::drive::{Admit, Session};
use crate::workload::{template, Inputs, PHI, WINDOW};
use bas_server::wire::{HeavyHittersQuery, PointQuery, RangeQuery, TenantRef};
use bas_server::{MetricKind, Request, Response, ServingMode, TenantSpec};
use bas_sketch::{CountMedian, PointQuerySketch, RangeSumSketch};
use std::collections::BTreeMap;

/// What the gate found.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Answers compared.
    pub probes: u64,
    /// Answers that differed from the reference.
    pub mismatches: u64,
    /// The first few mismatches.
    pub notes: Vec<String>,
}

impl GateReport {
    fn compare(&mut self, what: impl FnOnce() -> String, served: Result<f64, String>, want: f64) {
        self.probes += 1;
        let ok = matches!(served, Ok(v) if v.to_bits() == want.to_bits());
        if !ok {
            self.mismatches += 1;
            if self.notes.len() < 8 {
                self.notes
                    .push(format!("{}: served {served:?}, reference {want}", what()));
            }
        }
    }
}

/// Dense references for one tenant.
struct References {
    /// Everything admitted since boot.
    since: Grid,
    /// The last `WINDOW` intervals, for sliding tenants.
    window: Option<Grid>,
    /// Total delta admitted since boot.
    mass: f64,
}

enum Grid {
    Freq(CountMedian),
    Range(RangeSumSketch),
}

impl Grid {
    fn new(metric: MetricKind, seed: u64) -> Self {
        let params = template().with_seed(seed);
        match metric {
            MetricKind::Frequency => Grid::Freq(CountMedian::new(&params)),
            MetricKind::RangeSum => Grid::Range(RangeSumSketch::new(&params)),
        }
    }

    fn update(&mut self, frame: &[(u64, f64)]) {
        match self {
            Grid::Freq(s) => s.update_batch(frame),
            Grid::Range(s) => s.update_batch(frame),
        }
    }

    fn estimate(&self, item: u64) -> f64 {
        match self {
            Grid::Freq(s) => s.estimate(item),
            Grid::Range(s) => s.estimate(item),
        }
    }

    fn range(&self, lo: u64, hi: u64) -> f64 {
        match self {
            Grid::Freq(_) => f64::NAN,
            Grid::Range(s) => s.query(lo, hi),
        }
    }
}

fn references(spec: &TenantSpec, admits: &[&Admit], inputs: &Inputs, current: u64) -> References {
    let pool = &inputs.pools[&spec.tenant];
    let build = |from: u64| {
        let mut grid = Grid::new(spec.metric, spec.seed);
        for a in admits.iter().filter(|a| a.interval >= from) {
            grid.update(&pool[a.frame]);
        }
        grid
    };
    let sliding = matches!(spec.mode, ServingMode::Sliding(_));
    References {
        since: build(0),
        window: sliding.then(|| build((current + 1).saturating_sub(WINDOW))),
        mass: admits
            .iter()
            .flat_map(|a| &pool[a.frame])
            .map(|&(_, d)| d)
            .sum(),
    }
}

fn value(resp: Result<Response, String>) -> Result<f64, String> {
    match resp? {
        Response::Value(v) => Ok(v.value),
        other => Err(format!("{other:?}")),
    }
}

/// Flushes every tenant, then probes each one, and the first frequency
/// tenant's heavy hitters, against references rebuilt from `admitted`.
pub fn check(
    session: &mut Session,
    inputs: &Inputs,
    admitted: &[Admit],
    intervals: &BTreeMap<u64, u64>,
) -> GateReport {
    let mut report = GateReport::default();
    let scanned = inputs
        .specs
        .iter()
        .find(|s| s.metric == MetricKind::Frequency)
        .map(|s| s.tenant);
    for spec in &inputs.specs {
        let tenant = spec.tenant;
        match session.call(&Request::Flush(TenantRef { tenant })) {
            Ok(Response::Flushed(_)) => {}
            other => report.compare(
                || format!("flush of tenant {tenant}"),
                Err(format!("{other:?}")),
                0.0,
            ),
        }
        let admits: Vec<&Admit> = admitted.iter().filter(|a| a.tenant == tenant).collect();
        let current = intervals.get(&tenant).copied().unwrap_or(0);
        let refs = references(spec, &admits, inputs, current);
        for &item in &inputs.probe_items {
            let q = PointQuery { tenant, item };
            report.compare(
                || format!("Point {q:?}"),
                value(session.call(&Request::Point(q))),
                refs.since.estimate(item),
            );
            if let (Some(window), MetricKind::Frequency) = (&refs.window, spec.metric) {
                report.compare(
                    || format!("WindowPoint {q:?}"),
                    value(session.call(&Request::WindowPoint(q))),
                    window.estimate(item),
                );
            }
        }
        if spec.metric == MetricKind::RangeSum {
            for &(lo, hi) in &inputs.probe_ranges {
                let q = RangeQuery { tenant, lo, hi };
                report.compare(
                    || format!("RangeSum {q:?}"),
                    value(session.call(&Request::RangeSum(q))),
                    refs.since.range(lo, hi),
                );
            }
        }
        if scanned == Some(tenant) {
            check_heavy_hitters(session, tenant, &refs, &mut report);
        }
    }
    report
}

fn check_heavy_hitters(
    session: &mut Session,
    tenant: u64,
    refs: &References,
    report: &mut GateReport,
) {
    let threshold = PHI * refs.mass;
    let mut want: Vec<(u64, f64)> = (0..template().n)
        .filter_map(|item| {
            let e = refs.since.estimate(item);
            (refs.mass > 0.0 && e >= threshold).then_some((item, e))
        })
        .collect();
    want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let q = HeavyHittersQuery { tenant, phi: PHI };
    report.probes += 1;
    match session.call(&Request::HeavyHitters(q)) {
        Ok(Response::HeavyHitters(reply))
            if reply.items.len() == want.len()
                && reply
                    .items
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()) => {}
        other => {
            report.mismatches += 1;
            report.notes.push(format!(
                "HeavyHitters {q:?}: {} reference items, served {:?}",
                want.len(),
                other.map(|r| match r {
                    Response::HeavyHitters(h) => format!("{} items", h.items.len()),
                    r => format!("{r:?}"),
                })
            ));
        }
    }
}
