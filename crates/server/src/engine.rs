//! Per-tenant engine slots: one engine per tenant, in one of the two
//! shapes a [`TenantSpec`] can name — a frequency or a range-sum
//! `QueryEngine`, each holding the spec's serving policy as a value,
//! seed rotation included, and the spec's audit budget.
//!
//! The fabric stores tenants as [`EngineSlot`]s; everything
//! engine-shaped (sketch family × serving policy × audit) is resolved
//! here, so `fabric.rs` only speaks in terms of tenants and requests.
//! Every tenant exports and installs through the same
//! [`TenantTransfer`]: counter planes only, with hashers rebuilt from
//! the tenant's seed on the receiving side.

use crate::wire::{
    ErrorReply, MetricKind, SealFrame, ServingMode, TenantSpec, TenantTransfer, WindowLen,
};
use bas_serve::{AuditPolicy, Policy, QueryEngine, QueryError, Sliding, Tumbling};
use bas_sketch::{
    AbsorbPlane, Atomic, AtomicCountMedian, CounterMatrix, Dense, HeavyHitter, MergeError,
    RangeSumSketch, Reseedable, SharedSketch, SketchParams, Snapshottable,
};

/// The closed set of engine shapes a [`TenantSpec`] can ask for.
#[derive(Debug)]
pub(crate) enum TenantEngine {
    Freq(QueryEngine<AtomicCountMedian>),
    Range(QueryEngine<RangeSumSketch<Atomic>>),
}

/// Dispatches over both engine shapes with one body.
macro_rules! dispatch {
    ($slot:expr, $e:ident => $body:expr) => {
        match $slot {
            TenantEngine::Freq($e) => $body,
            TenantEngine::Range($e) => $body,
        }
    };
}

/// One tenant's serving state: its engine.
#[derive(Debug)]
pub(crate) struct EngineSlot {
    engine: TenantEngine,
}

fn query_error(tenant: u64, e: QueryError) -> ErrorReply {
    let code = match e {
        QueryError::AuditRejected { .. } => "audit_rejected",
        _ => "bad_query",
    };
    ErrorReply::new(code, format!("tenant {tenant}: {e}"))
}

fn unsupported(tenant: u64, what: &str) -> ErrorReply {
    ErrorReply::new("unsupported", format!("tenant {tenant}: {what}"))
}

fn hh_pairs(items: Vec<HeavyHitter>) -> Vec<(u64, f64)> {
    items.into_iter().map(|h| (h.item, h.estimate)).collect()
}

fn window_len(tenant: u64, len: WindowLen) -> Result<usize, ErrorReply> {
    if len.intervals == 0 {
        return Err(ErrorReply::new(
            "bad_query",
            format!("tenant {tenant}: window length must be at least 1 interval"),
        ));
    }
    usize::try_from(len.intervals).map_err(|_| {
        ErrorReply::new(
            "bad_query",
            format!("tenant {tenant}: window length {} overflows", len.intervals),
        )
    })
}

/// A window query's engine: unbounded tenants serve none.
fn windowed<S>(tenant: u64, e: &QueryEngine<S>) -> Result<&QueryEngine<S>, ErrorReply>
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    match e.policy() {
        Policy::Unbounded => Err(unsupported(
            tenant,
            "unbounded tenants serve no window queries",
        )),
        _ => Ok(e),
    }
}

/// `e` with the spec's queue capacity as its flush threshold and the
/// spec's audit budget.
fn configured<S>(e: QueryEngine<S>, spec: &TenantSpec) -> QueryEngine<S>
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    let e = e.with_flush_threshold(usize::try_from(spec.queue_capacity).unwrap_or(usize::MAX));
    match spec.audit_limit {
        0 => e,
        limit => e.with_audit(AuditPolicy::new(limit)),
    }
}

impl EngineSlot {
    /// Builds a fresh (empty) engine for `spec`, shaped by the
    /// fabric's parameter template reseeded with the tenant's seed.
    /// The engine's internal flush threshold is pinned to the spec's
    /// queue capacity, so the buffered backlog can never exceed the
    /// admission bound even without an explicit flush.
    pub(crate) fn build(spec: &TenantSpec, template: SketchParams) -> Result<Self, ErrorReply> {
        Self::build_in(spec, template, None)
    }

    /// [`build`](Self::build), with a range-sum tenant's stack in the
    /// layout `grid_levels` names, or in the rule's layout when `None`.
    fn build_in(
        spec: &TenantSpec,
        template: SketchParams,
        grid_levels: Option<usize>,
    ) -> Result<Self, ErrorReply> {
        let tenant = spec.tenant;
        if spec.queue_capacity == 0 || spec.interval_quota == 0 {
            return Err(ErrorReply::new(
                "bad_query",
                format!("tenant {tenant}: queue capacity and interval quota must be at least 1"),
            ));
        }
        let params = template.with_seed(spec.seed);
        let q = |e| query_error(tenant, e);
        let policy = match spec.mode {
            ServingMode::Unbounded => Policy::Unbounded,
            ServingMode::Tumbling(len) => {
                Tumbling::new(window_len(tenant, len)?).map_err(q)?.into()
            }
            ServingMode::Sliding(len) => Sliding::new(window_len(tenant, len)?).map_err(q)?.into(),
            ServingMode::Rotating(_) if spec.metric != MetricKind::Frequency => {
                return Err(unsupported(
                    tenant,
                    "rotating serving is frequency-metric only",
                ))
            }
            ServingMode::Rotating(len) => {
                Policy::Rotating(Sliding::new(window_len(tenant, len)?).map_err(q)?)
            }
        };
        let engine = match spec.metric {
            MetricKind::Frequency => {
                let sketch = AtomicCountMedian::with_backend(&params);
                TenantEngine::Freq(configured(
                    QueryEngine::with_policy(1, sketch, policy),
                    spec,
                ))
            }
            MetricKind::RangeSum => {
                let stack = match grid_levels {
                    Some(g) => RangeSumSketch::<Atomic>::with_grid_levels(&params, g),
                    None => RangeSumSketch::<Atomic>::with_backend(&params),
                };
                TenantEngine::Range(configured(QueryEngine::with_policy(1, stack, policy), spec))
            }
        };
        Ok(Self { engine })
    }

    // ---- write path ----

    pub(crate) fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        dispatch!(&mut self.engine, e => e.extend_from_slice(updates));
    }

    /// Flushes the buffered backlog; returns the applied count over the
    /// planes the tenant retains.
    pub(crate) fn flush(&mut self) -> u64 {
        dispatch!(&mut self.engine, e => { e.flush(); e.applied() })
    }

    /// Closes the interval (flush + seal or rotate + audit renewal);
    /// returns the closed interval id. A tenant at interval `u64::MAX`,
    /// which an installed transfer can name, has no next interval: it
    /// refuses with `unsupported` and nothing changes.
    pub(crate) fn advance_interval(&mut self, tenant: u64) -> Result<u64, ErrorReply> {
        let interval = self.interval();
        if interval == u64::MAX {
            return Err(unsupported(
                tenant,
                &format!("interval {interval} is the last; no interval follows it"),
            ));
        }
        Ok(dispatch!(&mut self.engine, e => e.advance_interval()))
    }

    // ---- bookkeeping ----

    pub(crate) fn pending(&self) -> u64 {
        dispatch!(&self.engine, e => e.pending() as u64)
    }

    pub(crate) fn applied(&self) -> u64 {
        dispatch!(&self.engine, e => e.applied())
    }

    pub(crate) fn mass(&self) -> f64 {
        dispatch!(&self.engine, e => e.mass())
    }

    pub(crate) fn interval(&self) -> u64 {
        dispatch!(&self.engine, e => e.interval())
    }

    pub(crate) fn universe(&self) -> u64 {
        dispatch!(&self.engine, e => e.sketch().config().n)
    }

    // ---- queries ----

    /// Point estimate over the planes the tenant retains, through the
    /// tenant's audit.
    pub(crate) fn point(&self, tenant: u64, item: u64) -> Result<f64, ErrorReply> {
        dispatch!(&self.engine, e => e.audited_estimate_live(item))
            .map_err(|e| query_error(tenant, e))
    }

    /// Point estimate within the tenant's current window, through the
    /// same audit budget as [`point`](Self::point).
    pub(crate) fn window_point(&self, tenant: u64, item: u64) -> Result<f64, ErrorReply> {
        dispatch!(&self.engine, e => windowed(tenant, e)?.audited_point_in_window(item))
            .map_err(|e| query_error(tenant, e))
    }

    /// Heavy hitters over the planes the tenant retains.
    pub(crate) fn heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        dispatch!(&self.engine, e => e.try_heavy_hitters(phi))
            .map(hh_pairs)
            .map_err(|e| query_error(tenant, e))
    }

    /// Heavy hitters within the tenant's current window.
    pub(crate) fn window_heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        dispatch!(&self.engine, e => windowed(tenant, e)?.heavy_hitters_in_window(phi))
            .map(hh_pairs)
            .map_err(|e| query_error(tenant, e))
    }

    /// Since-boot range sum (range-sum tenants only).
    pub(crate) fn range_sum(&self, tenant: u64, lo: u64, hi: u64) -> Result<f64, ErrorReply> {
        let TenantEngine::Range(e) = &self.engine else {
            return Err(unsupported(tenant, "range sums need a range-sum tenant"));
        };
        QueryError::check_range(lo, hi, e.sketch().config().n)
            .map_err(|e| query_error(tenant, e))?;
        Ok(e.range_sum(lo, hi))
    }

    /// Range sum within the tenant's current window.
    pub(crate) fn window_range_sum(
        &self,
        tenant: u64,
        lo: u64,
        hi: u64,
    ) -> Result<f64, ErrorReply> {
        let TenantEngine::Range(e) = &self.engine else {
            return Err(unsupported(tenant, "range sums need a range-sum tenant"));
        };
        windowed(tenant, e)?
            .range_sum_in_window(lo, hi)
            .map_err(|e| query_error(tenant, e))
    }

    // ---- export / install by linearity ----

    /// Flushes the tenant and seals its state into a wire-shippable
    /// transfer: the stream position, the quota count the fabric keeps
    /// (`admitted_in_interval`) and the counter planes, never the
    /// hashers. The live plane ships as the cumulative, and every
    /// retained seal or closed generation, oldest first, as one seal:
    /// a closed generation's plane holds that one interval alone.
    pub(crate) fn export(
        &mut self,
        spec: TenantSpec,
        params: SketchParams,
        admitted: u64,
    ) -> TenantTransfer {
        match &mut self.engine {
            TenantEngine::Freq(e) => export(e, spec, params, admitted, |plane| vec![plane.clone()]),
            TenantEngine::Range(e) => export(e, spec, params, admitted, |planes| planes.clone()),
        }
    }

    /// Rebuilds a tenant from a transfer: check it whole
    /// ([`check_transfer`]), build a fresh engine from the seed in the
    /// layout the planes record, then restore the seals or closed
    /// generations oldest first and the live plane last, each under the
    /// seed of its interval (`SeedSchedule::new(seed).seed_for(g)` for
    /// a rotating tenant's generation `g`). Bit-for-bit with the
    /// exporting engine on integer-delta streams. A refused transfer
    /// builds nothing.
    pub(crate) fn install(
        transfer: &TenantTransfer,
        template: SketchParams,
    ) -> Result<Self, ErrorReply> {
        let tenant = transfer.spec.tenant;
        let expected = template.with_seed(transfer.spec.seed);
        if transfer.params != expected {
            return Err(ErrorReply::new(
                "incompatible",
                format!("tenant {tenant}: transfer params do not match this fabric's template"),
            ));
        }
        let grid_levels = check_transfer(transfer)?;
        let mut slot = Self::build_in(&transfer.spec, template, grid_levels)?;
        let restored = match &mut slot.engine {
            TenantEngine::Freq(e) => restore(e, transfer, |planes| planes[0].clone()),
            TenantEngine::Range(e) => restore(e, transfer, |planes| planes.to_vec()),
        };
        restored.map_err(|e| {
            ErrorReply::new("incompatible", format!("tenant {tenant}: cumulative: {e}"))
        })?;
        Ok(slot)
    }
}

/// Checks a transfer against the engine [`EngineSlot::install`] would
/// build from it, before anything is built, so that no transfer can
/// panic a later query or poison the tenant:
/// * every plane, the cumulative's and each seal's, has the shape its
///   level needs: one `d × w` plane for a frequency tenant, and for a
///   range-sum tenant the dyadic layout the cumulative records
///   ([`RangeSumSketch::grid_levels_of`]), the same for every seal;
/// * seal intervals strictly increase;
/// * the interval in progress lies past the last seal;
/// * a windowed tenant holds the seals of the `min(K, interval)`
///   intervals right before the one in progress, the seals its
///   windows reach back to (every advance seals the interval it
///   closes, so an exported tenant always does);
/// * a rotating tenant holds exactly the generations rotation retains,
///   those of the `min(K − 1, interval)` intervals right before the
///   live one: each is summed into every window answer, so a missing
///   or extra one would change them.
///
/// Returns the range-sum stack's grid levels (`None` for frequency
/// tenants); a refusal is `incompatible`, naming the first bad field.
fn check_transfer(transfer: &TenantTransfer) -> Result<Option<usize>, ErrorReply> {
    let tenant = transfer.spec.tenant;
    let refuse = |field: &str, why: String| {
        ErrorReply::new("incompatible", format!("tenant {tenant}: {field}: {why}"))
    };
    let params = &transfer.params;
    let layout = |planes: &[CounterMatrix<f64, Dense>]| match transfer.spec.metric {
        MetricKind::Frequency => {
            let want = (params.depth, params.hash_kind.buckets(params.width));
            match planes {
                [one] if (one.depth(), one.width()) == want => Ok(None),
                [one] => Err(format!(
                    "the plane is {} x {}, expected {} x {}",
                    one.depth(),
                    one.width(),
                    want.0,
                    want.1
                )),
                other => Err(format!(
                    "a frequency tenant carries exactly 1 plane, got {}",
                    other.len()
                )),
            }
        }
        MetricKind::RangeSum => RangeSumSketch::grid_levels_of(params, planes)
            .map(Some)
            .map_err(|e| e.to_string()),
    };
    let grid_levels = layout(&transfer.cumulative).map_err(|why| refuse("cumulative", why))?;
    let mut last: Option<u64> = None;
    for (i, seal) in transfer.seals.iter().enumerate() {
        match layout(&seal.planes) {
            Ok(g) if g == grid_levels => {}
            Ok(_) => {
                return Err(refuse(
                    &format!("seals[{i}].planes"),
                    "a different dyadic layout from the cumulative's".to_string(),
                ))
            }
            Err(why) => return Err(refuse(&format!("seals[{i}].planes"), why)),
        }
        if let Some(prev) = last.filter(|&prev| seal.interval <= prev) {
            return Err(refuse(
                &format!("seals[{i}].interval"),
                format!(
                    "{} does not follow the seal before it, {prev}",
                    seal.interval
                ),
            ));
        }
        last = Some(seal.interval);
    }
    if let Some(prev) = last.filter(|&prev| transfer.interval <= prev) {
        return Err(refuse(
            "interval",
            format!(
                "{} does not lie past the last seal, {prev}",
                transfer.interval
            ),
        ));
    }
    let held = transfer.seals.iter().map(|s| s.interval);
    match transfer.spec.mode {
        ServingMode::Tumbling(len) | ServingMode::Sliding(len) => {
            let first = transfer.interval - len.intervals.min(transfer.interval);
            if !held.filter(|&i| i >= first).eq(first..transfer.interval) {
                return Err(refuse(
                    "seals",
                    format!(
                        "a window of {} at interval {} needs the seals of intervals {first} to {}",
                        len.intervals,
                        transfer.interval,
                        transfer.interval - 1
                    ),
                ));
            }
        }
        ServingMode::Rotating(len) => {
            let kept = len.intervals.saturating_sub(1).min(transfer.interval);
            let want = transfer.interval - kept..transfer.interval;
            if !held.eq(want.clone()) {
                return Err(refuse(
                    "seals",
                    format!(
                        "a rotating window of {} at interval {} holds exactly the generations {want:?}",
                        len.intervals, transfer.interval
                    ),
                ));
            }
        }
        ServingMode::Unbounded => {}
    }
    Ok(grid_levels)
}

/// Restores a checked transfer into a fresh engine: every seal or
/// closed generation in order, then the live plane at the transfer's
/// interval. `plane` turns a shipped plane list into the engine's
/// snapshot type.
fn restore<S>(
    e: &mut QueryEngine<S>,
    transfer: &TenantTransfer,
    plane: impl Fn(&[CounterMatrix<f64, Dense>]) -> S::Snapshot,
) -> Result<(), MergeError>
where
    S: SharedSketch + Snapshottable + Reseedable + AbsorbPlane + Send,
{
    for seal in &transfer.seals {
        e.restore_seal(seal.interval, plane(&seal.planes), seal.applied, seal.mass)?;
    }
    e.restore_live(
        transfer.interval,
        &plane(&transfer.cumulative),
        transfer.applied,
        transfer.mass,
    )
}

/// Flushes and pins `e`, then ships its live plane and every retained
/// seal or closed generation as plane lists (`planes` maps a snapshot
/// to one).
fn export<S>(
    e: &mut QueryEngine<S>,
    spec: TenantSpec,
    params: SketchParams,
    admitted_in_interval: u64,
    planes: impl Fn(&S::Snapshot) -> Vec<CounterMatrix<f64, Dense>>,
) -> TenantTransfer
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    e.flush();
    let snap = e.pin();
    let seals = e.bank().planes().map(|s| SealFrame {
        interval: s.interval(),
        applied: s.applied(),
        mass: s.mass(),
        planes: planes(s.plane()),
    });
    let generations = e.generations().map(|g| {
        let plane = g.handle().pin();
        SealFrame {
            interval: g.interval(),
            applied: plane.applied(),
            mass: plane.mass(),
            planes: planes(plane.snapshot()),
        }
    });
    TenantTransfer {
        spec,
        params,
        interval: e.interval(),
        applied: snap.applied(),
        mass: snap.mass(),
        admitted_in_interval,
        cumulative: planes(snap.snapshot()),
        seals: seals.chain(generations).collect(),
    }
}
