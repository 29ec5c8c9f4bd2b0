//! Per-tenant engine slots: one engine per tenant, in one of the three
//! shapes a [`TenantSpec`] can name — a frequency or range-sum
//! `QueryEngine` holding the spec's serving policy as a value, or the
//! seed-rotating `RotatingEngine`.
//!
//! The fabric stores tenants as [`EngineSlot`]s; everything
//! engine-shaped (sketch family × serving policy × audit) is resolved
//! here, so `fabric.rs` only speaks in terms of tenants and requests.
//! Every shape exports and installs through the same
//! [`TenantTransfer`]: counter planes only, with hashers rebuilt from
//! the tenant's seed on the receiving side.

use crate::wire::{
    ErrorReply, MetricKind, SealFrame, ServingMode, TenantSpec, TenantTransfer, WindowLen,
};
use bas_hash::SeedSchedule;
use bas_serve::{
    AuditPolicy, AuditedHandle, Policy, QueryEngine, QueryError, RotatingEngine, Sliding, Tumbling,
};
use bas_sketch::{
    AbsorbPlane, Atomic, AtomicCountMedian, CounterMatrix, Dense, HeavyHitter, MergeError,
    RangeSumSketch, Reseedable, SharedSketch, SketchParams, Snapshottable,
};

type Rotating = RotatingEngine<AtomicCountMedian>;

/// The closed set of engine shapes a [`TenantSpec`] can ask for.
#[derive(Debug)]
pub(crate) enum TenantEngine {
    Freq(QueryEngine<AtomicCountMedian>),
    Range(QueryEngine<RangeSumSketch<Atomic>>),
    /// The seed-rotating robustness plane; window-scoped only.
    Rotating(Box<Rotating>),
}

/// Dispatches over the two `QueryEngine` variants with one body and
/// the rotating variant with another.
macro_rules! dispatch {
    ($slot:expr, $e:ident => $body:expr, $rot:ident => $rot_body:expr) => {
        match $slot {
            TenantEngine::Freq($e) => $body,
            TenantEngine::Range($e) => $body,
            TenantEngine::Rotating($rot) => $rot_body,
        }
    };
}

/// One tenant's serving state: the engine plus the optional audited
/// point-query handles its spec asked for.
#[derive(Debug)]
pub(crate) struct EngineSlot {
    engine: TenantEngine,
    audit_freq: Option<AuditedHandle<AtomicCountMedian>>,
    audit_range: Option<AuditedHandle<RangeSumSketch<Atomic>>>,
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
        let threshold = usize::try_from(spec.queue_capacity).unwrap_or(usize::MAX);
        let audit = (spec.audit_limit > 0).then(|| AuditPolicy::new(spec.audit_limit));
        let q = |e| query_error(tenant, e);
        let policy = match spec.mode {
            ServingMode::Unbounded => Policy::Unbounded,
            ServingMode::Tumbling(len) => {
                Tumbling::new(window_len(tenant, len)?).map_err(q)?.into()
            }
            ServingMode::Sliding(len) => Sliding::new(window_len(tenant, len)?).map_err(q)?.into(),
            ServingMode::Rotating(len) => {
                if spec.metric != MetricKind::Frequency {
                    return Err(unsupported(
                        tenant,
                        "rotating serving is frequency-metric only",
                    ));
                }
                let mut rotating = RotatingEngine::new(
                    1,
                    AtomicCountMedian::with_backend(&params),
                    SeedSchedule::new(spec.seed),
                    window_len(tenant, len)?,
                )
                .map_err(q)?
                .with_flush_threshold(threshold);
                if let Some(policy) = audit {
                    rotating = rotating.with_audit(policy);
                }
                return Ok(Self {
                    engine: TenantEngine::Rotating(Box::new(rotating)),
                    audit_freq: None,
                    audit_range: None,
                });
            }
        };
        Ok(match spec.metric {
            MetricKind::Frequency => {
                let e =
                    QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
                        .with_flush_threshold(threshold);
                Self {
                    audit_freq: audit.map(|a| e.handle().audited(a)),
                    audit_range: None,
                    engine: TenantEngine::Freq(e),
                }
            }
            MetricKind::RangeSum => {
                let stack = match grid_levels {
                    Some(g) => RangeSumSketch::<Atomic>::with_grid_levels(&params, g),
                    None => RangeSumSketch::<Atomic>::with_backend(&params),
                };
                let e = QueryEngine::with_policy(1, stack, policy).with_flush_threshold(threshold);
                Self {
                    audit_freq: None,
                    audit_range: audit.map(|a| e.handle().audited(a)),
                    engine: TenantEngine::Range(e),
                }
            }
        })
    }

    // ---- write path ----

    pub(crate) fn extend_from_slice(&mut self, updates: &[(u64, f64)]) {
        dispatch!(&mut self.engine, e => e.extend_from_slice(updates),
                  r => r.extend_from_slice(updates));
    }

    /// Flushes the buffered backlog; returns the applied count.
    pub(crate) fn flush(&mut self) -> u64 {
        dispatch!(&mut self.engine, e => { e.flush(); e.applied() },
                  r => { r.flush(); r.window_applied() })
    }

    /// Closes the interval (flush + seal + audit reset); returns the
    /// sealed interval id. A tenant at interval `u64::MAX`, which an
    /// installed transfer can name, has no next interval: it refuses
    /// with `unsupported` and nothing changes.
    pub(crate) fn advance_interval(&mut self, tenant: u64) -> Result<u64, ErrorReply> {
        let interval = self.interval();
        if interval == u64::MAX {
            return Err(unsupported(
                tenant,
                &format!("interval {interval} is the last; no interval follows it"),
            ));
        }
        let sealed = dispatch!(&mut self.engine, e => e.advance_interval(),
                               r => r.advance_interval());
        // Audit budgets are per plane lifetime: rotation renews them.
        if let Some(a) = &self.audit_freq {
            a.reset();
        }
        if let Some(a) = &self.audit_range {
            a.reset();
        }
        Ok(sealed)
    }

    // ---- bookkeeping ----

    pub(crate) fn pending(&self) -> u64 {
        dispatch!(&self.engine, e => e.pending() as u64, r => r.pending() as u64)
    }

    pub(crate) fn applied(&self) -> u64 {
        dispatch!(&self.engine, e => e.applied(), r => r.window_applied())
    }

    pub(crate) fn mass(&self) -> f64 {
        dispatch!(&self.engine, e => e.mass(), r => r.window_mass())
    }

    pub(crate) fn interval(&self) -> u64 {
        dispatch!(&self.engine, e => e.interval(), r => r.interval())
    }

    pub(crate) fn universe(&self) -> u64 {
        dispatch!(&self.engine, e => e.sketch().config().n, r => r.live().config().n)
    }

    // ---- queries ----

    /// Since-boot point estimate (window-scoped for rotating tenants,
    /// which retain no since-boot state by design). Audited when the
    /// spec asked for it.
    pub(crate) fn point(&self, tenant: u64, item: u64) -> Result<f64, ErrorReply> {
        if let Some(audit) = &self.audit_freq {
            return audit
                .estimate_live(item)
                .map_err(|e| query_error(tenant, e));
        }
        if let Some(audit) = &self.audit_range {
            return audit
                .estimate_live(item)
                .map_err(|e| query_error(tenant, e));
        }
        dispatch!(&self.engine, e => Ok(e.estimate_live(item)),
                  r => r.audited_window_estimate(item).map_err(|e| query_error(tenant, e)))
    }

    /// Point estimate within the tenant's current window.
    pub(crate) fn window_point(&self, tenant: u64, item: u64) -> Result<f64, ErrorReply> {
        dispatch!(&self.engine, e => windowed(tenant, e).map(|e| e.point_in_window(item)),
                  r => r.audited_window_estimate(item).map_err(|e| query_error(tenant, e)))
    }

    /// Since-boot heavy hitters (window-scoped for rotating tenants).
    pub(crate) fn heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        dispatch!(&self.engine, e => e.try_heavy_hitters(phi), r => r.window_heavy_hitters(phi))
            .map(hh_pairs)
            .map_err(|e| query_error(tenant, e))
    }

    /// Heavy hitters within the tenant's current window.
    pub(crate) fn window_heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        dispatch!(&self.engine, e => windowed(tenant, e)?.heavy_hitters_in_window(phi),
                  r => r.window_heavy_hitters(phi))
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

    // ---- rebalance (export / install by linearity) ----

    /// Flushes the tenant and seals its state into a wire-shippable
    /// transfer: the stream position and the counter planes, never the
    /// hashers. A `QueryEngine` ships its cumulative plane(s) and every
    /// retained seal; a rotating engine ships its live generation's
    /// plane as the cumulative and one seal per retained generation,
    /// each that generation's own interval.
    pub(crate) fn export(&mut self, spec: TenantSpec, params: SketchParams) -> TenantTransfer {
        match &mut self.engine {
            TenantEngine::Freq(e) => export(e, spec, params, |plane| vec![plane.clone()]),
            TenantEngine::Range(e) => export(e, spec, params, |planes| planes.clone()),
            TenantEngine::Rotating(r) => {
                r.flush();
                let live = r.live().pin();
                let seals = r.generations().map(|g| {
                    let plane = g.handle().pin();
                    SealFrame {
                        interval: g.interval(),
                        applied: plane.applied(),
                        mass: plane.mass(),
                        planes: vec![plane.into_snapshot()],
                    }
                });
                TenantTransfer {
                    spec,
                    params,
                    interval: r.interval(),
                    applied: live.applied(),
                    mass: live.mass(),
                    seals: seals.collect(),
                    cumulative: vec![live.into_snapshot()],
                }
            }
        }
    }

    /// Rebuilds a tenant from a transfer: check it whole
    /// ([`check_transfer`]), build a fresh engine from the seed in the
    /// layout the planes record, then absorb the planes by linearity —
    /// a `QueryEngine` absorbs the cumulative plane and restores the
    /// seals and the interval id; a rotating engine rebuilds each
    /// generation's hashers from `SeedSchedule::new(seed).seed_for(g)`
    /// and absorbs that generation's plane. Bit-for-bit with the
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
            TenantEngine::Rotating(r) => restore_rotating(r, transfer),
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

/// Absorbs a checked transfer into a fresh engine: the cumulative
/// plane, every seal in order, then the interval id. `plane` turns a
/// shipped plane list into the engine's snapshot type.
fn restore<S>(
    e: &mut QueryEngine<S>,
    transfer: &TenantTransfer,
    plane: impl Fn(&[CounterMatrix<f64, Dense>]) -> S::Snapshot,
) -> Result<(), MergeError>
where
    S: SharedSketch + Snapshottable + Reseedable + AbsorbPlane + Send,
{
    e.absorb_cumulative(
        &plane(&transfer.cumulative),
        transfer.applied,
        transfer.mass,
    )?;
    for seal in &transfer.seals {
        e.restore_seal(seal.interval, plane(&seal.planes), seal.applied, seal.mass);
    }
    e.restore_interval(transfer.interval);
    Ok(())
}

/// Absorbs a checked rotating transfer into a fresh rotating engine:
/// each retained generation, oldest first, then the live one, every
/// plane under its own generation's seed.
fn restore_rotating(r: &mut Rotating, transfer: &TenantTransfer) -> Result<(), MergeError> {
    for seal in &transfer.seals {
        r.restore_generation(seal.interval, &seal.planes[0], seal.applied, seal.mass)?;
    }
    r.restore_live(
        transfer.interval,
        &transfer.cumulative[0],
        transfer.applied,
        transfer.mass,
    )
}

/// Flushes and pins `e`, then ships its cumulative plane and every
/// retained seal as plane lists (`planes` maps a snapshot to one).
fn export<S>(
    e: &mut QueryEngine<S>,
    spec: TenantSpec,
    params: SketchParams,
    planes: impl Fn(&S::Snapshot) -> Vec<CounterMatrix<f64, Dense>>,
) -> TenantTransfer
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
{
    e.flush();
    let snap = e.pin();
    TenantTransfer {
        spec,
        params,
        interval: e.interval(),
        applied: snap.applied(),
        mass: snap.mass(),
        cumulative: planes(snap.snapshot()),
        seals: e
            .bank()
            .planes()
            .map(|s| SealFrame {
                interval: s.interval(),
                applied: s.applied(),
                mass: s.mass(),
                planes: planes(s.plane()),
            })
            .collect(),
    }
}
