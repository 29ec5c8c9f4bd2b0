//! Per-tenant engine slots: one `QueryEngine`/`RotatingEngine` per
//! tenant×metric, dispatched over the closed set of serving shapes the
//! wire protocol's [`TenantSpec`] can name.
//!
//! The fabric stores tenants as [`EngineSlot`]s; everything
//! engine-shaped (sketch family × serving policy × audit) is resolved
//! here, so `fabric.rs` only speaks in terms of tenants and requests.

use crate::wire::{
    ErrorReply, MetricKind, SealFrame, ServingMode, TenantSpec, TenantTransfer, WindowLen,
};
use bas_hash::SeedSchedule;
use bas_serve::{
    AuditPolicy, AuditedHandle, QueryEngine, QueryError, RotatingEngine, Sliding, Tumbling,
    Unbounded,
};
use bas_sketch::{
    AbsorbPlane, Atomic, AtomicCountMedian, CounterMatrix, Dense, HeavyHitter, RangeSumSketch,
    Reseedable, SharedSketch, SketchParams, Snapshottable,
};

type FreqEngine<P> = QueryEngine<AtomicCountMedian, P>;
type RangeEngine<P> = QueryEngine<RangeSumSketch<Atomic>, P>;

/// The closed set of engine shapes a [`TenantSpec`] can ask for.
#[derive(Debug)]
pub(crate) enum TenantEngine {
    FreqUnbounded(FreqEngine<Unbounded>),
    FreqTumbling(FreqEngine<Tumbling>),
    FreqSliding(FreqEngine<Sliding>),
    RangeUnbounded(RangeEngine<Unbounded>),
    RangeTumbling(RangeEngine<Tumbling>),
    RangeSliding(RangeEngine<Sliding>),
    /// The seed-rotating robustness plane; window-scoped only and
    /// pinned to its shard (generations carry heterogeneous seeds, so
    /// its planes are not one linear transfer).
    Rotating(Box<RotatingEngine<AtomicCountMedian>>),
}

/// Dispatches over the six `QueryEngine` variants with one body and
/// the rotating variant with another.
macro_rules! dispatch {
    ($slot:expr, $e:ident => $body:expr, $rot:ident => $rot_body:expr) => {
        match $slot {
            TenantEngine::FreqUnbounded($e) => $body,
            TenantEngine::FreqTumbling($e) => $body,
            TenantEngine::FreqSliding($e) => $body,
            TenantEngine::RangeUnbounded($e) => $body,
            TenantEngine::RangeTumbling($e) => $body,
            TenantEngine::RangeSliding($e) => $body,
            TenantEngine::Rotating($rot) => $rot_body,
        }
    };
}

/// Dispatches over the windowed (`Tumbling`/`Sliding`) variants only.
macro_rules! dispatch_windowed {
    ($slot:expr, $e:ident => $body:expr, else => $other:expr) => {
        match $slot {
            TenantEngine::FreqTumbling($e) => $body,
            TenantEngine::FreqSliding($e) => $body,
            TenantEngine::RangeTumbling($e) => $body,
            TenantEngine::RangeSliding($e) => $body,
            _ => $other,
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

/// Why a rotating tenant neither exports nor installs: its generations
/// carry heterogeneous seeds, so no single linear merge rebuilds them.
const PINNED: &str = "rotating tenants are pinned to their shard";

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
        let range = || match grid_levels {
            Some(g) => RangeSumSketch::<Atomic>::with_grid_levels(&params, g),
            None => RangeSumSketch::<Atomic>::with_backend(&params),
        };
        let threshold = usize::try_from(spec.queue_capacity).unwrap_or(usize::MAX);
        let engine = match (spec.metric, spec.mode) {
            (MetricKind::Frequency, ServingMode::Unbounded) => TenantEngine::FreqUnbounded(
                QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), Unbounded)
                    .with_flush_threshold(threshold),
            ),
            (MetricKind::Frequency, ServingMode::Tumbling(len)) => {
                let policy =
                    Tumbling::new(window_len(tenant, len)?).map_err(|e| query_error(tenant, e))?;
                TenantEngine::FreqTumbling(
                    QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
                        .with_flush_threshold(threshold),
                )
            }
            (MetricKind::Frequency, ServingMode::Sliding(len)) => {
                let policy =
                    Sliding::new(window_len(tenant, len)?).map_err(|e| query_error(tenant, e))?;
                TenantEngine::FreqSliding(
                    QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
                        .with_flush_threshold(threshold),
                )
            }
            (MetricKind::Frequency, ServingMode::Rotating(len)) => {
                let mut rotating = RotatingEngine::new(
                    1,
                    AtomicCountMedian::with_backend(&params),
                    SeedSchedule::new(spec.seed),
                    window_len(tenant, len)?,
                )
                .map_err(|e| query_error(tenant, e))?
                .with_flush_threshold(threshold);
                if spec.audit_limit > 0 {
                    rotating = rotating.with_audit(AuditPolicy::new(spec.audit_limit));
                }
                TenantEngine::Rotating(Box::new(rotating))
            }
            (MetricKind::RangeSum, ServingMode::Unbounded) => TenantEngine::RangeUnbounded(
                QueryEngine::with_policy(1, range(), Unbounded).with_flush_threshold(threshold),
            ),
            (MetricKind::RangeSum, ServingMode::Tumbling(len)) => {
                let policy =
                    Tumbling::new(window_len(tenant, len)?).map_err(|e| query_error(tenant, e))?;
                TenantEngine::RangeTumbling(
                    QueryEngine::with_policy(1, range(), policy).with_flush_threshold(threshold),
                )
            }
            (MetricKind::RangeSum, ServingMode::Sliding(len)) => {
                let policy =
                    Sliding::new(window_len(tenant, len)?).map_err(|e| query_error(tenant, e))?;
                TenantEngine::RangeSliding(
                    QueryEngine::with_policy(1, range(), policy).with_flush_threshold(threshold),
                )
            }
            (MetricKind::RangeSum, ServingMode::Rotating(_)) => {
                return Err(unsupported(
                    tenant,
                    "rotating serving is frequency-metric only",
                ))
            }
        };
        let mut slot = Self {
            engine,
            audit_freq: None,
            audit_range: None,
        };
        if spec.audit_limit > 0 {
            let policy = AuditPolicy::new(spec.audit_limit);
            match &slot.engine {
                TenantEngine::FreqUnbounded(e) => {
                    slot.audit_freq = Some(e.handle().audited(policy))
                }
                TenantEngine::FreqTumbling(e) => slot.audit_freq = Some(e.handle().audited(policy)),
                TenantEngine::FreqSliding(e) => slot.audit_freq = Some(e.handle().audited(policy)),
                TenantEngine::RangeUnbounded(e) => {
                    slot.audit_range = Some(e.handle().audited(policy))
                }
                TenantEngine::RangeTumbling(e) => {
                    slot.audit_range = Some(e.handle().audited(policy))
                }
                TenantEngine::RangeSliding(e) => {
                    slot.audit_range = Some(e.handle().audited(policy))
                }
                TenantEngine::Rotating(_) => {} // audited inside the rotating engine
            }
        }
        Ok(slot)
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
        if let TenantEngine::Rotating(r) = &self.engine {
            return r
                .audited_window_estimate(item)
                .map_err(|e| query_error(tenant, e));
        }
        dispatch_windowed!(&self.engine, e => Ok(e.point_in_window(item)),
            else => Err(unsupported(tenant, "unbounded tenants serve no window queries")))
    }

    /// Since-boot heavy hitters (window-scoped for rotating tenants).
    pub(crate) fn heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        dispatch!(&self.engine,
            e => e.try_heavy_hitters(phi).map(hh_pairs).map_err(|e| query_error(tenant, e)),
            r => r.window_heavy_hitters(phi).map(hh_pairs).map_err(|e| query_error(tenant, e)))
    }

    /// Heavy hitters within the tenant's current window.
    pub(crate) fn window_heavy_hitters(
        &self,
        tenant: u64,
        phi: f64,
    ) -> Result<Vec<(u64, f64)>, ErrorReply> {
        if let TenantEngine::Rotating(r) = &self.engine {
            return r
                .window_heavy_hitters(phi)
                .map(hh_pairs)
                .map_err(|e| query_error(tenant, e));
        }
        dispatch_windowed!(&self.engine,
            e => e.heavy_hitters_in_window(phi).map(hh_pairs).map_err(|e| query_error(tenant, e)),
            else => Err(unsupported(tenant, "unbounded tenants serve no window queries")))
    }

    /// Since-boot range sum (range-sum tenants only).
    pub(crate) fn range_sum(&self, tenant: u64, lo: u64, hi: u64) -> Result<f64, ErrorReply> {
        match &self.engine {
            TenantEngine::RangeUnbounded(e) => checked_range_sum(tenant, e, lo, hi),
            TenantEngine::RangeTumbling(e) => checked_range_sum(tenant, e, lo, hi),
            TenantEngine::RangeSliding(e) => checked_range_sum(tenant, e, lo, hi),
            _ => Err(unsupported(tenant, "range sums need a range-sum tenant")),
        }
    }

    /// Range sum within the tenant's current window.
    pub(crate) fn window_range_sum(
        &self,
        tenant: u64,
        lo: u64,
        hi: u64,
    ) -> Result<f64, ErrorReply> {
        match &self.engine {
            TenantEngine::RangeTumbling(e) => e
                .range_sum_in_window(lo, hi)
                .map_err(|e| query_error(tenant, e)),
            TenantEngine::RangeSliding(e) => e
                .range_sum_in_window(lo, hi)
                .map_err(|e| query_error(tenant, e)),
            TenantEngine::RangeUnbounded(_) => Err(unsupported(
                tenant,
                "unbounded tenants serve no window queries",
            )),
            _ => Err(unsupported(tenant, "range sums need a range-sum tenant")),
        }
    }

    // ---- rebalance (export / install by linearity) ----

    /// Seals the tenant's state into a wire-shippable transfer: the
    /// cumulative plane(s), every retained seal, and the stream
    /// position. Rotating tenants refuse — their generations carry
    /// heterogeneous seeds, so no single linear merge rebuilds them.
    pub(crate) fn export(
        &mut self,
        spec: TenantSpec,
        params: SketchParams,
    ) -> Result<TenantTransfer, ErrorReply> {
        let one = |plane: &CounterMatrix<f64, Dense>| vec![plane.clone()];
        let stack = |planes: &Vec<CounterMatrix<f64, Dense>>| planes.clone();
        Ok(match &mut self.engine {
            TenantEngine::Rotating(_) => return Err(unsupported(spec.tenant, PINNED)),
            TenantEngine::FreqUnbounded(e) => export(e, spec, params, one),
            TenantEngine::FreqTumbling(e) => export(e, spec, params, one),
            TenantEngine::FreqSliding(e) => export(e, spec, params, one),
            TenantEngine::RangeUnbounded(e) => export(e, spec, params, stack),
            TenantEngine::RangeTumbling(e) => export(e, spec, params, stack),
            TenantEngine::RangeSliding(e) => export(e, spec, params, stack),
        })
    }

    /// Rebuilds a tenant from a transfer: check it whole
    /// ([`check_transfer`]), build a fresh engine from the seed in the
    /// layout the planes record, absorb the cumulative plane by
    /// linearity, restore the seals and the interval id. Bit-for-bit
    /// with the exporting engine on integer-delta streams. A refused
    /// transfer builds nothing.
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
        if let ServingMode::Rotating(_) = transfer.spec.mode {
            return Err(unsupported(tenant, PINNED));
        }
        let grid_levels = check_transfer(transfer)?;
        let mut slot = Self::build_in(&transfer.spec, template, grid_levels)?;
        let one = |planes: &[CounterMatrix<f64, Dense>]| planes[0].clone();
        let stack = |planes: &[CounterMatrix<f64, Dense>]| planes.to_vec();
        let restored = match &mut slot.engine {
            TenantEngine::Rotating(_) => return Err(unsupported(tenant, PINNED)),
            TenantEngine::FreqUnbounded(e) => restore(e, transfer, one),
            TenantEngine::FreqTumbling(e) => restore(e, transfer, one),
            TenantEngine::FreqSliding(e) => restore(e, transfer, one),
            TenantEngine::RangeUnbounded(e) => restore(e, transfer, stack),
            TenantEngine::RangeTumbling(e) => restore(e, transfer, stack),
            TenantEngine::RangeSliding(e) => restore(e, transfer, stack),
        };
        restored.map_err(|e| {
            ErrorReply::new("incompatible", format!("tenant {tenant}: cumulative: {e}"))
        })?;
        Ok(slot)
    }

    /// Whether this tenant can be rebalanced (rotating tenants are
    /// pinned).
    pub(crate) fn movable(&self) -> bool {
        !matches!(self.engine, TenantEngine::Rotating(_))
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
///   closes, so an exported tenant always does).
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
    if let ServingMode::Tumbling(len) | ServingMode::Sliding(len) = transfer.spec.mode {
        let first = transfer.interval - len.intervals.min(transfer.interval);
        let held = transfer.seals.iter().map(|s| s.interval);
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
    Ok(grid_levels)
}

/// Absorbs a checked transfer into a fresh engine: the cumulative
/// plane, every seal in order, then the interval id. `plane` turns a
/// shipped plane list into the engine's snapshot type.
fn restore<S, P>(
    e: &mut QueryEngine<S, P>,
    transfer: &TenantTransfer,
    plane: impl Fn(&[CounterMatrix<f64, Dense>]) -> S::Snapshot,
) -> Result<(), bas_sketch::MergeError>
where
    S: SharedSketch + Snapshottable + Reseedable + AbsorbPlane + Send,
    P: bas_serve::ServingPolicy,
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

fn checked_range_sum<P: bas_serve::ServingPolicy>(
    tenant: u64,
    e: &RangeEngine<P>,
    lo: u64,
    hi: u64,
) -> Result<f64, ErrorReply> {
    QueryError::check_range(lo, hi, e.sketch().config().n).map_err(|e| query_error(tenant, e))?;
    Ok(e.range_sum(lo, hi))
}

/// Flushes and pins `e`, then ships its cumulative plane and every
/// retained seal as plane lists (`planes` maps a snapshot to one).
fn export<S, P>(
    e: &mut QueryEngine<S, P>,
    spec: TenantSpec,
    params: SketchParams,
    planes: impl Fn(&S::Snapshot) -> Vec<CounterMatrix<f64, Dense>>,
) -> TenantTransfer
where
    S: SharedSketch + Snapshottable + Reseedable + Send,
    P: bas_serve::ServingPolicy,
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
