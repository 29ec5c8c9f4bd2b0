//! The multi-tenant serving fabric: shards of per-tenant engines,
//! placed by the rendezvous ring, fed and queried through the wire
//! protocol's request/response frames, with admission control and
//! live rebalance.
//!
//! The fabric is the server's single-threaded control plane: every
//! request funnels through [`Fabric::handle`], which owns placement
//! lookup, admission (malformed update → `bad_update` error, quota →
//! [`Response::Shed`], queue bound → [`Response::Busy`]), and dispatch
//! into the tenant's engine. Each engine is its counter planes' one
//! writer: a flush runs on the thread that dispatches it.
//!
//! **Rebalance by linearity.** Moving a tenant ships its counter
//! planes — never its hashers — through the real wire format
//! (serialize, frame, deframe, deserialize, with the byte volume
//! metered on the fabric's [`CommMeter`]). The destination rebuilds
//! the hashers deterministically from the tenant's seed and absorbs
//! the planes by linearity, so a moved tenant answers **bit-for-bit**
//! like one that never moved. Every tenant moves this way, through one
//! export and one install path: a seed-rotating tenant ships one plane
//! per generation where a windowed one ships its seals, and the
//! destination rebuilds generation `g`'s hashers from
//! `SeedSchedule::new(seed).seed_for(g)`, so linearity only has to hold
//! within each plane.

use crate::engine::EngineSlot;
use crate::placement::PlacementRing;
use crate::wire::{
    self, AdmitReceipt, BusyReceipt, ErrorReply, FlushReceipt, HeavyHittersReply, IngestFrame,
    InstallReceipt, Request, Response, SealReceipt, ShedReceipt, StatsReply, TenantRef, TenantSpec,
    TenantTransfer, ValueReply,
};
use bas_distributed::CommMeter;
use bas_sketch::{CellWidth, SketchParams};
use std::collections::BTreeMap;
use std::fmt;

/// Fabric-wide configuration shared by every tenant engine.
///
/// For new deployments, build the template with
/// [`HashKind::OneHash`](bas_hash::HashKind::OneHash) — one digest per
/// item with rows re-keyed from it, so the batch kernels on the ingest
/// path hoist the hash out of the row loop (`bas-serverd` defaults to
/// it). The classical kinds stay available for paper-conformance runs
/// and for fabrics that must stay bit-for-bit with existing journals
/// and golden vectors.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Sketch shape template. Each tenant's engine is built from this
    /// template reseeded with the tenant's own seed, so all tenants
    /// share a shape (transfers stay compatible) while staying
    /// hash-isolated.
    pub params: SketchParams,
    /// Per-frame byte cap applied when shipping transfers.
    pub max_frame_bytes: usize,
}

impl FabricConfig {
    /// A config with the given sketch shape and the default frame cap.
    pub fn new(params: SketchParams) -> Self {
        Self {
            params,
            max_frame_bytes: wire::MAX_FRAME_BYTES,
        }
    }
}

/// One tenant's fabric-side state: spec, quota bookkeeping, engine.
#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    admitted_in_interval: u64,
    slot: EngineSlot,
}

/// A record of one tenant move in a [`RebalanceReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantMove {
    /// The tenant that moved.
    pub tenant: u64,
    /// Shard it left.
    pub from: u64,
    /// Shard it landed on.
    pub to: u64,
}

/// What a shard add/remove did to tenant placement.
#[derive(Debug, Clone, Default)]
pub struct RebalanceReport {
    /// Tenants shipped to a new shard, in tenant-id order.
    pub moved: Vec<TenantMove>,
    /// Wire bytes shipped (each transfer is framed once and counted
    /// once; the meter records the same volume as upload + download).
    pub bytes_shipped: u64,
}

/// The serving fabric: a placement ring over engine shards.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    ring: PlacementRing,
    /// Tenants per shard (`BTreeMap` for deterministic rebalance
    /// order).
    shards: BTreeMap<u64, BTreeMap<u64, Tenant>>,
    /// Tenant → hosting shard.
    assignments: BTreeMap<u64, u64>,
    meter: CommMeter,
}

fn unknown_tenant(tenant: u64) -> ErrorReply {
    ErrorReply::new(
        "unknown_tenant",
        format!("tenant {tenant} is not registered"),
    )
}

/// An internal-consistency failure: the placement map and the shard
/// map disagree about where a tenant lives.
///
/// These states are unreachable through the public API, but a
/// connection-per-thread daemon cannot afford to panic on them — a
/// panic kills the worker thread and poisons the shared fabric lock
/// for every other connection. Every structural lookup therefore
/// surfaces the disagreement as a typed error, which [`Fabric::handle`]
/// converts into a [`Response::Error`] with code `fabric_inconsistent`
/// so the one affected request fails while the daemon keeps serving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricError {
    /// The placement map names a shard the shard map does not contain.
    ShardMissing {
        /// Tenant whose lookup failed.
        tenant: u64,
        /// The shard the placement map claims hosts it.
        shard: u64,
    },
    /// The shard exists but does not host the tenant assigned to it.
    TenantMissing {
        /// Tenant whose lookup failed.
        tenant: u64,
        /// The shard the placement map claims hosts it.
        shard: u64,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ShardMissing { tenant, shard } => write!(
                f,
                "placement maps tenant {tenant} to shard {shard}, which is not in the shard map"
            ),
            Self::TenantMissing { tenant, shard } => write!(
                f,
                "placement maps tenant {tenant} to shard {shard}, which does not host it"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<FabricError> for ErrorReply {
    fn from(e: FabricError) -> Self {
        ErrorReply::new("fabric_inconsistent", e.to_string())
    }
}

impl Fabric {
    /// An empty fabric (no shards, no tenants).
    pub fn new(config: FabricConfig) -> Self {
        Self {
            config,
            ring: PlacementRing::new(),
            shards: BTreeMap::new(),
            assignments: BTreeMap::new(),
            meter: CommMeter::new(),
        }
    }

    /// The shared configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// The placement ring.
    pub fn ring(&self) -> &PlacementRing {
        &self.ring
    }

    /// The transfer-volume meter (rebalance traffic only; queries and
    /// ingest handled in-process are not metered).
    pub fn meter(&self) -> &CommMeter {
        &self.meter
    }

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        self.assignments.len()
    }

    /// The shard currently hosting a tenant.
    pub fn shard_of(&self, tenant: u64) -> Option<u64> {
        self.assignments.get(&tenant).copied()
    }

    /// Tenant ids hosted on a shard, in id order.
    pub fn tenants_on(&self, shard: u64) -> Vec<u64> {
        self.shards
            .get(&shard)
            .map(|t| t.keys().copied().collect())
            .unwrap_or_default()
    }

    // ---- shard membership ----

    /// Adds a shard with the given capacity weight and rebalances:
    /// every tenant whose ring placement changed is shipped to the new
    /// shard through the wire format.
    ///
    /// # Errors
    /// `tenant_exists`-style `ErrorReply` with code `protocol` if the
    /// shard id is already present or the weight is invalid.
    pub fn add_shard(&mut self, id: u64, weight: f64) -> Result<RebalanceReport, ErrorReply> {
        if self.ring.contains(id) {
            return Err(ErrorReply::new(
                "protocol",
                format!("shard {id} is already in the ring"),
            ));
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(ErrorReply::new(
                "protocol",
                format!("shard weight must be positive and finite, got {weight}"),
            ));
        }
        self.ring.add_shard(id, weight);
        self.shards.entry(id).or_default();
        self.rebalance_to_ring()
    }

    /// Removes a shard and rebalances its tenants onto the survivors.
    ///
    /// # Errors
    /// `unsupported` if the shard hosts any tenant and no other shard
    /// remains.
    pub fn remove_shard(&mut self, id: u64) -> Result<RebalanceReport, ErrorReply> {
        if !self.ring.contains(id) {
            return Err(ErrorReply::new(
                "protocol",
                format!("shard {id} is not in the ring"),
            ));
        }
        let hosted = self.shards.get(&id).map_or(0, BTreeMap::len);
        if hosted > 0 && self.ring.len() == 1 {
            return Err(ErrorReply::new(
                "unsupported",
                format!("cannot remove the last shard while {hosted} tenants remain"),
            ));
        }
        self.ring.remove_shard(id);
        let report = self.rebalance_to_ring()?;
        let drained = self.shards.remove(&id);
        debug_assert!(drained.map(|t| t.is_empty()).unwrap_or(true));
        Ok(report)
    }

    /// Ships every tenant whose current shard disagrees with the ring
    /// to where the ring says it belongs.
    fn rebalance_to_ring(&mut self) -> Result<RebalanceReport, ErrorReply> {
        let mut report = RebalanceReport::default();
        let tenants: Vec<u64> = self.assignments.keys().copied().collect();
        for tenant in tenants {
            let from = self.assignments[&tenant];
            let to = self
                .ring
                .place(tenant)
                .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
            if to == from {
                continue;
            }
            let bytes = self.ship_tenant(tenant, from, to)?;
            report.bytes_shipped += bytes;
            report.moved.push(TenantMove { tenant, from, to });
        }
        Ok(report)
    }

    /// Moves one tenant between shards through the real wire format:
    /// export, frame, meter the bytes, deframe, install, and only then
    /// drop the source engine. Returns the framed byte count.
    fn ship_tenant(&mut self, tenant: u64, from: u64, to: u64) -> Result<u64, ErrorReply> {
        let transfer = {
            let t = self
                .shards
                .get_mut(&from)
                .ok_or(FabricError::ShardMissing {
                    tenant,
                    shard: from,
                })?
                .get_mut(&tenant)
                .ok_or(FabricError::TenantMissing {
                    tenant,
                    shard: from,
                })?;
            t.slot
                .export(t.spec, self.config.params.with_seed(t.spec.seed))
        };
        let mut buf = Vec::new();
        let bytes = wire::write_frame(&mut buf, &transfer)
            .map_err(|e| ErrorReply::new("protocol", format!("tenant {tenant} export: {e}")))?;
        let words = (bytes as u64).div_ceil(8);
        self.meter.record_upload(words);
        let shipped: TenantTransfer = wire::read_frame(&mut &buf[..], self.config.max_frame_bytes)
            .map_err(|e| ErrorReply::new("protocol", format!("tenant {tenant} transfer: {e}")))?
            .ok_or_else(|| ErrorReply::new("protocol", "empty transfer stream"))?;
        self.meter.record_download(words);
        let slot = EngineSlot::install(&shipped, self.config.params.clone())?;
        let spec = shipped.spec;
        let admitted = {
            let old = self
                .shards
                .get_mut(&from)
                .ok_or(FabricError::ShardMissing {
                    tenant,
                    shard: from,
                })?
                .remove(&tenant)
                .ok_or(FabricError::TenantMissing {
                    tenant,
                    shard: from,
                })?;
            old.admitted_in_interval
        };
        self.shards.entry(to).or_default().insert(
            tenant,
            Tenant {
                spec,
                admitted_in_interval: admitted,
                slot,
            },
        );
        self.assignments.insert(tenant, to);
        Ok(bytes as u64)
    }

    // ---- tenant lifecycle ----

    /// Registers a fresh (empty) tenant; the ring picks its shard.
    /// Returns the hosting shard id.
    ///
    /// # Errors
    /// `tenant_exists` if the id is taken, `protocol` if the ring is
    /// empty, `bad_query`/`unsupported` for invalid specs.
    pub fn register_tenant(&mut self, spec: TenantSpec) -> Result<u64, ErrorReply> {
        if self.assignments.contains_key(&spec.tenant) {
            return Err(ErrorReply::new(
                "tenant_exists",
                format!("tenant {} is already registered", spec.tenant),
            ));
        }
        let shard = self
            .ring
            .place(spec.tenant)
            .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
        let slot = EngineSlot::build(&spec, self.config.params.clone())?;
        self.shards.entry(shard).or_default().insert(
            spec.tenant,
            Tenant {
                spec,
                admitted_in_interval: 0,
                slot,
            },
        );
        self.assignments.insert(spec.tenant, shard);
        Ok(shard)
    }

    /// Installs a tenant from an exported transfer (the receiving half
    /// of a cross-fabric move). The ring picks the shard; the engine is
    /// rebuilt by linearity.
    pub fn install_tenant(&mut self, transfer: &TenantTransfer) -> Result<u64, ErrorReply> {
        let tenant = transfer.spec.tenant;
        if self.assignments.contains_key(&tenant) {
            return Err(ErrorReply::new(
                "tenant_exists",
                format!("tenant {tenant} is already registered"),
            ));
        }
        let shard = self
            .ring
            .place(tenant)
            .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
        let slot = EngineSlot::install(transfer, self.config.params.clone())?;
        self.shards.entry(shard).or_default().insert(
            tenant,
            Tenant {
                spec: transfer.spec,
                admitted_in_interval: 0,
                slot,
            },
        );
        self.assignments.insert(tenant, shard);
        Ok(shard)
    }

    /// The registered spec of a tenant, if any.
    pub fn tenant_spec(&self, tenant: u64) -> Option<TenantSpec> {
        self.tenant(tenant).ok().map(|t| t.spec)
    }

    /// All registered tenant ids, in id order.
    pub fn tenant_ids(&self) -> Vec<u64> {
        self.assignments.keys().copied().collect()
    }

    /// Closes the open interval of every tenant (flushing pending
    /// updates first, exactly as [`Request::AdvanceInterval`] does) and
    /// resets quota bookkeeping. Graceful shutdown calls this so a
    /// restarted daemon resumes on a clean interval boundary. Returns
    /// `(tenant, sealed_interval)` pairs in tenant order for
    /// journaling; a tenant that refuses the advance (its interval is
    /// `u64::MAX`) is left unchanged and out of the list.
    pub fn quiesce(&mut self) -> Vec<(u64, u64)> {
        let mut sealed = Vec::new();
        for shard in self.shards.values_mut() {
            for (tenant, t) in shard.iter_mut() {
                if let Ok(interval) = t.slot.advance_interval(*tenant) {
                    t.admitted_in_interval = 0;
                    sealed.push((*tenant, interval));
                }
            }
        }
        sealed.sort_unstable();
        sealed
    }

    /// Test-only: points the placement map at `shard` for `tenant`
    /// without moving the engine, manufacturing exactly the
    /// placement/shard-map disagreement [`FabricError`] guards against.
    #[doc(hidden)]
    pub fn desync_assignment_for_test(&mut self, tenant: u64, shard: u64) {
        self.assignments.insert(tenant, shard);
    }

    fn tenant(&self, tenant: u64) -> Result<&Tenant, ErrorReply> {
        let shard = *self
            .assignments
            .get(&tenant)
            .ok_or_else(|| unknown_tenant(tenant))?;
        Ok(self
            .shards
            .get(&shard)
            .ok_or(FabricError::ShardMissing { tenant, shard })?
            .get(&tenant)
            .ok_or(FabricError::TenantMissing { tenant, shard })?)
    }

    fn tenant_mut(&mut self, tenant: u64) -> Result<&mut Tenant, ErrorReply> {
        let shard = *self
            .assignments
            .get(&tenant)
            .ok_or_else(|| unknown_tenant(tenant))?;
        Ok(self
            .shards
            .get_mut(&shard)
            .ok_or(FabricError::ShardMissing { tenant, shard })?
            .get_mut(&tenant)
            .ok_or(FabricError::TenantMissing { tenant, shard })?)
    }

    // ---- the request plane ----

    /// Handles one request frame; every outcome — including every
    /// rejection — is a response frame, never a panic.
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Ingest(frame) => self.ingest(frame),
            Request::Flush(TenantRef { tenant }) => self.with_tenant_mut(tenant, |t| {
                Response::Flushed(FlushReceipt {
                    tenant,
                    applied: t.slot.flush(),
                })
            }),
            Request::AdvanceInterval(TenantRef { tenant }) => {
                self.with_tenant_mut(tenant, |t| match t.slot.advance_interval(tenant) {
                    Ok(sealed_interval) => {
                        t.admitted_in_interval = 0;
                        Response::Sealed(SealReceipt {
                            tenant,
                            sealed_interval,
                        })
                    }
                    Err(e) => Response::Error(e),
                })
            }
            Request::Point(q) => self.value(q.tenant, format_args!("item {}", q.item), |t| {
                check_item(q.tenant, q.item, t.slot.universe())?;
                t.slot.point(q.tenant, q.item)
            }),
            Request::WindowPoint(q) => self.value(q.tenant, format_args!("item {}", q.item), |t| {
                check_item(q.tenant, q.item, t.slot.universe())?;
                t.slot.window_point(q.tenant, q.item)
            }),
            Request::HeavyHitters(q) => {
                self.heavy(q.tenant, |t| t.slot.heavy_hitters(q.tenant, q.phi))
            }
            Request::WindowHeavyHitters(q) => {
                self.heavy(q.tenant, |t| t.slot.window_heavy_hitters(q.tenant, q.phi))
            }
            Request::RangeSum(q) => {
                self.value(q.tenant, format_args!("range [{}, {}]", q.lo, q.hi), |t| {
                    t.slot.range_sum(q.tenant, q.lo, q.hi)
                })
            }
            Request::WindowRangeSum(q) => {
                self.value(q.tenant, format_args!("range [{}, {}]", q.lo, q.hi), |t| {
                    t.slot.window_range_sum(q.tenant, q.lo, q.hi)
                })
            }
            Request::Stats(TenantRef { tenant }) => match self.tenant(tenant) {
                Err(e) => Response::Error(e),
                Ok(t) if !t.slot.mass().is_finite() => {
                    Response::Error(non_finite(tenant, format_args!("mass"), t.slot.mass()))
                }
                Ok(t) => Response::Stats(StatsReply {
                    tenant,
                    shard: self.assignments[&tenant],
                    applied: t.slot.applied(),
                    mass: t.slot.mass(),
                    pending: t.slot.pending(),
                    admitted_in_interval: t.admitted_in_interval,
                    interval: t.slot.interval(),
                }),
            },
            Request::Export(TenantRef { tenant }) => {
                let params = self.config.params.clone();
                self.with_tenant_mut(tenant, |t| {
                    Response::Exported(t.slot.export(t.spec, params.with_seed(t.spec.seed)))
                })
            }
            Request::Install(transfer) => match self.install_tenant(&transfer) {
                Ok(shard) => Response::Installed(InstallReceipt {
                    tenant: transfer.spec.tenant,
                    shard,
                }),
                Err(e) => Response::Error(e),
            },
            Request::Register(spec) => match self.register_tenant(spec) {
                Ok(shard) => Response::Installed(InstallReceipt {
                    tenant: spec.tenant,
                    shard,
                }),
                Err(e) => Response::Error(e),
            },
        }
    }

    /// Admission control, checked in policy order: every update must be
    /// servable (`bad_update` — a client bug, retrying cannot help),
    /// then the interval quota (Shed — retry next interval), then the
    /// queue bound (Busy — retry after a flush). A rejected batch
    /// admits **nothing**.
    fn ingest(&mut self, frame: IngestFrame) -> Response {
        let tenant = frame.tenant;
        let k = frame.updates.len() as u64;
        let cell = self.config.params.cell;
        self.with_tenant_mut(tenant, |t| {
            if let Err(e) = check_updates(tenant, &frame.updates, t.slot.universe(), cell) {
                return Response::Error(e);
            }
            if t.admitted_in_interval.saturating_add(k) > t.spec.interval_quota {
                return Response::Shed(ShedReceipt {
                    tenant,
                    admitted: t.admitted_in_interval,
                    quota: t.spec.interval_quota,
                });
            }
            let pending = t.slot.pending();
            if pending.saturating_add(k) > t.spec.queue_capacity {
                return Response::Busy(BusyReceipt {
                    tenant,
                    pending,
                    capacity: t.spec.queue_capacity,
                });
            }
            t.slot.extend_from_slice(&frame.updates);
            t.admitted_in_interval += k;
            Response::Admitted(AdmitReceipt {
                tenant,
                pending: t.slot.pending(),
            })
        })
    }

    fn with_tenant_mut(
        &mut self,
        tenant: u64,
        f: impl FnOnce(&mut Tenant) -> Response,
    ) -> Response {
        match self.tenant_mut(tenant) {
            Ok(t) => f(t),
            Err(e) => Response::Error(e),
        }
    }

    /// Answers a single-value query about `asked` (an item or a range,
    /// named in a `non_finite` rejection's detail).
    fn value(
        &self,
        tenant: u64,
        asked: fmt::Arguments<'_>,
        f: impl FnOnce(&Tenant) -> Result<f64, ErrorReply>,
    ) -> Response {
        match self.tenant(tenant).and_then(f) {
            Ok(value) if !value.is_finite() => Response::Error(non_finite(tenant, asked, value)),
            Ok(value) => Response::Value(ValueReply { tenant, value }),
            Err(e) => Response::Error(e),
        }
    }

    fn heavy(
        &self,
        tenant: u64,
        f: impl FnOnce(&Tenant) -> Result<Vec<(u64, f64)>, ErrorReply>,
    ) -> Response {
        match self.tenant(tenant).and_then(f) {
            Ok(items) => match items.iter().find(|(_, estimate)| !estimate.is_finite()) {
                Some(&(item, estimate)) => Response::Error(non_finite(
                    tenant,
                    format_args!("heavy hitter {item}"),
                    estimate,
                )),
                None => Response::HeavyHitters(HeavyHittersReply { tenant, items }),
            },
            Err(e) => Response::Error(e),
        }
    }
}

/// A query answer the wire cannot carry: JSON has no `inf` or `NaN`
/// (they would go out as `null` and arrive as NaN), so the answer is
/// refused with a typed error instead of sent unfaithfully. `Stats`
/// refuses a non-finite `mass` the same way.
fn non_finite(tenant: u64, asked: fmt::Arguments<'_>, value: f64) -> ErrorReply {
    ErrorReply::new(
        "non_finite",
        format!("tenant {tenant}: the answer for {asked} is {value}, which is not finite"),
    )
}

/// Admission-time validation of an ingest frame: every update needs an
/// item inside the universe and a finite delta, and integer cells
/// (every [`CellWidth`] but `F64`) need an integral one — they would
/// truncate anything else. Checked before anything is buffered, so a
/// bad frame can neither panic a later flush nor poison the tenant's
/// counters with `inf`/`NaN`. The error names the first bad update's
/// index.
fn check_updates(
    tenant: u64,
    updates: &[(u64, f64)],
    universe: u64,
    cell: CellWidth,
) -> Result<(), ErrorReply> {
    let integral = cell != CellWidth::F64;
    let bad = |&(item, delta): &(u64, f64)| {
        item >= universe || !delta.is_finite() || (integral && delta.fract() != 0.0)
    };
    let Some(at) = updates.iter().position(bad) else {
        return Ok(());
    };
    let (item, delta) = updates[at];
    let why = if item >= universe {
        format!("item {item} is outside the universe [0, {universe})")
    } else if !delta.is_finite() {
        format!("delta {delta} is not finite")
    } else {
        format!(
            "delta {delta} is not an integer, as {} cells require",
            cell.label()
        )
    };
    Err(ErrorReply::new(
        "bad_update",
        format!("tenant {tenant}: update {at} rejected, nothing admitted: {why}"),
    ))
}

fn check_item(tenant: u64, item: u64, universe: u64) -> Result<(), ErrorReply> {
    if item >= universe {
        return Err(ErrorReply::new(
            "bad_query",
            format!("tenant {tenant}: item {item} is outside the universe [0, {universe})"),
        ));
    }
    Ok(())
}
