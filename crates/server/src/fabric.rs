//! The multi-tenant serving fabric: shards of per-tenant engines,
//! placed by the rendezvous ring, fed and queried through the wire
//! protocol's request/response frames, with admission control.
//!
//! Every request funnels through [`Fabric::handle`], which owns
//! placement lookup, admission (malformed update → `bad_update` error,
//! quota → [`Response::Shed`], queue bound → [`Response::Busy`]), and
//! dispatch into the tenant's engine.
//!
//! **Locking.** The fabric is internally synchronized, so `handle`
//! takes `&self` and any number of threads dispatch at once. Each
//! tenant is an independent linear sketch whose answers read only its
//! own counters, so each sits behind its own `RwLock`: `Ingest`,
//! `Flush`, `AdvanceInterval` and `Export` take its write lock (the
//! engine is its planes' one writer, and a flush runs on the thread
//! that dispatches it), the six query verbs and `Stats` its read lock.
//! The tenant map sits behind one `RwLock` that only `Register` and
//! `Install` write; a request holds it just long enough to find its
//! tenant. Shard membership changes take `&mut self` (no request verb
//! changes it), so the ring needs no lock. The order is map, then
//! tenant, and no path holds two tenant locks.
//!
//! **A rebalance relabels.** Every shard is a label in this one
//! process, and placement is a pure function of `(tenant, ring)`, so a
//! tenant's shard is read from the ring, never stored. A shard add or
//! remove changes the ring and reports the tenants it moved; no state
//! moves, so a moved tenant keeps its pending updates, quota count and
//! audit budgets.
//!
//! **Moves between fabrics by linearity.** `Export` ships a tenant's
//! counter planes — never its hashers — and `Install` rebuilds the
//! hashers from the tenant's seed and absorbs the planes by linearity,
//! so an installed tenant answers **bit-for-bit** like the one
//! exported. A seed-rotating tenant ships one plane per generation
//! where a windowed one ships its seals, and the destination rebuilds
//! generation `g`'s hashers from `SeedSchedule::new(seed).seed_for(g)`,
//! so linearity only has to hold within each plane. Compaction and
//! recovery ([`persist`](crate::persist)) take the same path.

use crate::engine::EngineSlot;
use crate::placement::PlacementRing;
use crate::wire::{
    AdmitReceipt, BusyReceipt, ErrorReply, FlushReceipt, HeavyHittersReply, IngestFrame,
    InstallReceipt, Request, Response, SealReceipt, ShedReceipt, StatsReply, TenantRef, TenantSpec,
    TenantTransfer, ValueReply,
};
use bas_sketch::SketchParams;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Fabric-wide configuration shared by every tenant engine.
///
/// For new deployments, build the template with
/// [`HashKind::OneHash`](bas_hash::HashKind::OneHash) — one digest per
/// item with rows re-keyed from it, so the batch kernels on the ingest
/// path hoist the hash out of the row loop (`bas-serverd` defaults to
/// it). The classical kinds stay available for paper-conformance runs
/// and for fabrics that must stay bit-for-bit with existing journals
/// and golden vectors.
///
/// There is no frame cap here: the fabric reads no frames. A peer's
/// frames stay under the daemon's cap
/// ([`DaemonConfig::max_frame_bytes`](crate::DaemonConfig::max_frame_bytes)),
/// and the journal's are read at the limit of their `u32` length
/// prefix.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Sketch shape template. Each tenant's engine is built from this
    /// template reseeded with the tenant's own seed, so all tenants
    /// share a shape (transfers stay compatible) while staying
    /// hash-isolated.
    pub params: SketchParams,
}

impl FabricConfig {
    /// A config with the given sketch shape.
    pub fn new(params: SketchParams) -> Self {
        Self { params }
    }
}

/// One tenant's fabric-side state: spec, quota bookkeeping, engine.
/// Its shard is where the ring places it ([`Fabric::shard_of`]).
#[derive(Debug)]
struct Tenant {
    spec: TenantSpec,
    admitted_in_interval: u64,
    slot: EngineSlot,
}

impl Tenant {
    /// Flushes the tenant and exports it whole: planes, stream position
    /// and the interval's quota count.
    fn export(&mut self, config: &FabricConfig) -> TenantTransfer {
        let params = config.params.with_seed(self.spec.seed);
        self.slot
            .export(self.spec, params, self.admitted_in_interval)
    }

    /// Closes the open interval (flushing pending updates first) and
    /// renews the interval's quota; returns the interval sealed.
    fn advance(&mut self) -> Result<u64, ErrorReply> {
        let sealed = self.slot.advance_interval(self.spec.tenant)?;
        self.admitted_in_interval = 0;
        Ok(sealed)
    }
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
    /// Tenants the ring now places on another shard, in tenant-id
    /// order.
    pub moved: Vec<TenantMove>,
}

/// One tenant behind its own lock; a request clones the `Arc` out of
/// the map, so it holds the map's lock only for the lookup.
type TenantLock = Arc<RwLock<Tenant>>;

/// The serving fabric: a placement ring over engine shards.
#[derive(Debug)]
pub struct Fabric {
    config: FabricConfig,
    /// Shard membership and placement.
    ring: PlacementRing,
    /// Every tenant (`BTreeMap` for deterministic rebalance order).
    tenants: RwLock<BTreeMap<u64, TenantLock>>,
}

/// A lock's read guard. A poisoned lock (a panic in a holder) is
/// recovered: `handle` is panic-free by construction, every failure
/// being a typed `Response::Error`, so the state under the marker is
/// still consistent.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// A lock's write guard, recovered from poison as [`read`] is.
fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn unknown_tenant(tenant: u64) -> ErrorReply {
    ErrorReply::new(
        "unknown_tenant",
        format!("tenant {tenant} is not registered"),
    )
}

impl Fabric {
    /// An empty fabric (no shards, no tenants).
    pub fn new(config: FabricConfig) -> Self {
        Self {
            config,
            ring: PlacementRing::new(),
            tenants: RwLock::new(BTreeMap::new()),
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

    /// Number of registered tenants.
    pub fn tenant_count(&self) -> usize {
        read(&self.tenants).len()
    }

    /// The shard hosting a registered tenant: where the ring places it.
    pub fn shard_of(&self, tenant: u64) -> Option<u64> {
        self.tenant(tenant).ok().and(self.ring.place(tenant))
    }

    /// Tenant ids hosted on a shard, in id order.
    pub fn tenants_on(&self, shard: u64) -> Vec<u64> {
        let mut hosted = self.tenant_ids();
        hosted.retain(|&t| self.ring.place(t) == Some(shard));
        hosted
    }

    // ---- shard membership ----

    /// Adds a shard with the given capacity weight. Every tenant whose
    /// ring placement changed now sits on the new shard.
    ///
    /// # Errors
    /// `protocol` if the shard id is already present or the weight is
    /// invalid; the ring is then unchanged.
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
        let before = self.ring.clone();
        self.ring.add_shard(id, weight);
        Ok(self.moves_from(&before))
    }

    /// Removes a shard; its tenants now sit on the survivors.
    ///
    /// # Errors
    /// `protocol` if the shard is not in the ring; `unsupported` if it
    /// is the last shard and any tenant remains. The ring is then
    /// unchanged.
    pub fn remove_shard(&mut self, id: u64) -> Result<RebalanceReport, ErrorReply> {
        if !self.ring.contains(id) {
            return Err(ErrorReply::new(
                "protocol",
                format!("shard {id} is not in the ring"),
            ));
        }
        let hosted = self.tenant_count();
        if hosted > 0 && self.ring.len() == 1 {
            return Err(ErrorReply::new(
                "unsupported",
                format!("cannot remove the last shard while {hosted} tenants remain"),
            ));
        }
        let before = self.ring.clone();
        self.ring.remove_shard(id);
        Ok(self.moves_from(&before))
    }

    /// Every tenant that `before` placed on another shard than the ring
    /// does, in tenant-id order.
    fn moves_from(&self, before: &PlacementRing) -> RebalanceReport {
        let moved = self.tenant_ids().into_iter().filter_map(|tenant| {
            let (from, to) = (before.place(tenant)?, self.ring.place(tenant)?);
            (from != to).then_some(TenantMove { tenant, from, to })
        });
        RebalanceReport {
            moved: moved.collect(),
        }
    }

    // ---- tenant lifecycle ----

    /// Registers a fresh (empty) tenant; the ring picks its shard.
    /// Returns the hosting shard id.
    ///
    /// # Errors
    /// `tenant_exists` if the id is taken, `protocol` if the ring is
    /// empty, `bad_query`/`unsupported` for invalid specs.
    pub fn register_tenant(&self, spec: TenantSpec) -> Result<u64, ErrorReply> {
        let mut tenants = write(&self.tenants);
        if tenants.contains_key(&spec.tenant) {
            return Err(ErrorReply::new(
                "tenant_exists",
                format!("tenant {} is already registered", spec.tenant),
            ));
        }
        let shard = self.place(spec.tenant)?;
        let slot = EngineSlot::build(&spec, self.config.params)?;
        let t = Tenant {
            spec,
            admitted_in_interval: 0,
            slot,
        };
        tenants.insert(spec.tenant, Arc::new(RwLock::new(t)));
        Ok(shard)
    }

    /// Installs a tenant from an exported transfer (the receiving half
    /// of a cross-fabric move). The ring picks the shard; the engine is
    /// rebuilt by linearity, and the interval's quota count resumes at
    /// the transfer's.
    pub fn install_tenant(&self, transfer: &TenantTransfer) -> Result<u64, ErrorReply> {
        let tenant = transfer.spec.tenant;
        let mut tenants = write(&self.tenants);
        if tenants.contains_key(&tenant) {
            return Err(ErrorReply::new(
                "tenant_exists",
                format!("tenant {tenant} is already registered"),
            ));
        }
        let shard = self.place(tenant)?;
        let slot = EngineSlot::install(transfer, self.config.params)?;
        let t = Tenant {
            spec: transfer.spec,
            admitted_in_interval: transfer.admitted_in_interval,
            slot,
        };
        tenants.insert(tenant, Arc::new(RwLock::new(t)));
        Ok(shard)
    }

    /// The registered spec of a tenant, if any.
    pub fn tenant_spec(&self, tenant: u64) -> Option<TenantSpec> {
        self.tenant(tenant).ok().map(|t| read(&t).spec)
    }

    /// All registered tenant ids, in id order.
    pub fn tenant_ids(&self) -> Vec<u64> {
        read(&self.tenants).keys().copied().collect()
    }

    /// Closes the open interval of every tenant (flushing pending
    /// updates first, exactly as [`Request::AdvanceInterval`] does) and
    /// resets quota bookkeeping. Graceful shutdown calls this so a
    /// restarted daemon resumes on a clean interval boundary. Returns
    /// `(tenant, sealed_interval)` pairs in tenant order for
    /// journaling; a tenant that refuses the advance (its interval is
    /// `u64::MAX`) is left unchanged and out of the list.
    pub fn quiesce(&self) -> Vec<(u64, u64)> {
        let mut sealed = Vec::new();
        for (tenant, t) in self.tenants() {
            if let Ok(interval) = write(&t).advance() {
                sealed.push((tenant, interval));
            }
        }
        sealed
    }

    /// The shard the ring places a tenant on. A registered tenant always
    /// has one: the ring cannot be emptied while a tenant remains.
    fn place(&self, tenant: u64) -> Result<u64, ErrorReply> {
        let empty = || ErrorReply::new("protocol", "the ring has no shards");
        self.ring.place(tenant).ok_or_else(empty)
    }

    /// A tenant's lock, cloned out of the map so the map's read lock
    /// is held only for the lookup.
    fn tenant(&self, tenant: u64) -> Result<TenantLock, ErrorReply> {
        let tenants = read(&self.tenants);
        let t = tenants.get(&tenant).ok_or_else(|| unknown_tenant(tenant))?;
        Ok(Arc::clone(t))
    }

    /// Every tenant's lock in id order, cloned out of the map so that
    /// a pass over them holds one tenant lock at a time and never the
    /// map's.
    fn tenants(&self) -> Vec<(u64, TenantLock)> {
        let tenants = read(&self.tenants);
        tenants.iter().map(|(&id, t)| (id, Arc::clone(t))).collect()
    }

    // ---- the request plane ----

    /// Handles one request frame; every outcome — including every
    /// rejection — is a response frame, never a panic.
    pub fn handle(&self, req: Request) -> Response {
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
                self.with_tenant_mut(tenant, |t| match t.advance() {
                    Ok(sealed_interval) => Response::Sealed(SealReceipt {
                        tenant,
                        sealed_interval,
                    }),
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
            Request::Stats(TenantRef { tenant }) => {
                self.with_tenant(tenant, |t| match (t.slot.mass(), self.place(tenant)) {
                    (mass, _) if !mass.is_finite() => {
                        Response::Error(non_finite(tenant, format_args!("mass"), mass))
                    }
                    (_, Err(e)) => Response::Error(e),
                    (mass, Ok(shard)) => Response::Stats(StatsReply {
                        tenant,
                        shard,
                        applied: t.slot.applied(),
                        mass,
                        pending: t.slot.pending(),
                        admitted_in_interval: t.admitted_in_interval,
                        interval: t.slot.interval(),
                    }),
                })
            }
            Request::Export(TenantRef { tenant }) => {
                self.with_tenant_mut(tenant, |t| Response::Exported(t.export(&self.config)))
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
    fn ingest(&self, frame: IngestFrame) -> Response {
        let tenant = frame.tenant;
        let k = frame.updates.len() as u64;
        self.with_tenant_mut(tenant, |t| {
            if let Err(e) = check_updates(tenant, &frame.updates, t.slot.universe()) {
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

    /// Runs `f` under the tenant's write lock.
    fn with_tenant_mut(&self, tenant: u64, f: impl FnOnce(&mut Tenant) -> Response) -> Response {
        match self.tenant(tenant) {
            Ok(t) => f(&mut write(&t)),
            Err(e) => Response::Error(e),
        }
    }

    /// Runs `f` under the tenant's read lock.
    fn with_tenant(&self, tenant: u64, f: impl FnOnce(&Tenant) -> Response) -> Response {
        match self.tenant(tenant) {
            Ok(t) => f(&read(&t)),
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
        match self.tenant(tenant).and_then(|t| f(&read(&t))) {
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
        match self.tenant(tenant).and_then(|t| f(&read(&t))) {
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

/// A query answer that is not finite: answers are finite by contract,
/// so an estimate that reached `inf` or NaN (an overflowed cell) is
/// refused with a typed error rather than served as a number. `Stats`
/// refuses a non-finite `mass` the same way.
fn non_finite(tenant: u64, asked: fmt::Arguments<'_>, value: f64) -> ErrorReply {
    ErrorReply::new(
        "non_finite",
        format!("tenant {tenant}: the answer for {asked} is {value}, which is not finite"),
    )
}

/// Admission-time validation of an ingest frame: every update needs an
/// item inside the universe and a finite delta. Checked before anything
/// is buffered, so a bad frame can neither panic a later flush nor
/// poison the tenant's counters with `inf`/`NaN`. The error names the
/// first bad update's index.
fn check_updates(tenant: u64, updates: &[(u64, f64)], universe: u64) -> Result<(), ErrorReply> {
    let bad = |&(item, delta): &(u64, f64)| item >= universe || !delta.is_finite();
    let Some(at) = updates.iter().position(bad) else {
        return Ok(());
    };
    let (item, delta) = updates[at];
    let why = if item >= universe {
        format!("item {item} is outside the universe [0, {universe})")
    } else {
        format!("delta {delta} is not finite")
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
