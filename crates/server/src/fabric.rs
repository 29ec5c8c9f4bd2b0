//! The multi-tenant serving fabric: shards of per-tenant engines,
//! placed by the rendezvous ring, fed and queried through the wire
//! protocol's request/response frames, with admission control and
//! live rebalance.
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
//! **Rebalance by linearity.** Moving a tenant ships its counter
//! planes — never its hashers — through the real wire format
//! (encode, frame, deframe, decode, with the byte volume
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
/// There is no frame cap here. A rebalance moves a tenant between
/// shards of one process, so its transfer frame has no peer to guard
/// against: it is read back at the limit of its `u32` length prefix,
/// as the journal is. A peer's frames stay under the daemon's cap
/// ([`DaemonConfig::max_frame_bytes`](crate::DaemonConfig::max_frame_bytes)).
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

/// One tenant's fabric-side state: hosting shard, spec, quota
/// bookkeeping, engine.
#[derive(Debug)]
struct Tenant {
    shard: u64,
    spec: TenantSpec,
    admitted_in_interval: u64,
    slot: EngineSlot,
}

impl Tenant {
    /// Ships this tenant's engine through the real wire format —
    /// export, frame, meter the bytes, deframe, install — and swaps the
    /// installed engine in only once the install succeeds. Returns the
    /// framed byte count. The frame never leaves the process, so only
    /// its `u32` length prefix bounds it: a ship fails only on a
    /// transfer past 4 GiB.
    fn ship(&mut self, config: &FabricConfig, meter: &mut CommMeter) -> Result<u64, ErrorReply> {
        let tenant = self.spec.tenant;
        let transfer = self.export(config);
        let mut buf = Vec::new();
        let bytes = wire::write_frame(&mut buf, &transfer)
            .map_err(|e| ErrorReply::new("protocol", format!("tenant {tenant} export: {e}")))?;
        let words = (bytes as u64).div_ceil(8);
        meter.record_upload(words);
        let shipped: TenantTransfer = wire::read_frame(&mut &buf[..], u32::MAX as usize)
            .map_err(|e| ErrorReply::new("protocol", format!("tenant {tenant} transfer: {e}")))?
            .ok_or_else(|| ErrorReply::new("protocol", "empty transfer stream"))?;
        meter.record_download(words);
        self.slot = EngineSlot::install(&shipped, config.params)?;
        self.spec = shipped.spec;
        Ok(bytes as u64)
    }

    /// Flushes the tenant and exports it whole: planes, stream position
    /// and the interval's quota count.
    fn export(&mut self, config: &FabricConfig) -> TenantTransfer {
        let params = config.params.with_seed(self.spec.seed);
        self.slot
            .export(self.spec, params, self.admitted_in_interval)
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
    /// Tenants shipped to a new shard, in tenant-id order.
    pub moved: Vec<TenantMove>,
    /// Wire bytes shipped (each transfer is framed once and counted
    /// once; the meter records the same volume as upload + download).
    pub bytes_shipped: u64,
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
    /// Every tenant with its hosting shard (`BTreeMap` for
    /// deterministic rebalance order).
    tenants: RwLock<BTreeMap<u64, TenantLock>>,
    meter: CommMeter,
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
        read(&self.tenants).len()
    }

    /// The shard currently hosting a tenant.
    pub fn shard_of(&self, tenant: u64) -> Option<u64> {
        self.tenant(tenant).ok().map(|t| read(&t).shard)
    }

    /// Tenant ids hosted on a shard, in id order.
    pub fn tenants_on(&self, shard: u64) -> Vec<u64> {
        let tenants = self.tenants();
        let hosted = tenants.iter().filter(|(_, t)| read(t).shard == shard);
        hosted.map(|&(id, _)| id).collect()
    }

    // ---- shard membership ----

    /// Adds a shard with the given capacity weight and rebalances:
    /// every tenant whose ring placement changed is shipped to the new
    /// shard through the wire format.
    ///
    /// # Errors
    /// `tenant_exists`-style `ErrorReply` with code `protocol` if the
    /// shard id is already present or the weight is invalid, or if a
    /// tenant's ship fails; that undoes the whole call, so on `Ok` or
    /// `Err` every tenant sits where [`ring`](Self::ring) places it.
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
        self.rebalance_to_ring(before)
    }

    /// Removes a shard and rebalances its tenants onto the survivors.
    ///
    /// # Errors
    /// `unsupported` if the shard hosts any tenant and no other shard
    /// remains; `protocol` if a tenant's ship fails, which undoes the
    /// whole call as [`add_shard`](Self::add_shard)'s does.
    pub fn remove_shard(&mut self, id: u64) -> Result<RebalanceReport, ErrorReply> {
        if !self.ring.contains(id) {
            return Err(ErrorReply::new(
                "protocol",
                format!("shard {id} is not in the ring"),
            ));
        }
        let hosted = self.tenants_on(id).len();
        if hosted > 0 && self.ring.len() == 1 {
            return Err(ErrorReply::new(
                "unsupported",
                format!("cannot remove the last shard while {hosted} tenants remain"),
            ));
        }
        let before = self.ring.clone();
        self.ring.remove_shard(id);
        self.rebalance_to_ring(before)
    }

    /// Ships every tenant whose current shard disagrees with the ring
    /// to where the ring says it belongs, in tenant-id order. If one
    /// fails, the ring goes back to `before` and every tenant moved so
    /// far back to the shard it left: its installed engine answers bit
    /// for bit like the one it replaced, so relabelling it undoes the
    /// move.
    fn rebalance_to_ring(&mut self, before: PlacementRing) -> Result<RebalanceReport, ErrorReply> {
        let mut report = RebalanceReport::default();
        let tenants = self
            .tenants
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let mut ship_all = || {
            for (&tenant, t) in tenants.iter() {
                let to = self
                    .ring
                    .place(tenant)
                    .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
                let mut t = write(t);
                if to == t.shard {
                    continue;
                }
                report.bytes_shipped += t.ship(&self.config, &mut self.meter)?;
                report.moved.push(TenantMove {
                    tenant,
                    from: t.shard,
                    to,
                });
                t.shard = to;
            }
            Ok(())
        };
        if let Err(e) = ship_all() {
            self.ring = before;
            for m in &report.moved {
                write(&tenants[&m.tenant]).shard = m.from;
            }
            return Err(e);
        }
        Ok(report)
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
        let shard = self
            .ring
            .place(spec.tenant)
            .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
        let slot = EngineSlot::build(&spec, self.config.params.clone())?;
        let t = Tenant {
            shard,
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
        let shard = self
            .ring
            .place(tenant)
            .ok_or_else(|| ErrorReply::new("protocol", "the ring has no shards"))?;
        let slot = EngineSlot::install(transfer, self.config.params.clone())?;
        let t = Tenant {
            shard,
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
            let mut t = write(&t);
            if let Ok(interval) = t.slot.advance_interval(tenant) {
                t.admitted_in_interval = 0;
                sealed.push((tenant, interval));
            }
        }
        sealed
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
            Request::Stats(TenantRef { tenant }) => {
                self.with_tenant(tenant, |t| match t.slot.mass() {
                    mass if !mass.is_finite() => {
                        Response::Error(non_finite(tenant, format_args!("mass"), mass))
                    }
                    mass => Response::Stats(StatsReply {
                        tenant,
                        shard: t.shard,
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
