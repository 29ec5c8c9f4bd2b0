//! The in-process replay: the same seeded frames and queries, one rung
//! at a time, from the benchmark's own code — the Dense kernel, the
//! Atomic served store, the engine, the fabric, the wire codec, the
//! epoch pins and the journal. A rung's self time is its time minus
//! the rung below it on the same batches.

use crate::report::{metric, Metric};
use crate::stats::{mean, quantile};
use crate::workload::{frames, template, tenant_seed, Frame, Inputs, Op, Workload, PHI};
use bas_hash::SeedSchedule;
use bas_serve::{QueryEngine, RotatingEngine, Sliding, Unbounded};
use bas_server::wire::TenantRef;
use bas_server::{
    read_frame, write_frame, Fabric, FabricConfig, IngestFrame, Journal, JournalRecord, Request,
    Response, TenantSpec, MAX_FRAME_BYTES,
};
use bas_sketch::{
    Atomic, AtomicCountMedian, CountMedian, PointQuerySketch, RangeSumSketch, SharedSketch,
    Snapshottable,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// The tenant every ladder rung ingests (also registered on the daemon
/// for the socket rung).
pub const LADDER_TENANT: u64 = 1_000;
const LADDER_FRAMES: usize = 64;
const LADDER_PASSES: usize = 8;
/// A `Flush` after this many ladder frames, as in ingest-firehose.
pub const LADDER_FLUSH_EVERY: usize = 4;
const RANGE_FRAMES: usize = 16;
const QUERY_REPLAY: usize = 20_000;
const PIN_SAMPLES: usize = 1_000;

/// The queue bound every tenant spec carries, which `EngineSlot::build`
/// pins the engine's flush threshold to.
fn queue_capacity() -> usize {
    TenantSpec::frequency(0, 0).queue_capacity as usize
}

/// The ladder tenant's spec and frames (Zipf, as in ingest-firehose).
pub fn ladder_tenant(seed: u64) -> (TenantSpec, Vec<Frame>) {
    (
        TenantSpec::frequency(LADDER_TENANT, tenant_seed(seed, LADDER_TENANT)),
        frames(seed, LADDER_TENANT, LADDER_FRAMES),
    )
}

/// The ladder's ops: every frame `LADDER_PASSES` times, with a flush
/// every `LADDER_FLUSH_EVERY` frames.
pub fn ladder_ops() -> Vec<Op> {
    let mut ops = Vec::new();
    for k in 0..LADDER_PASSES * LADDER_FRAMES {
        ops.push(Op::Ingest {
            tenant: LADDER_TENANT,
            frame: k % LADDER_FRAMES,
        });
        if (k + 1) % LADDER_FLUSH_EVERY == 0 {
            ops.push(Op::Flush(LADDER_TENANT));
        }
    }
    ops
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = f();
    (out, ns(t.elapsed()))
}

fn per_s(count: f64, total_ns: u64) -> f64 {
    count * 1e9 / total_ns.max(1) as f64
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Ingest rungs on the ladder frames. Returns the metrics and the
/// fabric rung's items/s (the daemon rung's base).
fn ingest_rungs(seed: u64, out: &mut Vec<Metric>) -> Result<f64, String> {
    let (spec, pool) = ladder_tenant(seed);
    let params = template().with_seed(spec.seed);
    let batches: Vec<&Frame> = (0..LADDER_PASSES * LADDER_FRAMES)
        .map(|k| &pool[k % LADDER_FRAMES])
        .collect();
    let updates = (batches.len() * pool[0].len()) as f64;

    // Kernel: the Dense one-hash `update_batch`, single-threaded.
    let mut kernel = CountMedian::new(&params);
    let kernel_ns: Vec<u64> = batches
        .iter()
        .map(|b| timed(|| kernel.update_batch(b)).1)
        .collect();
    black_box(&kernel);
    let kernel_rate = per_s(updates, kernel_ns.iter().sum());

    // Served store: the Atomic grid's shared batch kernel.
    let store = AtomicCountMedian::with_backend(&params);
    let store_ns: Vec<u64> = batches
        .iter()
        .map(|b| timed(|| store.update_batch_shared(b)).1)
        .collect();
    black_box(&store);
    let store_rate = per_s(updates, store_ns.iter().sum());

    let range = RangeSumSketch::<Atomic>::with_backend(&params);
    let range_ns: u64 = pool[..RANGE_FRAMES]
        .iter()
        .map(|b| timed(|| range.update_batch_shared(b)).1)
        .sum();
    black_box(&range);
    let range_rate = per_s((RANGE_FRAMES * pool[0].len()) as f64, range_ns);

    // Engine: a standalone `QueryEngine` built as `EngineSlot::build`
    // builds it (one worker, flush threshold = queue capacity).
    let mut engine =
        QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), Unbounded)
            .with_flush_threshold(queue_capacity());
    let (mut extend_ns, mut engine_flush) = (0u64, Vec::new());
    for (k, b) in batches.iter().enumerate() {
        extend_ns += timed(|| engine.extend_from_slice(b)).1;
        if (k + 1) % LADDER_FLUSH_EVERY == 0 {
            engine_flush.push(timed(|| engine.flush()).1);
        }
    }
    let engine_ns = extend_ns + engine_flush.iter().sum::<u64>();
    let engine_rate = per_s(updates, engine_ns);
    if engine.applied() != updates as u64 {
        return Err(format!(
            "engine rung applied {} of {updates}",
            engine.applied()
        ));
    }

    // Fabric: `Fabric::handle` on a fabric configured like the daemon.
    let mut fabric = Fabric::new(FabricConfig::new(template()));
    fabric.add_shard(0, 1.0).map_err(|e| e.detail)?;
    fabric.register_tenant(spec).map_err(|e| e.detail)?;
    let mut counts = [0u64; 4]; // admitted, busy, shed, errors
    let mut tally = |resp: &Response| match resp {
        Response::Admitted(_) => counts[0] += 1,
        Response::Busy(_) => counts[1] += 1,
        Response::Shed(_) => counts[2] += 1,
        Response::Error(_) => counts[3] += 1,
        _ => {}
    };
    let (mut fabric_ingest_ns, mut fabric_flush) = (0u64, Vec::new());
    let (mut encode_ns, mut decode_ns, mut bytes) = (0u64, 0u64, 0usize);
    let mut buf = Vec::new();
    for (k, b) in batches.iter().enumerate() {
        let req = Request::Ingest(IngestFrame {
            tenant: spec.tenant,
            updates: b.to_vec(),
        });
        // Wire: one frame out and back in, both directions timed.
        buf.clear();
        let (written, e) = timed(|| write_frame(&mut buf, &req));
        written.map_err(|e| e.to_string())?;
        let (back, d) = timed(|| read_frame::<_, Request>(&mut &buf[..], MAX_FRAME_BYTES));
        if back.map_err(|e| e.to_string())?.as_ref() != Some(&req) {
            return Err("wire rung: an ingest frame did not round-trip".into());
        }
        encode_ns += e;
        decode_ns += d;
        bytes += buf.len();

        let (resp, t) = timed(|| fabric.handle(req));
        fabric_ingest_ns += t;
        tally(&resp);
        if (k + 1) % LADDER_FLUSH_EVERY == 0 {
            let (resp, t) = timed(|| {
                fabric.handle(Request::Flush(TenantRef {
                    tenant: spec.tenant,
                }))
            });
            fabric_flush.push(t);
            tally(&resp);
        }
    }
    let fabric_ns = fabric_ingest_ns + fabric_flush.iter().sum::<u64>();
    let fabric_rate = per_s(updates, fabric_ns);
    let requests = (batches.len() + fabric_flush.len()) as f64;

    out.extend([
        metric("sketch.kernel_items_per_s", "items/s", kernel_rate),
        metric(
            "sketch.kernel_batch_p50_us",
            "us",
            us(quantile(&kernel_ns, 0.5)),
        ),
        metric(
            "sketch.kernel_batch_p99_us",
            "us",
            us(quantile(&kernel_ns, 0.99)),
        ),
        metric("sketch.store_items_per_s", "items/s", store_rate),
        metric(
            "sketch.store_batch_p50_us",
            "us",
            us(quantile(&store_ns, 0.5)),
        ),
        metric(
            "sketch.store_batch_p99_us",
            "us",
            us(quantile(&store_ns, 0.99)),
        ),
        metric("sketch.range_store_items_per_s", "items/s", range_rate),
        metric(
            "serve.extend_ns_per_update",
            "ns",
            extend_ns as f64 / updates,
        ),
        metric(
            "serve.flush_items_per_s",
            "items/s",
            per_s(updates, engine_flush.iter().sum()),
        ),
        metric(
            "serve.flush_p99_ms",
            "ms",
            ms(quantile(&engine_flush, 0.99)),
        ),
        metric(
            "fabric.ingest_ns_per_update",
            "ns",
            fabric_ingest_ns as f64 / updates,
        ),
        metric(
            "fabric.flush_p99_ms",
            "ms",
            ms(quantile(&fabric_flush, 0.99)),
        ),
        metric(
            "fabric.dispatch_ns",
            "ns",
            (fabric_ns as f64 - engine_ns as f64) / requests,
        ),
        metric("fabric.admitted", "count", counts[0] as f64),
        metric("fabric.busy", "count", counts[1] as f64),
        metric("fabric.shed", "count", counts[2] as f64),
        metric("fabric.errors", "count", counts[3] as f64),
        metric(
            "wire.ingest_encode_ns_per_update",
            "ns",
            encode_ns as f64 / updates,
        ),
        metric(
            "wire.ingest_decode_ns_per_update",
            "ns",
            decode_ns as f64 / updates,
        ),
        metric("wire.ingest_bytes_per_update", "B", bytes as f64 / updates),
        metric(
            "ladder.store_over_kernel",
            "ratio",
            store_rate / kernel_rate,
        ),
        metric(
            "ladder.engine_over_store",
            "ratio",
            engine_rate / store_rate,
        ),
        metric(
            "ladder.fabric_over_engine",
            "ratio",
            fabric_rate / engine_rate,
        ),
    ]);
    Ok(fabric_rate)
}

fn p50_us(samples: &[u64]) -> f64 {
    us(quantile(samples, 0.5))
}

/// Read-side rungs: query-mix's tenants rebuilt in process, then its
/// first connection's queries replayed through the fabric and the codec.
fn query_rungs(seed: u64, out: &mut Vec<Metric>) -> Result<(), String> {
    let inputs = Inputs::generate(Workload::QueryMix, seed);
    let sliding = &inputs.specs[0];
    let params = template().with_seed(sliding.seed);
    let pool = &inputs.pools[&sliding.tenant];
    let items = &inputs.probe_items;

    // A sliding engine preloaded as query-mix preloads its tenants.
    let policy = Sliding::new(crate::workload::WINDOW as usize).map_err(|e| e.to_string())?;
    let mut engine = QueryEngine::with_policy(1, AtomicCountMedian::with_backend(&params), policy)
        .with_flush_threshold(queue_capacity());
    let mut advance = Vec::new();
    for frame in pool {
        engine.extend_from_slice(frame);
        advance.push(timed(|| engine.advance_interval()).1);
    }
    let live_ns = timed(|| {
        for _ in 0..100 {
            for &item in items {
                black_box(engine.estimate_live(item));
            }
        }
    })
    .1;
    let window_point: Vec<u64> = (0..PIN_SAMPLES)
        .map(|k| timed(|| black_box(engine.point_in_window(items[k % items.len()]))).1)
        .collect();
    let pins: Vec<u64> = (0..PIN_SAMPLES)
        .map(|_| timed(|| black_box(engine.pin())).1)
        .collect();
    let seal = engine
        .bank()
        .planes()
        .next()
        .ok_or("sliding engine sealed no plane")?
        .plane()
        .clone();
    let mut plane = engine.pin().into_snapshot();
    let subtract: Vec<u64> = (0..PIN_SAMPLES)
        .map(|_| timed(|| engine.sketch().subtract_snapshot(&mut plane, &seal)).1)
        .collect();
    let scans: Vec<u64> = (0..5)
        .map(|_| timed(|| black_box(engine.try_heavy_hitters(PHI))).1)
        .collect();

    // A range-sum tenant preloaded as query-mix preloads its tenants.
    let range_spec = inputs
        .specs
        .iter()
        .find(|s| s.metric == bas_server::MetricKind::RangeSum)
        .ok_or("query-mix has no range-sum tenant")?;
    let mut range = QueryEngine::with_policy(
        1,
        RangeSumSketch::<Atomic>::with_backend(&template().with_seed(range_spec.seed)),
        Unbounded,
    )
    .with_flush_threshold(queue_capacity());
    for frame in &inputs.pools[&range_spec.tenant] {
        range.extend_from_slice(frame);
    }
    range.flush();
    let range_sums: Vec<u64> = (0..PIN_SAMPLES / 5)
        .map(|k| {
            let (lo, hi) = inputs.probe_ranges[k % inputs.probe_ranges.len()];
            timed(|| black_box(range.range_sum(lo, hi))).1
        })
        .collect();
    let range_pins: Vec<u64> = (0..PIN_SAMPLES / 5)
        .map(|_| timed(|| black_box(range.pin())).1)
        .collect();

    // A rotating engine over as many intervals as the window holds.
    let mut rotating = RotatingEngine::new(
        1,
        AtomicCountMedian::with_backend(&params),
        SeedSchedule::new(sliding.seed),
        crate::workload::WINDOW as usize,
    )
    .map_err(|e| e.to_string())?
    .with_flush_threshold(queue_capacity());
    for frame in pool {
        rotating.extend_from_slice(frame);
        rotating.advance_interval();
    }
    let rotating_ns: Vec<u64> = (0..PIN_SAMPLES)
        .map(|k| timed(|| black_box(rotating.audited_window_estimate(items[k % items.len()]))).1)
        .collect();

    // The fabric and codec rungs on query-mix's own requests.
    let mut fabric = Fabric::new(FabricConfig::new(template()));
    fabric.add_shard(0, 1.0).map_err(|e| e.detail)?;
    for spec in &inputs.specs {
        fabric.register_tenant(*spec).map_err(|e| e.detail)?;
    }
    for op in &inputs.preload {
        let req = match op {
            &Op::Ingest { tenant, frame } => Request::Ingest(IngestFrame {
                tenant,
                updates: inputs.pools[&tenant][frame].clone(),
            }),
            &Op::Flush(tenant) => Request::Flush(TenantRef { tenant }),
            &Op::Advance(tenant) => Request::AdvanceInterval(TenantRef { tenant }),
            Op::Query(req) => req.clone(),
        };
        if let Response::Error(e) = fabric.handle(req) {
            return Err(format!("fabric preload: {}", e.detail));
        }
    }
    let queries = &inputs.plans[0];
    let (mut point, mut pinned, mut scan) = (Vec::new(), Vec::new(), Vec::new());
    let (mut codec, mut scan_bytes) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for op in queries.iter().take(QUERY_REPLAY) {
        let Op::Query(req) = op else { continue };
        let kind = crate::drive::Kind::of(op);
        let (resp, t) = timed(|| fabric.handle(req.clone()));
        match kind {
            crate::drive::Kind::Point => {
                point.push(t);
                // Both directions of the codec: request and answer.
                let c = timed(|| {
                    buf.clear();
                    write_frame(&mut buf, req).map_err(|e| e.to_string())?;
                    read_frame::<_, Request>(&mut &buf[..], MAX_FRAME_BYTES)
                        .map_err(|e| e.to_string())?;
                    buf.clear();
                    write_frame(&mut buf, &resp).map_err(|e| e.to_string())?;
                    read_frame::<_, Response>(&mut &buf[..], MAX_FRAME_BYTES)
                        .map_err(|e| e.to_string())
                });
                c.0?;
                codec.push(c.1);
            }
            crate::drive::Kind::Scan => {
                scan.push(t);
                buf.clear();
                scan_bytes.push(write_frame(&mut buf, &resp).map_err(|e| e.to_string())? as u64);
            }
            k if k.pinned() => pinned.push(t),
            _ => {}
        }
        if let Response::Error(e) = resp {
            return Err(format!("fabric query replay: {}", e.detail));
        }
    }

    out.extend([
        metric("sketch.subtract_us", "us", p50_us(&subtract)),
        metric("pipeline.pin_us", "us", p50_us(&pins)),
        metric("pipeline.range_pin_us", "us", p50_us(&range_pins)),
        metric("serve.advance_p99_ms", "ms", ms(quantile(&advance, 0.99))),
        metric(
            "serve.estimate_live_ns",
            "ns",
            live_ns as f64 / (100 * items.len()) as f64,
        ),
        metric("serve.point_in_window_us", "us", p50_us(&window_point)),
        metric("serve.range_sum_us", "us", p50_us(&range_sums)),
        metric("serve.heavy_hitters_ms", "ms", ms(quantile(&scans, 0.5))),
        metric("serve.rotating_estimate_us", "us", p50_us(&rotating_ns)),
        metric("fabric.point_ns", "ns", mean(&point)),
        metric("fabric.pinned_us", "us", p50_us(&pinned)),
        metric("fabric.scan_ms", "ms", ms(quantile(&scan, 0.5))),
        metric("wire.point_codec_ns", "ns", mean(&codec)),
        metric("wire.scan_reply_bytes", "B", mean(&scan_bytes)),
    ]);
    Ok(())
}

/// Journal rungs on a temp path: appends, then one compaction of a
/// fabric holding a sealed sliding tenant and an unbounded one.
fn persist_rungs(seed: u64, work_dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    let path = work_dir.join("replay.journal");
    let _ = std::fs::remove_file(&path);
    let mut journal = Journal::open(&path).map_err(|e| e.to_string())?;
    let inputs = Inputs::generate(Workload::QueryMix, seed);
    let sliding = inputs.specs[0];
    let (ladder, pool) = ladder_tenant(seed);
    let mut appends = Vec::new();
    for k in 0..200u64 {
        let record = if k % 2 == 0 {
            JournalRecord::TenantRegistered(sliding)
        } else {
            JournalRecord::IntervalAdvanced(TenantRef {
                tenant: sliding.tenant,
            })
        };
        let (r, t) = timed(|| journal.append(&record));
        r.map_err(|e| e.to_string())?;
        appends.push(t);
    }

    let mut fabric = Fabric::new(FabricConfig::new(template()));
    fabric.add_shard(0, 1.0).map_err(|e| e.detail)?;
    fabric.register_tenant(sliding).map_err(|e| e.detail)?;
    fabric.register_tenant(ladder).map_err(|e| e.detail)?;
    for (k, frame) in inputs.pools[&sliding.tenant].iter().enumerate() {
        for (tenant, updates) in [(sliding.tenant, frame), (ladder.tenant, &pool[k])] {
            fabric.handle(Request::Ingest(IngestFrame {
                tenant,
                updates: updates.clone(),
            }));
        }
        fabric.handle(Request::AdvanceInterval(TenantRef {
            tenant: sliding.tenant,
        }));
    }
    let (r, compact) = timed(|| journal.compact(&mut fabric));
    r.map_err(|e| e.to_string())?;
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let _ = std::fs::remove_file(&path);

    out.extend([
        metric("persist.append_us", "us", p50_us(&appends)),
        metric("persist.compact_ms", "ms", ms(compact as f64)),
        metric("persist.checkpoint_bytes", "B", bytes as f64),
    ]);
    Ok(())
}

/// Runs every in-process rung. Returns the metrics and the fabric
/// rung's ingest items/s.
pub fn replay(seed: u64, work_dir: &Path) -> Result<(Vec<Metric>, f64), String> {
    let mut out = Vec::new();
    let fabric_rate = ingest_rungs(seed, &mut out)?;
    query_rungs(seed, &mut out)?;
    persist_rungs(seed, work_dir, &mut out)?;
    Ok((out, fabric_rate))
}
