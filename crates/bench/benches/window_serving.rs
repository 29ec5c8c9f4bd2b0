//! **Windowed serving throughput** — what the time-scoped query plane
//! costs next to the since-boot one.
//!
//! The scenario is the windowed telemetry shape: one Count-Median
//! `QueryEngine` under `Sliding(K)`, fed a timestamped Zipf stream
//! (`bas_data::TimestampedStreamGen`, the same generator the window
//! conformance suite uses) through `bas_stream::drive_timestamped`,
//! whose interval boundaries drive `advance_interval()`. Three
//! measurements:
//!
//! * **ingest + rotation** — items/sec for the full windowed write
//!   path (chunked driving, concurrent flushes, one seal per
//!   interval), next to the identical stream pushed into an unbounded
//!   engine: the difference is the whole cost of rotation;
//! * **window point queries** — queries/sec against a pinned
//!   [`WindowSnapshot`] with periodic allocation-free
//!   `refresh_window`, next to unbounded snapshot queries at the same
//!   cadence: the marginal cost of the per-refresh plane subtraction;
//! * **estimate-space window serving** — the same stream through a
//!   seed-rotating [`RotatingEngine`] (one hasher config per
//!   interval): ingest + rotation items/sec, and `window_estimate`
//!   queries/sec, where each answer sums one estimate per window
//!   generation instead of reading one merged counter plane. The gap
//!   to the counter-space numbers is the measured price of
//!   adaptive-adversary robustness;
//! * **window heavy-hitter scans** — full-universe sweeps over the
//!   window plane (full mode only; scans/sec);
//! * **batched hot-path kernels** — the same update stream pushed
//!   single-threaded through `update_batch` on Dense sketches built
//!   over `HashKind::OneHash`: one `mix64` digest per item derives
//!   all bucket indices (and Count-Sketch signs), and the counter
//!   writes sweep row-major in blocks (`CounterMatrix::apply_rows`).
//!   One row per sketch (`ingest/kernel-batch/<sketch>`) plus a
//!   scalar one-by-one row under the same hash kind; compare with
//!   `ingest/unbounded` for the kernel-vs-engine picture;
//! * **multi-tenant fabric serving** — the same stream fanned across
//!   a `bas_server::Fabric` at 4 / 16 / 64 tenants (each tenant its
//!   own seed, four shards): ingest items/sec through admission
//!   control and point queries/sec through request dispatch. The gap
//!   to the single-engine numbers is the fabric's per-request tax;
//! * **socket-path serving** — the same fabric behind the
//!   `bas_server::Daemon` on a loopback TCP socket, driven through the
//!   reconnecting `Client`: ingest items/sec in framed batches and
//!   point queries/sec with one round trip per query. The gap to the
//!   in-process fabric rows is the whole wire tax (serde framing +
//!   syscalls + loopback latency), with a bit-for-bit gate comparing
//!   socket answers against in-process dispatch on the same daemon.
//!
//! Throughput numbers are *reported*; the **exactness gates are
//! asserted** in every mode: after the stream drains, the pinned
//! window must equal a single-threaded sketch of exactly the last
//! `K` intervals' updates, bit for bit (integer deltas), and the
//! rotating engine's window answers must equal the sum of
//! single-threaded per-generation references built under the
//! schedule's seeds. That is what CI's smoke mode (`--test`) runs.
//!
//! Knobs: `BAS_SCALE` scales the stream; `--test` (CI smoke) shrinks
//! everything to run in seconds.

use bas_bench::report::BenchReport;
use bas_data::TimestampedStreamGen;
use bas_hash::{HashKind, SeedSchedule};
use bas_serve::{QueryEngine, RotatingEngine, Sliding, WindowSnapshot};
use bas_server::wire::{IngestFrame, PointQuery, TenantRef};
use bas_server::{
    Client, Daemon, DaemonConfig, Fabric, FabricConfig, IngestBatcher, Request, Response,
    RetryPolicy, TenantSpec, MAX_FRAME_BYTES,
};
use bas_sketch::{
    AtomicCountMedian, CountMedian, CountMin, CountSketch, PointQuerySketch, SketchParams,
    UpdatePolicy,
};
use bas_stream::drive_timestamped;
use std::hint::black_box;
use std::time::Instant;

const WIDTH: usize = 4_096;
const DEPTH: usize = 9;
const WINDOW: usize = 8; // sliding window length in intervals
const CHUNK: usize = 8_192;
const REFRESH_EVERY: usize = 1_024;
/// Client-side ingest frame size for the socket rows: the
/// `IngestBatcher` coalesces the arrival stream into frames this big,
/// so the wire round-trip tax amortizes over `MAX_BATCH` updates.
const MAX_BATCH: usize = 65_536;

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = std::env::var("BAS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    let n = 100_000u64;
    let intervals = 24u64; // 3 windows' worth of rotation
    let per_interval = if smoke {
        8_000
    } else {
        (80_000f64 * scale) as usize
    };
    let queries = if smoke {
        40_000
    } else {
        (400_000f64 * scale) as usize
    };

    println!("================ windowed serving throughput ================");
    println!(
        "universe {n}, width {WIDTH}, depth {DEPTH}; sliding({WINDOW}) over {intervals} \
         intervals x {per_interval} updates; {queries} point queries{}",
        if smoke { " [smoke]" } else { "" }
    );

    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(7);
    let gen = TimestampedStreamGen::zipf(n, intervals, per_interval, 1.1)
        .with_seed(11)
        .with_max_delta(4);
    let stream = gen.generate();
    let total_updates = stream.len() as f64;
    let mut report = BenchReport::new("window_serving", smoke);

    // ---- ingest + rotation vs unbounded ingest ----
    let policy = Sliding::new(WINDOW).expect("non-zero window");
    // RefCell because the sink and the boundary callback both drive the
    // same engine (one buffers, one rotates) — single-threaded, so the
    // dynamic borrows never overlap.
    let engine = std::cell::RefCell::new(QueryEngine::with_policy(
        1,
        AtomicCountMedian::with_backend(&params),
        policy,
    ));
    let t = Instant::now();
    drive_timestamped(
        stream.iter().copied(),
        CHUNK,
        |chunk| engine.borrow_mut().extend_from_slice(chunk),
        |_| {
            engine.borrow_mut().advance_interval();
        },
    );
    let mut engine = engine.into_inner();
    engine.flush();
    let windowed_secs = t.elapsed().as_secs_f64();

    let mut unbounded = QueryEngine::new(AtomicCountMedian::with_backend(&params));
    let t = Instant::now();
    drive_timestamped(
        stream.iter().copied(),
        CHUNK,
        |chunk| unbounded.extend_from_slice(chunk),
        |_| {}, // same boundaries, no rotation
    );
    unbounded.flush();
    let unbounded_secs = t.elapsed().as_secs_f64();

    println!(
        "  ingest: windowed {:.2} M items/s vs unbounded {:.2} M items/s \
         (rotation overhead {:.1}%)",
        total_updates / windowed_secs / 1e6,
        total_updates / unbounded_secs / 1e6,
        (windowed_secs / unbounded_secs - 1.0) * 100.0
    );
    report.record(
        "ingest/windowed",
        "items_per_sec",
        total_updates / windowed_secs,
    );
    report.record(
        "ingest/unbounded",
        "items_per_sec",
        total_updates / unbounded_secs,
    );

    // ---- batched hot-path kernels: one-hash rows + row-major sweep ----
    // The same update stream, single-threaded, through `update_batch`
    // on Dense sketches built over `HashKind::OneHash`: one mix64
    // digest per item yields all DEPTH bucket indices (and the
    // Count-Sketch signs), and the counter writes sweep row-major in
    // 256-item blocks (`CounterMatrix::apply_rows`). The scalar row
    // feeds the identical sketch configuration one update at a time —
    // the gap is the kernel's whole win — and doubles as the
    // exactness gate: kernel and scalar estimates must match bit for
    // bit at every probed point.
    {
        let updates: Vec<(u64, f64)> = stream.iter().map(|u| (u.item, u.delta)).collect();
        let kernel_params = params.with_hash_kind(HashKind::OneHash);
        let mut kernel_bench = |label: &str, build: &dyn Fn() -> Box<dyn PointQuerySketch>| {
            let mut batched = build();
            let t = Instant::now();
            for chunk in updates.chunks(CHUNK) {
                batched.update_batch(chunk);
            }
            let kernel_rate = total_updates / t.elapsed().as_secs_f64();

            let mut scalar = build();
            let t = Instant::now();
            for &(item, delta) in &updates {
                scalar.update(item, delta);
            }
            let scalar_rate = total_updates / t.elapsed().as_secs_f64();

            for j in (0..n).step_by(997) {
                assert_eq!(
                    batched.estimate(j),
                    scalar.estimate(j),
                    "kernel exactness gate failed for {label} at item {j}"
                );
            }
            println!(
                "  kernel ingest [{label}]: batched {:.2} M items/s vs scalar {:.2} M items/s \
                 ({:.2}x)",
                kernel_rate / 1e6,
                scalar_rate / 1e6,
                kernel_rate / scalar_rate
            );
            report.record(
                &format!("ingest/kernel-batch/{label}"),
                "items_per_sec",
                kernel_rate,
            );
            report.record(
                &format!("ingest/scalar-loop/{label}"),
                "items_per_sec",
                scalar_rate,
            );
        };
        kernel_bench("count-median", &|| {
            Box::new(CountMedian::new(&kernel_params))
        });
        kernel_bench("count-sketch", &|| {
            Box::new(CountSketch::new(&kernel_params))
        });
        kernel_bench("count-min", &|| {
            Box::new(CountMin::new(&kernel_params, UpdatePolicy::Plain))
        });
    }

    // ---- exactness gate: window == reference over the last K-1 closed
    // intervals + the in-progress one (Sliding(K) covers intervals
    // current-K+1 ..= current; the final interval `intervals - 1` is
    // still in progress because drive_timestamped never closes it). ----
    let window = engine.pin_window();
    let current = engine.interval();
    assert_eq!(current, intervals - 1, "final interval stays open");
    assert_eq!(window.start_interval(), current - (WINDOW as u64 - 1));
    let mut reference = CountMedian::new(&params);
    let window_updates: Vec<(u64, f64)> = stream
        [(window.start_interval() as usize * per_interval)..]
        .iter()
        .map(|u| (u.item, u.delta))
        .collect();
    reference.update_batch(&window_updates);
    assert_eq!(window.applied(), window_updates.len() as u64);
    for j in (0..n).step_by(9_973) {
        assert_eq!(
            window.estimate(j),
            reference.estimate(j),
            "window exactness gate failed at item {j}"
        );
    }

    // ---- window point queries vs unbounded snapshot queries ----
    let run_queries = |mut estimate: Box<dyn FnMut(usize, u64) -> f64>| -> f64 {
        let t = Instant::now();
        let mut item = 0xBEEFu64;
        let mut acc = 0.0;
        for q in 0..queries {
            item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
            acc += estimate(q, item % n);
        }
        black_box(acc);
        queries as f64 / t.elapsed().as_secs_f64()
    };

    let mut win: WindowSnapshot<AtomicCountMedian> = engine.pin_window();
    let engine_ref = &engine;
    let window_qps = run_queries(Box::new(move |q, item| {
        if q % REFRESH_EVERY == 0 {
            engine_ref.refresh_window(&mut win);
        }
        win.estimate(item)
    }));
    let mut snap = unbounded.pin();
    let snapshot_qps = run_queries(Box::new(move |q, item| {
        if q % REFRESH_EVERY == 0 {
            snap.refresh(); // same cadence, allocation-free re-pin
        }
        snap.estimate(item)
    }));
    println!(
        "  point queries: windowed {:.2} M qps vs unbounded snapshot {:.2} M qps \
         (refresh every {REFRESH_EVERY})",
        window_qps / 1e6,
        snapshot_qps / 1e6
    );
    report.record("queries/window", "queries_per_sec", window_qps);
    report.record(
        "queries/unbounded-snapshot",
        "queries_per_sec",
        snapshot_qps,
    );

    // ---- estimate-space window serving: the rotating engine ----
    // Same stream, same boundaries, but every interval runs under its
    // own hasher seed; window answers sum one estimate per generation.
    let schedule = SeedSchedule::new(7);
    let rotating = std::cell::RefCell::new(
        RotatingEngine::new(
            1,
            AtomicCountMedian::with_backend(&params),
            schedule,
            WINDOW,
        )
        .expect("non-zero window"),
    );
    let t = Instant::now();
    drive_timestamped(
        stream.iter().copied(),
        CHUNK,
        |chunk| rotating.borrow_mut().extend_from_slice(chunk),
        |_| {
            rotating.borrow_mut().advance_interval();
        },
    );
    let mut rotating = rotating.into_inner();
    rotating.flush();
    let rotating_secs = t.elapsed().as_secs_f64();
    println!(
        "  ingest: rotating {:.2} M items/s (vs windowed counter-space {:.2} M items/s)",
        total_updates / rotating_secs / 1e6,
        total_updates / windowed_secs / 1e6,
    );
    report.record(
        "ingest/rotating",
        "items_per_sec",
        total_updates / rotating_secs,
    );

    // Exactness gate: each window generation must equal a
    // single-threaded reference built under the schedule's seed for
    // that interval, so the engine's window answer is the sum of the
    // per-generation reference estimates (integer deltas → exact sums).
    assert_eq!(rotating.interval(), intervals - 1);
    let generation_reference = |g: u64| {
        let mut reference =
            CountMedian::new(&SketchParams::new(n, WIDTH, DEPTH).with_seed(schedule.seed_for(g)));
        let start = g as usize * per_interval;
        let end = stream.len().min(start + per_interval);
        let updates: Vec<(u64, f64)> = stream[start..end]
            .iter()
            .map(|u| (u.item, u.delta))
            .collect();
        reference.update_batch(&updates);
        reference
    };
    let window_start = intervals - WINDOW as u64;
    let references: Vec<CountMedian> = (window_start..intervals)
        .map(generation_reference)
        .collect();
    for j in (0..n).step_by(9_973) {
        let expected: f64 = references.iter().map(|r| r.estimate(j)).sum();
        assert_eq!(
            rotating.window_estimate(j),
            expected,
            "rotating window exactness gate failed at item {j}"
        );
    }

    let rotating_ref = &rotating;
    let estimate_space_qps =
        run_queries(Box::new(move |_q, item| rotating_ref.window_estimate(item)));
    println!(
        "  point queries: estimate-space window {:.2} M qps vs counter-space window {:.2} M qps \
         ({WINDOW} generations per answer)",
        estimate_space_qps / 1e6,
        window_qps / 1e6
    );
    report.record(
        "queries/window-estimate-space",
        "queries_per_sec",
        estimate_space_qps,
    );

    // ---- window heavy-hitter scans (full mode only) ----
    if !smoke {
        let scans = 3;
        let win = engine.pin_window();
        let t = Instant::now();
        let mut found = 0usize;
        for _ in 0..scans {
            found += win.heavy_hitters(1e-3).expect("valid phi").len();
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(found);
        println!(
            "  window heavy-hitter scans: {:.2} scans/s over the {n}-item universe",
            scans as f64 / secs
        );
        report.record(
            "heavy-hitter-scan/window",
            "scans_per_sec",
            scans as f64 / secs,
        );
    }

    // ---- multi-tenant fabric serving at 4 / 16 / 64 tenants ----
    // Each tenant gets its own seed (hash isolation); the stream is
    // fanned round-robin in CHUNK-sized ingest frames through the
    // fabric's admission path, then queried round-robin through
    // request dispatch.
    for &tenants in &[4u64, 16, 64] {
        let mut fabric = Fabric::new(FabricConfig::new(params.clone()));
        for shard in 0..4 {
            fabric.add_shard(shard, 1.0).expect("fresh shard id");
        }
        for tenant in 0..tenants {
            fabric
                .register_tenant(TenantSpec::frequency(tenant, 1_000 + tenant))
                .expect("fresh tenant id");
        }

        let t = Instant::now();
        for (i, chunk) in stream.chunks(CHUNK).enumerate() {
            let updates: Vec<(u64, f64)> = chunk.iter().map(|u| (u.item, u.delta)).collect();
            let frame = IngestFrame {
                tenant: i as u64 % tenants,
                updates,
            };
            match fabric.handle(Request::Ingest(frame)) {
                Response::Admitted(_) => {}
                other => panic!("fabric refused ingest: {other:?}"),
            }
        }
        for tenant in 0..tenants {
            fabric.handle(Request::Flush(TenantRef { tenant }));
        }
        let fabric_ingest = total_updates / t.elapsed().as_secs_f64();

        let t = Instant::now();
        let mut item = 0xBEEFu64;
        let mut acc = 0.0;
        for q in 0..queries {
            item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
            let query = PointQuery {
                tenant: q as u64 % tenants,
                item: item % n,
            };
            match fabric.handle(Request::Point(query)) {
                Response::Value(v) => acc += v.value,
                other => panic!("fabric refused query: {other:?}"),
            }
        }
        black_box(acc);
        let fabric_qps = queries as f64 / t.elapsed().as_secs_f64();

        println!(
            "  fabric x{tenants}: ingest {:.2} M items/s, point queries {:.2} M qps \
             (4 shards, per-tenant seeds)",
            fabric_ingest / 1e6,
            fabric_qps / 1e6
        );
        report.record(
            &format!("fabric/ingest/{tenants}-tenants"),
            "items_per_sec",
            fabric_ingest,
        );
        report.record(
            &format!("fabric/queries/{tenants}-tenants"),
            "queries_per_sec",
            fabric_qps,
        );
    }

    // ---- socket-path serving: the same fabric behind the daemon ----
    // Four tenants, four shards, loopback TCP through the framed wire
    // protocol. Queries pay one full round trip each, so the query
    // count is trimmed; the rows land next to `fabric/*` so the wire
    // tax reads off directly.
    {
        let tenants = 4u64;
        let mut fabric = Fabric::new(FabricConfig::new(params.clone()));
        for shard in 0..4 {
            fabric.add_shard(shard, 1.0).expect("fresh shard id");
        }
        for tenant in 0..tenants {
            fabric
                .register_tenant(TenantSpec::frequency(tenant, 1_000 + tenant))
                .expect("fresh tenant id");
        }
        let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, DaemonConfig::new())
            .expect("bind loopback daemon");
        let addr = daemon.local_addr().expect("tcp address");
        let mut client = Client::new(
            move || {
                let s = std::net::TcpStream::connect(addr)?;
                s.set_nodelay(true)?; // one frame per round trip
                Ok(s)
            },
            RetryPolicy::new(),
            MAX_FRAME_BYTES,
        );

        // The arrival stream still lands in CHUNK-sized pieces, but
        // the per-tenant `IngestBatcher` coalesces them into
        // MAX_BATCH-update frames, so the round-trip tax amortizes and
        // the server sees batches big enough for its blocked kernels.
        let mut batchers: Vec<IngestBatcher> = (0..tenants)
            .map(|tenant| IngestBatcher::new(tenant, MAX_BATCH))
            .collect();
        let t = Instant::now();
        for (i, chunk) in stream.chunks(CHUNK).enumerate() {
            let updates: Vec<(u64, f64)> = chunk.iter().map(|u| (u.item, u.delta)).collect();
            let batcher = &mut batchers[(i as u64 % tenants) as usize];
            for resp in batcher
                .extend(&mut client, &updates)
                .expect("socket ingest")
            {
                match resp {
                    Response::Admitted(_) => {}
                    other => panic!("daemon refused ingest: {other:?}"),
                }
            }
        }
        for batcher in &mut batchers {
            if let Some(resp) = batcher.finish(&mut client).expect("socket ingest tail") {
                match resp {
                    Response::Admitted(_) => {}
                    other => panic!("daemon refused ingest tail: {other:?}"),
                }
            }
        }
        for tenant in 0..tenants {
            client
                .call(&Request::Flush(TenantRef { tenant }))
                .expect("socket flush");
        }
        let socket_ingest = total_updates / t.elapsed().as_secs_f64();

        let socket_queries = (queries / 4).max(1_000);
        let t = Instant::now();
        let mut item = 0xBEEFu64;
        let mut acc = 0.0;
        for q in 0..socket_queries {
            item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
            let query = PointQuery {
                tenant: q as u64 % tenants,
                item: item % n,
            };
            match client.call(&Request::Point(query)).expect("socket query") {
                Response::Value(v) => acc += v.value,
                other => panic!("daemon refused query: {other:?}"),
            }
        }
        black_box(acc);
        let socket_qps = socket_queries as f64 / t.elapsed().as_secs_f64();

        // Exactness gate: socket answers are in-process answers.
        for probe in (0..n).step_by(997) {
            let query = PointQuery {
                tenant: probe % tenants,
                item: probe,
            };
            let over_wire = match client.call(&Request::Point(query.clone())).unwrap() {
                Response::Value(v) => v.value,
                other => panic!("daemon refused probe: {other:?}"),
            };
            let in_process = match daemon.fabric().handle(Request::Point(query)) {
                Response::Value(v) => v.value,
                other => panic!("fabric refused probe: {other:?}"),
            };
            assert_eq!(
                over_wire.to_bits(),
                in_process.to_bits(),
                "socket exactness gate failed at item {probe}"
            );
        }

        println!(
            "  daemon (loopback tcp) x{tenants}: ingest {:.2} M items/s, point queries {:.1} K qps \
             (1 round trip per query)",
            socket_ingest / 1e6,
            socket_qps / 1e3
        );
        report.record("daemon/ingest/tcp", "items_per_sec", socket_ingest);
        report.record("daemon/queries/tcp", "queries_per_sec", socket_qps);
        drop(client);
        daemon.shutdown().expect("daemon shutdown");
    }

    match report.write() {
        Ok(path) => println!("machine-readable summary: {}", path.display()),
        Err(e) => println!("WARNING: could not write bench summary: {e}"),
    }
    println!(
        "window exactness gate passed ({} window updates)",
        window_updates.len()
    );
}
