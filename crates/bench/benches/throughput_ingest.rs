//! **Ingest throughput** — items/sec for the single-node ingest paths:
//! single-item `update`, batched `update_batch` (the dispatch-hoisted
//! fast path of `bas_hash::bucket_rows_each`), the chunked stream
//! driver, `ShardedIngest` across 2/4/8 worker threads (k same-seed
//! shard copies, k× memory, merged at the end), and `ConcurrentIngest`
//! (**one** shared `Atomic`-backed sketch, 1× memory, written by one
//! thread) — the sharded-vs-shared comparison behind the storage-layer
//! refactor. The `single` row
//! doubles as the `Dense`-backend abstraction-cost gate: it runs the
//! same code path as before the `CounterMatrix` extraction, so a
//! regression there is a regression of the storage layer itself.
//!
//! This is the measurement behind the batching/sharding refactor: the
//! speedups are reported, not asserted (except in the exactness
//! spot-check — all paths must produce identical sketches on this
//! integer-delta stream). Sketch construction happens off the clock,
//! and each path reports the best of several passes to suppress
//! virtualization noise.
//!
//! Design note, recorded because we measured it: the first cut of
//! `update_batch` swept the batch **row-major** (per row, stream all
//! items) for write locality, and *lost* to the single-item loop by
//! ~25% at this configuration — the counter grid (288 KiB) is already
//! cache-resident, so re-streaming the 16 MiB batch once per row costs
//! more than the write locality saves. The shipped fast path keeps the
//! single pass over the batch and instead hoists the hash-family enum
//! dispatch out of the loop (downcast once per batch, monomorphized
//! item×row inner loop). Sharding numbers depend on available cores;
//! on a single-core host the sharded paths report the thread overhead
//! honestly.
//!
//! Knobs: `BAS_SCALE` scales the update count (e.g. `BAS_SCALE=10` for
//! 10M); `--test` (the CI smoke mode) shrinks the run to 100k updates
//! and single passes so the harness stays green in seconds.

use bas_bench::report::BenchReport;
use bas_core::{L2Config, L2SketchRecover};
use bas_hash::HashKind;
use bas_pipeline::{ConcurrentIngest, ShardedIngest};
use bas_sketch::{
    AtomicCountMedian, AtomicCountSketch, CountMedian, CountSketch, MergeableSketch,
    PointQuerySketch, SharedSketch, SketchParams,
};
use bas_stream::{drive_chunked, StreamUpdate, DEFAULT_CHUNK_SIZE};
use std::hint::black_box;
use std::time::Instant;

const WIDTH: usize = 4_096;
const DEPTH: usize = 9;
const CHUNK: usize = DEFAULT_CHUNK_SIZE;

struct Run {
    label: String,
    items_per_sec: f64,
    speedup_vs_single: f64,
}

/// Best-of-`passes` timing of `ingest` over fresh sketches;
/// construction stays off the clock. Returns (secs, last sketch).
fn time_passes<S, F, G>(passes: usize, mut make: F, mut ingest: G) -> (f64, S)
where
    S: PointQuerySketch,
    F: FnMut() -> S,
    G: FnMut(&mut S),
{
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..passes {
        let mut sk = make();
        let t = Instant::now();
        ingest(&mut sk);
        best = best.min(t.elapsed().as_secs_f64());
        result = Some(sk);
    }
    (best, black_box(result.expect("at least one pass")))
}

fn bench_sketch<S, F>(
    name: &str,
    updates: &[(u64, f64)],
    passes: usize,
    make: F,
    shard_counts: &[usize],
) -> (Vec<Run>, f64, S)
where
    S: MergeableSketch + Send,
    F: Fn() -> S + Copy,
{
    let n_items = updates.len() as f64;
    let mut runs = Vec::new();

    let (single_secs, single) = time_passes(passes, make, |sk| {
        for &(i, d) in updates {
            sk.update(i, d);
        }
    });
    runs.push(Run {
        label: "single".into(),
        items_per_sec: n_items / single_secs,
        speedup_vs_single: 1.0,
    });

    // The whole stream handed over as one materialized batch — how
    // distributed sites and ShardedIngest shards consume their shards.
    let (batched_secs, batched) = time_passes(passes, make, |sk| {
        sk.update_batch(updates);
    });
    runs.push(Run {
        label: "batched".into(),
        items_per_sec: n_items / batched_secs,
        speedup_vs_single: single_secs / batched_secs,
    });

    // Updates arriving one at a time (a live stream): drive_chunked
    // stages them into chunks, so the fast path's win has to pay for
    // one extra copy per update.
    let (driver_secs, driven) = time_passes(passes, make, |sk| {
        let stream = updates.iter().map(|&(i, d)| StreamUpdate::new(i, d));
        drive_chunked(stream, CHUNK, |chunk| sk.update_batch(chunk));
    });
    runs.push(Run {
        label: format!("driver ({}k)", CHUNK / 1024),
        items_per_sec: n_items / driver_secs,
        speedup_vs_single: single_secs / driver_secs,
    });

    let mut sharded_sketches = Vec::new();
    for &shards in shard_counts {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..passes {
            let mut ingest = ShardedIngest::new(shards, make);
            let t = Instant::now();
            ingest.extend_from_slice(updates);
            let sk = ingest.finish();
            best = best.min(t.elapsed().as_secs_f64());
            result = Some(sk);
        }
        let sk = black_box(result.expect("at least one pass"));
        runs.push(Run {
            label: format!("sharded-{shards}"),
            items_per_sec: n_items / best,
            speedup_vs_single: single_secs / best,
        });
        sharded_sketches.push(sk);
    }

    // Exactness spot-check: integer deltas => every path agrees
    // bit-for-bit with the single-item reference.
    for j in (0..single.universe()).step_by(97_003) {
        assert_eq!(batched.estimate(j), single.estimate(j), "{name} item {j}");
        assert_eq!(driven.estimate(j), single.estimate(j), "{name} item {j}");
        for sk in &sharded_sketches {
            assert_eq!(sk.estimate(j), single.estimate(j), "{name} item {j}");
        }
    }

    println!("--- {name} ---");
    for r in &runs {
        println!(
            "  {:>20}: {:>7.2} M items/s   ({:.2}x vs single)",
            r.label,
            r.items_per_sec / 1e6,
            r.speedup_vs_single
        );
    }
    (runs, single_secs, single)
}

/// The concurrent-shared path: `ConcurrentIngest` writing **one**
/// `Atomic`-backed sketch from one thread, measured against the same
/// single-item reference (bit-for-bit agreement is asserted).
fn bench_concurrent<S, R, F>(
    name: &str,
    updates: &[(u64, f64)],
    passes: usize,
    make_shared: F,
    single_secs: f64,
    reference: &R,
) -> Vec<Run>
where
    S: SharedSketch + Send,
    R: PointQuerySketch,
    F: Fn() -> S + Copy,
{
    let n_items = updates.len() as f64;
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..passes {
        let mut ingest = ConcurrentIngest::new(make_shared());
        let t = Instant::now();
        ingest.extend_from_slice(updates);
        let sk = ingest.finish();
        best = best.min(t.elapsed().as_secs_f64());
        result = Some(sk);
    }
    let sk = black_box(result.expect("at least one pass"));
    // Exactness spot-check: every cell gets its increments in stream
    // order — the shared sketch must match the single-item reference
    // bit-for-bit.
    for j in (0..reference.universe()).step_by(97_003) {
        assert_eq!(sk.estimate(j), reference.estimate(j), "{name} item {j}");
    }
    let runs = vec![Run {
        label: "concurrent-shared".into(),
        items_per_sec: n_items / best,
        speedup_vs_single: single_secs / best,
    }];
    println!("--- {name} (one shared atomic-backed sketch) ---");
    for r in &runs {
        println!(
            "  {:>20}: {:>7.2} M items/s   ({:.2}x vs single)",
            r.label,
            r.items_per_sec / 1e6,
            r.speedup_vs_single
        );
    }
    runs
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = std::env::var("BAS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    let total = if smoke {
        100_000
    } else {
        (1_000_000f64 * scale) as usize
    };
    let passes = if smoke { 1 } else { 3 };
    let n = 1_000_000u64;

    println!("================ ingest throughput ================");
    println!(
        "{total} updates, universe {n}, width {WIDTH}, depth {DEPTH}, best of {passes} pass(es){}",
        if smoke { " [smoke]" } else { "" }
    );

    // Integer-delta traffic (the arrival model) so all paths agree
    // exactly; xorshift keeps generation off the measured clock.
    let mut state = 0x0DDB_1A5E5u64;
    let updates: Vec<(u64, f64)> = (0..total)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n, (1 + state % 4) as f64)
        })
        .collect();

    let shard_counts: &[usize] = if smoke { &[2] } else { &[2, 4, 8] };
    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(7);
    let mut report = BenchReport::new("throughput_ingest", smoke);
    let record = |report: &mut BenchReport, name: &str, runs: &[Run]| {
        for r in runs {
            report.record(
                &format!("{name}/{}", r.label),
                "items_per_sec",
                r.items_per_sec,
            );
        }
    };

    let (cm_runs, cm_single_secs, cm_single) = bench_sketch(
        "Count-Median",
        &updates,
        passes,
        || CountMedian::new(&params),
        shard_counts,
    );
    record(&mut report, "Count-Median", &cm_runs);
    let cm_shared = bench_concurrent(
        "Count-Median",
        &updates,
        passes,
        || AtomicCountMedian::with_backend(&params),
        cm_single_secs,
        &cm_single,
    );
    record(&mut report, "Count-Median", &cm_shared);
    let (cs_runs, cs_single_secs, cs_single) = bench_sketch(
        "Count-Sketch",
        &updates,
        passes,
        || CountSketch::new(&params),
        shard_counts,
    );
    record(&mut report, "Count-Sketch", &cs_runs);
    let cs_shared = bench_concurrent(
        "Count-Sketch",
        &updates,
        passes,
        || AtomicCountSketch::with_backend(&params),
        cs_single_secs,
        &cs_single,
    );
    record(&mut report, "Count-Sketch", &cs_shared);
    let l2_cfg = L2Config::new(n, WIDTH, DEPTH).with_seed(7);
    // No concurrent-shared row for l2-S/R: its bias maintainers are
    // inherently sequential (no SharedSketch impl), so its multi-core
    // story is ShardedIngest only.
    let (l2_runs, _, _) = bench_sketch(
        "l2-S/R",
        &updates,
        passes,
        || L2SketchRecover::new(&l2_cfg),
        shard_counts,
    );
    record(&mut report, "l2-S/R", &l2_runs);

    // --- The PR 10 hot path: one-hash kernels on this machine ---
    //
    // Everything above measures the classical Carter–Wegman rows; the
    // serving stack's default is now `HashKind::OneHash`, whose batch
    // kernels this section measures: the blocked row-major kernel
    // (`kernel-batch`), the same kernel with the vectorized digest /
    // bucket / sign maps forced off (`kernel-scalar` — identical math,
    // scalar lanes), and the same kernel through the shared reference
    // on the Atomic store, driven single-threaded (`shared-batch`: a
    // Relaxed load and store per cell). Integer deltas keep every row
    // bit-for-bit comparable, so the exactness gates hold here too.
    // kernel-simd and shared-batch alternate pass by pass, best of at
    // least 7 each, so host noise hits both rows alike: CI gates their
    // ratio.
    let one_hash = params.with_hash_kind(HashKind::OneHash);
    let mut hot_runs = Vec::new();

    bas_hash::set_force_scalar(true);
    let (scalar_secs, kernel_scalar) = time_passes(
        passes,
        || CountMedian::new(&one_hash),
        |sk| {
            sk.update_batch(&updates);
        },
    );
    bas_hash::set_force_scalar(false);
    let (mut simd_secs, mut shared_best) = (f64::INFINITY, f64::INFINITY);
    let (mut kernel_simd, mut shared_result) = (None, None);
    for _ in 0..passes.max(7) {
        let mut sk = CountMedian::new(&one_hash);
        let t = Instant::now();
        sk.update_batch(&updates);
        simd_secs = simd_secs.min(t.elapsed().as_secs_f64());
        kernel_simd = Some(sk);
        let sk = AtomicCountMedian::with_backend(&one_hash);
        let t = Instant::now();
        sk.update_batch_shared(&updates);
        shared_best = shared_best.min(t.elapsed().as_secs_f64());
        shared_result = Some(sk);
    }
    let kernel_simd = black_box(kernel_simd.expect("at least one pass"));
    hot_runs.push(Run {
        label: "kernel-scalar".into(),
        items_per_sec: total as f64 / scalar_secs,
        speedup_vs_single: cm_single_secs / scalar_secs,
    });
    hot_runs.push(Run {
        label: if bas_hash::simd_active() {
            "kernel-simd".into()
        } else {
            "kernel-simd (scalar fallback)".into()
        },
        items_per_sec: total as f64 / simd_secs,
        speedup_vs_single: cm_single_secs / simd_secs,
    });

    let shared_sketch = black_box(shared_result.expect("at least one pass"));
    hot_runs.push(Run {
        label: "shared-batch".into(),
        items_per_sec: total as f64 / shared_best,
        speedup_vs_single: cm_single_secs / shared_best,
    });

    // Exactness gates: both kernel paths and the shared path must be
    // bit-for-bit (the SIMD lanes perform the same wrapping integer
    // ops; the shared path is the same sweep).
    for j in (0..kernel_scalar.universe()).step_by(97_003) {
        assert_eq!(
            kernel_simd.estimate(j),
            kernel_scalar.estimate(j),
            "one-hash simd/scalar item {j}"
        );
        assert_eq!(
            shared_sketch.estimate(j),
            kernel_scalar.estimate(j),
            "one-hash shared item {j}"
        );
    }

    println!(
        "--- Count-Median (one-hash hot path, simd {}) ---",
        if bas_hash::simd_active() {
            "active"
        } else {
            "inactive"
        }
    );
    for r in &hot_runs {
        println!(
            "  {:>28}: {:>7.2} M items/s   ({:.2}x vs single)",
            r.label,
            r.items_per_sec / 1e6,
            r.speedup_vs_single
        );
    }
    record(&mut report, "Count-Median", &hot_runs);
    report.record(
        "Count-Median/kernel",
        "simd_speedup_vs_scalar",
        scalar_secs / simd_secs,
    );

    // Verdict over all three sketches (geometric mean of the batched
    // speedups), so one noisy series cannot flip the report.
    let ratios = [
        cm_runs[1].speedup_vs_single,
        cs_runs[1].speedup_vs_single,
        l2_runs[1].speedup_vs_single,
    ];
    let geomean = ratios
        .iter()
        .product::<f64>()
        .powf(1.0 / ratios.len() as f64);
    println!("---------------------------------------------------");
    println!(
        "batched vs single: CM {:.2}x, CS {:.2}x, l2-S/R {:.2}x — geomean {geomean:.2}x{}",
        ratios[0],
        ratios[1],
        ratios[2],
        if geomean > 1.0 {
            " (batching wins)"
        } else {
            " (WARNING: batching did not win on this machine/run)"
        }
    );
    report.record("geomean", "batched_speedup_vs_single", geomean);
    match report.write() {
        Ok(path) => println!("machine-readable summary: {}", path.display()),
        Err(e) => println!("WARNING: could not write bench summary: {e}"),
    }
}
