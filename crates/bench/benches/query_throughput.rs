//! **Query-plane throughput** — queries/sec for the live query plane,
//! quiescent and under concurrent ingest, reported next to the
//! writer's items/sec.
//!
//! The scenario is the telemetry-server shape: one `QueryEngine`
//! (Count-Median, width 4096 × depth 9 — the `throughput_ingest`
//! configuration) fed by one producer, the plane's single writer,
//! while M = 2 reader threads serve:
//!
//! * **live point queries** — lock-free single-item reads off the
//!   atomic cells;
//! * **snapshot point queries** — reads from an epoch-pinned dense
//!   view, re-pinned (allocation-free `refresh`) every 1024 queries;
//! * **heavy-hitter scans** — full-universe sweeps over a pinned
//!   snapshot (full mode only; reported as scans/sec).
//!
//! The quiescent pass is the baseline; the under-ingest pass shows
//! what reader throughput costs when the counter plane is being
//! written underneath. The acceptance target from the query-plane
//! issue — readers within 2× of quiescent under ingest — is
//! *reported* (with a WARNING when missed, since shared CI runners
//! and single-core hosts make wall-clock gates meaningless there), and
//! the **exactness gate is asserted**: after quiescing, the final
//! snapshot must equal a single-threaded sketch of everything pushed,
//! bit for bit. That gate is what CI's smoke mode (`--test`) runs.
//!
//! Knobs: `BAS_SCALE` scales the preload/query counts; `--test` (CI
//! smoke) shrinks everything to run in seconds.

use bas_bench::report::BenchReport;
use bas_pipeline::EpochHandle;
use bas_serve::{QueryEngine, QueryHandle};
use bas_sketch::{AtomicCountMedian, CountMedian, PointQuerySketch, SketchParams, Snapshottable};
use std::hint::black_box;
use std::time::Instant;

const WIDTH: usize = 4_096;
const DEPTH: usize = 9;
const READERS: usize = 2;
const REFRESH_EVERY: usize = 1_024;

/// Deterministic integer-delta stream (same generator family as
/// `throughput_ingest`, so the two benches describe one workload).
fn make_updates(total: usize, n: u64) -> Vec<(u64, f64)> {
    let mut state = 0x0DDB_1A5E5u64;
    (0..total)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n, (1 + state % 4) as f64)
        })
        .collect()
}

/// One reader's workload: `live_q` live reads and `snap_q` snapshot
/// reads (with periodic refresh). Returns (queries, seconds).
fn reader_pass(
    handle: &QueryHandle<AtomicCountMedian>,
    n: u64,
    live_q: usize,
    snap_q: usize,
) -> (u64, f64) {
    let t = Instant::now();
    let mut item = 0xBEEFu64;
    let mut acc = 0.0;
    for _ in 0..live_q {
        item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
        acc += handle.estimate_live(item % n);
    }
    let mut snap = handle.pin();
    for q in 0..snap_q {
        if q % REFRESH_EVERY == 0 {
            snap.refresh();
        }
        item = item.wrapping_mul(6364136223846793005).wrapping_add(1);
        acc += snap.estimate(item % n);
    }
    black_box(acc);
    ((live_q + snap_q) as u64, t.elapsed().as_secs_f64())
}

struct Pass {
    label: String,
    queries_per_sec: f64,
    items_per_sec: f64,
}

/// Runs READERS reader threads against `engine` while the producer
/// pushes `write_rounds` copies of `updates` (0 = quiescent pass).
/// Both sides do **bounded** work, so the pass terminates even on a
/// single-core host where readers and the writer timeshare;
/// on such hosts the tail of the reader quota may run after the
/// writer drains, which the report calls out rather than hiding.
fn run_pass(
    label: &str,
    engine: &mut QueryEngine<AtomicCountMedian>,
    n: u64,
    updates: &[(u64, f64)],
    write_rounds: usize,
    live_q: usize,
    snap_q: usize,
) -> (Pass, u64) {
    let mut pushed = 0u64;
    let (mut queries, mut reader_secs) = (0u64, 0.0f64);
    let wall = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let handle = engine.handle();
                scope.spawn(move || reader_pass(&handle, n, live_q, snap_q))
            })
            .collect();
        for _ in 0..write_rounds {
            engine.extend_from_slice(updates);
            pushed += updates.len() as u64;
        }
        engine.flush();
        for h in handles {
            let (q, secs) = h.join().expect("reader panicked");
            queries += q;
            reader_secs += secs;
        }
    });
    let wall_secs = wall.elapsed().as_secs_f64();
    let pass = Pass {
        label: label.to_string(),
        // Aggregate throughput: queries issued per second of reader time,
        // summed over the reader threads.
        queries_per_sec: queries as f64 / (reader_secs / READERS as f64),
        items_per_sec: if write_rounds > 0 {
            pushed as f64 / wall_secs
        } else {
            0.0
        },
    };
    (pass, pushed)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let scale = std::env::var("BAS_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0);
    let n = 1_000_000u64;
    let preload = if smoke {
        100_000
    } else {
        (1_000_000f64 * scale) as usize
    };
    let live_q = if smoke {
        40_000
    } else {
        (400_000f64 * scale) as usize
    };
    let snap_q = if smoke {
        20_000
    } else {
        (200_000f64 * scale) as usize
    };

    println!("================ query-plane throughput ================");
    println!(
        "universe {n}, width {WIDTH}, depth {DEPTH}; preload {preload} updates; \
         {READERS} readers x ({live_q} live + {snap_q} snapshot queries){}",
        if smoke { " [smoke]" } else { "" }
    );

    let params = SketchParams::new(n, WIDTH, DEPTH).with_seed(7);
    let updates = make_updates(preload, n);
    let mut engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
    engine.extend_from_slice(&updates);
    engine.flush();

    let write_rounds = if smoke { 4 } else { 10 };
    let mut passes = Vec::new();
    let (quiescent, _) = run_pass("quiescent", &mut engine, n, &updates, 0, live_q, snap_q);
    passes.push(quiescent);
    let mut total_pushed = updates.len() as u64;
    let (pass, pushed) = {
        let mut w_engine = QueryEngine::new(AtomicCountMedian::with_backend(&params));
        w_engine.extend_from_slice(&updates);
        w_engine.flush();
        let out = run_pass(
            "under ingest",
            &mut w_engine,
            n,
            &updates,
            write_rounds,
            live_q,
            snap_q,
        );
        // Exactness gate: quiesced snapshot == single-threaded
        // reference over exactly the pushed prefix (integer deltas
        // make every path bit-exact).
        let applied = w_engine.applied();
        let rounds = (applied as usize) / updates.len();
        assert_eq!(rounds, 1 + write_rounds, "unexpected stream position");
        assert_eq!(
            applied as usize % updates.len(),
            0,
            "partial flush left behind"
        );
        let mut reference = CountMedian::new(&params);
        for _ in 0..rounds {
            reference.update_batch(&updates);
        }
        let snap = w_engine.pin();
        for j in (0..n).step_by(97_003) {
            assert_eq!(
                snap.estimate(j),
                reference.estimate(j),
                "exactness gate failed at item {j}"
            );
            assert_eq!(
                w_engine.sketch().estimate_in(snap.snapshot(), j),
                reference.estimate(j),
            );
        }
        out
    };
    total_pushed += pushed;
    passes.push(pass);

    let mut report = BenchReport::new("query_throughput", smoke);

    // Heavy-hitter scan rate over a pinned snapshot (full mode only —
    // a universe sweep is deliberately not a smoke-sized operation).
    if !smoke {
        let scans = 3;
        let shared: EpochHandle<AtomicCountMedian> = {
            let mut e = QueryEngine::new(AtomicCountMedian::with_backend(&params));
            e.extend_from_slice(&updates);
            e.finish()
        };
        let snap = shared.pin();
        let t = Instant::now();
        let mut found = 0usize;
        for _ in 0..scans {
            let threshold = 1e-4 * snap.mass();
            found += (0..n)
                .filter(|&j| shared.sketch().estimate_in(snap.snapshot(), j) >= threshold)
                .count();
        }
        let secs = t.elapsed().as_secs_f64();
        black_box(found);
        println!(
            "  heavy-hitter scans: {:.2} scans/s over the {n}-item universe",
            scans as f64 / secs
        );
        report.record("heavy-hitter-scan", "scans_per_sec", scans as f64 / secs);
    }

    println!("--------------------------------------------------------");
    let baseline = passes[0].queries_per_sec;
    for p in &passes {
        println!(
            "  {:>12}: {:>7.2} M queries/s ({:.2}x vs quiescent){}",
            p.label,
            p.queries_per_sec / 1e6,
            p.queries_per_sec / baseline,
            if p.items_per_sec > 0.0 {
                format!("   | ingest {:.2} M items/s", p.items_per_sec / 1e6)
            } else {
                String::new()
            }
        );
        report.record(&p.label, "queries_per_sec", p.queries_per_sec);
        if p.items_per_sec > 0.0 {
            report.record(&p.label, "items_per_sec", p.items_per_sec);
        }
    }
    let loaded = passes
        .last()
        .expect("under-ingest pass exists")
        .queries_per_sec;
    println!(
        "reader throughput under ingest: {:.2}x of quiescent{}",
        loaded / baseline,
        if loaded * 2.0 >= baseline {
            " (within the 2x acceptance envelope)"
        } else {
            " (WARNING: below the 2x envelope on this host/run)"
        }
    );
    println!("total updates pushed across passes: {total_pushed}");
    match report.write() {
        Ok(path) => println!("machine-readable summary: {}", path.display()),
        Err(e) => println!("WARNING: could not write bench summary: {e}"),
    }
}
