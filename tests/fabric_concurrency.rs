//! The fabric under concurrent dispatch: `Fabric::handle` takes
//! `&self`, each tenant sits behind its own lock, and requests for
//! distinct tenants run at once. Pinned claims:
//!
//! 1. threads that drive one fabric — writers ingesting, flushing and
//!    advancing their own tenants, readers sending every query verb and
//!    `Stats` against every tenant, and a `Register` landing mid-run —
//!    leave every tenant answering **bit for bit** like a fabric that
//!    got the same per-tenant request sequences on one thread, and
//!    every read mid-run (a `Stats` reply's `applied` and `mass`
//!    included) is the answer of one settled state of that sequence;
//! 2. the daemon appends a journaled verb's record before any
//!    compaction can checkpoint its effect, so a journal read while
//!    the daemon is up recovers every tenant at its live interval;
//! 3. an inline journal compaction does not stall another connection's
//!    points on another tenant.
//!
//! The thread counts default to {2, 8}; CI re-runs the suite under
//! `--release` with `BAS_TEST_THREADS=2` and `=8` explicitly.

use bias_aware_sketches::hashing::HashKind;
use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{
    HeavyHittersQuery, IngestFrame, PointQuery, RangeQuery, TenantRef,
};
use bias_aware_sketches::server::{
    read_journal, recover, Client, Daemon, DaemonConfig, Journal, JournalRecord, RetryPolicy,
    ShardRecord, MAX_FRAME_BYTES,
};
use std::collections::{BTreeMap, HashSet};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

const N: u64 = 4_096;

fn config() -> FabricConfig {
    FabricConfig::new(SketchParams::new(N, 128, 5))
}

/// Thread counts to exercise: `BAS_TEST_THREADS` (CI) or {2, 8}. A
/// count of `k` runs `max(1, k / 2)` writers beside the rest as
/// readers.
fn thread_counts() -> Vec<usize> {
    match std::env::var("BAS_TEST_THREADS") {
        Ok(v) => vec![v.parse().expect("BAS_TEST_THREADS must be a number")],
        Err(_) => vec![2, 8],
    }
}

/// A deterministic stream of integer-valued updates.
fn stream(seed: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 33) % N, ((state >> 11) % 5) as f64 + 1.0)
        })
        .collect()
}

/// The tenants the run starts with: every metric, every serving mode.
fn initial_specs() -> Vec<TenantSpec> {
    let sliding = |k| ServingMode::Sliding(WindowLen { intervals: k });
    let tumbling = |k| ServingMode::Tumbling(WindowLen { intervals: k });
    let rotating = |k| ServingMode::Rotating(WindowLen { intervals: k });
    vec![
        TenantSpec::frequency(1, 11),
        TenantSpec::frequency(2, 22).with_mode(sliding(3)),
        TenantSpec::range_sum(3, 33).with_mode(tumbling(2)),
        TenantSpec::frequency(4, 44).with_mode(rotating(3)),
        TenantSpec::range_sum(5, 55),
        TenantSpec::frequency(6, 66)
            .with_mode(tumbling(2))
            .with_queue_capacity(700),
    ]
}

/// The tenant one writer registers mid-run.
fn late_spec() -> TenantSpec {
    TenantSpec::range_sum(9, 99).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }))
}

/// One tenant's write sequence: ingest every round, flush every third,
/// advance every fifth.
fn script(tenant: u64) -> Vec<Request> {
    let mut reqs = Vec::new();
    for round in 0..24u64 {
        let len = 64 + (tenant * 37 + round * 53) as usize % 200;
        reqs.push(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant * 1_000 + round, len),
        }));
        if round % 3 == 2 {
            reqs.push(Request::Flush(TenantRef { tenant }));
        }
        if round % 5 == 4 {
            reqs.push(Request::AdvanceInterval(TenantRef { tenant }));
        }
    }
    reqs
}

/// Every read a reader sends about a tenant: both point verbs, both
/// range verbs, both scans and `Stats`.
fn reads(tenant: u64) -> Vec<Request> {
    let item = (tenant * 131) % N;
    vec![
        Request::Point(PointQuery { tenant, item }),
        Request::WindowPoint(PointQuery { tenant, item }),
        Request::RangeSum(RangeQuery {
            tenant,
            lo: 100,
            hi: 2_100,
        }),
        Request::WindowRangeSum(RangeQuery {
            tenant,
            lo: 7,
            hi: 3_000,
        }),
        Request::HeavyHitters(HeavyHittersQuery { tenant, phi: 0.002 }),
        Request::WindowHeavyHitters(HeavyHittersQuery { tenant, phi: 0.002 }),
        Request::Stats(TenantRef { tenant }),
    ]
}

/// An answer's exact text: `Debug` prints each `f64` so that it reads
/// back to the same bits, so equal text is a bit-for-bit answer.
fn exact(resp: &Response) -> String {
    format!("{resp:?}")
}

/// What a one-threaded fabric says: each write's reply, and for each
/// read every answer it gives in any settled state of the tenant's
/// sequence (before its first write, and after each).
struct Reference {
    fabric: Fabric,
    replies: BTreeMap<u64, Vec<String>>,
    settled: BTreeMap<(u64, usize), HashSet<String>>,
}

fn reference(specs: &[TenantSpec]) -> Reference {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 2.0).unwrap();
    let mut replies = BTreeMap::new();
    let mut settled: BTreeMap<(u64, usize), HashSet<String>> = BTreeMap::new();
    for spec in specs {
        let tenant = spec.tenant;
        // Before the tenant exists, a read is a typed `unknown_tenant`.
        let record = |fabric: &Fabric, settled: &mut BTreeMap<_, HashSet<String>>| {
            for (i, read) in reads(tenant).into_iter().enumerate() {
                let answer = exact(&fabric.handle(read));
                settled.entry((tenant, i)).or_default().insert(answer);
            }
        };
        record(&fabric, &mut settled);
        fabric.register_tenant(*spec).unwrap();
        record(&fabric, &mut settled);
        let mut tenant_replies = Vec::new();
        for req in script(tenant) {
            tenant_replies.push(exact(&fabric.handle(req)));
            record(&fabric, &mut settled);
        }
        replies.insert(tenant, tenant_replies);
    }
    Reference {
        fabric,
        replies,
        settled,
    }
}

#[test]
fn concurrent_dispatch_matches_per_tenant_sequential_replay() {
    let mut all = initial_specs();
    all.push(late_spec());
    let want = reference(&all);
    for threads in thread_counts() {
        let writers = (threads / 2).max(1);
        let readers = threads - writers;
        let mut fabric = Fabric::new(config());
        fabric.add_shard(0, 1.0).unwrap();
        fabric.add_shard(1, 2.0).unwrap();
        for spec in initial_specs() {
            fabric.register_tenant(spec).unwrap();
        }
        let fabric = &fabric;
        let tenants: Vec<u64> = all.iter().map(|s| s.tenant).collect();
        let done = AtomicBool::new(false);
        let reads_checked = AtomicUsize::new(0);
        let got: BTreeMap<u64, Vec<String>> = std::thread::scope(|scope| {
            for r in 0..readers {
                let (done, reads_checked, want, tenants) = (&done, &reads_checked, &want, &tenants);
                scope.spawn(move || {
                    let mut sent = 0usize;
                    // At least one full pass, then until the writers finish.
                    while sent < tenants.len() * 7 || !done.load(Ordering::Acquire) {
                        let tenant = tenants[(sent + r) % tenants.len()];
                        let i = (sent / tenants.len() + r) % 7;
                        let answer = exact(&fabric.handle(reads(tenant).swap_remove(i)));
                        assert!(
                            want.settled[&(tenant, i)].contains(&answer),
                            "{threads} threads: tenant {tenant} read {i} answered {answer}, \
                             which no settled state of its sequence gives"
                        );
                        sent += 1;
                    }
                    reads_checked.fetch_add(sent, Ordering::Relaxed);
                });
            }
            let writer_threads: Vec<_> = (0..writers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut replies: BTreeMap<u64, Vec<String>> = BTreeMap::new();
                        let mut scripts: Vec<(u64, std::vec::IntoIter<Request>)> = initial_specs()
                            .iter()
                            .map(|s| s.tenant)
                            .filter(|t| *t as usize % writers == w)
                            .map(|t| (t, script(t).into_iter()))
                            .collect();
                        // Writer 0 registers the late tenant after this
                        // many steps, then drives it too.
                        const REGISTER_AT: usize = 12;
                        for step in 0.. {
                            if w == 0 && step == REGISTER_AT {
                                let late = late_spec();
                                fabric.register_tenant(late).unwrap();
                                scripts.push((late.tenant, script(late.tenant).into_iter()));
                            }
                            let mut sent = false;
                            for (tenant, reqs) in &mut scripts {
                                if let Some(req) = reqs.next() {
                                    let reply = exact(&fabric.handle(req));
                                    replies.entry(*tenant).or_default().push(reply);
                                    sent = true;
                                }
                            }
                            if !sent && (w != 0 || step > REGISTER_AT) {
                                break;
                            }
                        }
                        replies
                    })
                })
                .collect();
            let mut got = BTreeMap::new();
            for handle in writer_threads {
                got.extend(handle.join().unwrap());
            }
            done.store(true, Ordering::Release);
            got
        });
        assert!(reads_checked.load(Ordering::Relaxed) >= readers * all.len() * 7);

        // Every write got the reply the one-threaded fabric gave it, and
        // every tenant ends bit for bit where the reference ends.
        assert_eq!(got, want.replies, "{threads} threads: write replies");
        assert_eq!(fabric.tenant_ids(), want.fabric.tenant_ids());
        for spec in &all {
            let tenant = spec.tenant;
            for read in reads(tenant) {
                assert_eq!(
                    exact(&fabric.handle(read.clone())),
                    exact(&want.fabric.handle(read.clone())),
                    "{threads} threads: tenant {tenant}: {read:?}"
                );
            }
            let export = Request::Export(TenantRef { tenant });
            assert_eq!(
                fabric.handle(export.clone()),
                want.fabric.handle(export),
                "{threads} threads: tenant {tenant}'s planes"
            );
        }
    }
}

// ---- persistence under concurrent connections ----

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "bas-fabric-concurrency-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

fn client(addr: SocketAddr) -> Client<TcpStream, impl FnMut() -> std::io::Result<TcpStream>> {
    Client::new(
        move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        RetryPolicy::new().with_max_attempts(1),
        MAX_FRAME_BYTES,
    )
}

/// A daemon over `fabric` whose journal (at `path`, with the fabric's
/// shards already recorded) compacts after `records` appends. Its
/// connections poll between frames every 5 ms, so that they notice
/// shutdown quickly (accepts never wait on the poll).
fn journaled_daemon(fabric: Fabric, path: &PathBuf, records: u64) -> Daemon {
    let mut journal = Journal::open(path).unwrap();
    for shard in fabric.ring().shards() {
        let record = ShardRecord {
            shard: shard.id,
            weight: shard.weight,
        };
        journal.append(&JournalRecord::ShardAdded(record)).unwrap();
    }
    let config = DaemonConfig::new()
        .with_poll_interval(Duration::from_millis(5))
        .with_compact_after_records(Some(records));
    Daemon::bind_tcp("127.0.0.1:0", fabric, Some(journal), config).unwrap()
}

fn stats(resp: Response) -> (u64, u64, f64) {
    match resp {
        Response::Stats(s) => (s.interval, s.applied, s.mass),
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Two connections register and advance their own tenants while every
/// second record triggers an inline compaction. A compaction that
/// checkpointed an effect whose record then landed after the
/// checkpoint would replay it twice: a tenant advanced one interval too
/// far, or recovery refusing a tenant "registered twice". The next
/// compaction would rewrite such a tail, so the journal is read after
/// each of several bursts, as it stands with the daemon still up, and
/// must recover every tenant at its live interval each time.
#[test]
fn journal_recovers_live_intervals_while_connections_compact() {
    let path = temp_path("order");
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = journaled_daemon(fabric, &path, 2);
    let addr = daemon.local_addr().unwrap();
    let tenants = [[11u64, 12, 13], [21, 22, 23]];
    for burst in 0..20u64 {
        std::thread::scope(|scope| {
            for own in &tenants {
                scope.spawn(move || {
                    let mut c = client(addr);
                    for &tenant in own.iter().filter(|_| burst == 0) {
                        let spec = TenantSpec::frequency(tenant, tenant * 7)
                            .with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
                        let resp = c.call(&Request::Register(spec)).unwrap();
                        assert!(matches!(resp, Response::Installed(_)), "{resp:?}");
                    }
                    for round in 0..3u64 {
                        for &tenant in own {
                            let updates = stream(tenant * 100 + burst * 3 + round, 50);
                            c.call(&Request::Ingest(IngestFrame { tenant, updates }))
                                .unwrap();
                            let resp = c
                                .call(&Request::AdvanceInterval(TenantRef { tenant }))
                                .unwrap();
                            assert!(matches!(resp, Response::Sealed(_)), "{resp:?}");
                        }
                    }
                });
            }
        });

        let recovered = recover(&path, config())
            .unwrap_or_else(|e| panic!("burst {burst}: the live journal does not recover: {e}"));
        for &tenant in tenants.iter().flatten() {
            let ask = Request::Stats(TenantRef { tenant });
            let live = stats(daemon.fabric().handle(ask.clone())).0;
            assert_eq!(live, 3 * (burst + 1), "tenant {tenant}");
            assert_eq!(
                stats(recovered.handle(ask)).0,
                live,
                "burst {burst}: tenant {tenant}'s recovered interval"
            );
        }
    }
    daemon.shutdown().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// While one connection's `AdvanceInterval` runs an inline compaction
/// of several tenants at the benchmark's shape (2^17 items, 4,096 × 9
/// cells, one-hash), another connection keeps answering points on
/// another tenant: the compaction exports one tenant at a time and
/// encodes, writes and fsyncs outside every fabric lock.
#[test]
fn compaction_does_not_stall_points_on_another_tenant() {
    let path = temp_path("stall");
    let params = SketchParams::new(1 << 17, 4_096, 9).with_hash_kind(HashKind::OneHash);
    let mut fabric = Fabric::new(FabricConfig::new(params));
    fabric.add_shard(0, 1.0).unwrap();
    for tenant in 1..=5u64 {
        fabric
            .register_tenant(TenantSpec::frequency(tenant, tenant * 13))
            .unwrap();
        let updates: Vec<(u64, f64)> = stream(tenant, 20_000)
            .into_iter()
            .map(|(item, delta)| (item * 31 % (1 << 17), delta))
            .collect();
        fabric.handle(Request::Ingest(IngestFrame { tenant, updates }));
        fabric.handle(Request::Flush(TenantRef { tenant }));
    }
    let daemon = journaled_daemon(fabric, &path, 1);
    let addr = daemon.local_addr().unwrap();

    let pointing = AtomicBool::new(false);
    let compacted = AtomicBool::new(false);
    let (window, answered) = std::thread::scope(|scope| {
        let points = scope.spawn(|| {
            let mut c = client(addr);
            let mut at = Vec::new();
            while !compacted.load(Ordering::Acquire) {
                let resp = c
                    .call(&Request::Point(PointQuery {
                        tenant: 2,
                        item: at.len() as u64 % (1 << 17),
                    }))
                    .unwrap();
                assert!(matches!(resp, Response::Value(_)), "{resp:?}");
                at.push(Instant::now());
                pointing.store(true, Ordering::Release);
            }
            at
        });
        while !pointing.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        let mut c = client(addr);
        // Connected before the clock starts: the window is the advance
        // and its compaction alone.
        assert_eq!(c.call(&Request::Ping).unwrap(), Response::Pong);
        let start = Instant::now();
        let resp = c
            .call(&Request::AdvanceInterval(TenantRef { tenant: 1 }))
            .unwrap();
        let end = Instant::now();
        compacted.store(true, Ordering::Release);
        assert!(matches!(resp, Response::Sealed(_)), "{resp:?}");
        let at = points.join().unwrap();
        let answered = at.iter().filter(|&&t| t > start && t < end).count();
        (end - start, answered)
    });
    assert!(
        answered >= 100,
        "only {answered} points answered during a {window:?} compaction"
    );
    let journal = read_journal(&path).unwrap();
    let checkpoints = journal
        .iter()
        .filter(|r| matches!(r, JournalRecord::Checkpoint(_)))
        .count();
    assert_eq!(checkpoints, 5, "the advance compacted every tenant");
    daemon.shutdown().unwrap();
    std::fs::remove_file(&path).unwrap();
}
