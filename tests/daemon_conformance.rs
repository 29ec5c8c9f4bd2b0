//! Daemon conformance: the socket front end must add **transport,
//! not semantics** — answers over loopback TCP (and unix sockets) are
//! bit-for-bit the answers of the same fabric driven in-process, under
//! concurrency, hostile disconnects, deadline expiry, graceful
//! shutdown, and journal recovery. (Kill -9 of the real `bas-serverd`
//! binary lives in `crates/server/tests/daemon_restart.rs`.)
//!
//! These tests exercise real sockets with real threads; CI runs them
//! under `--release` like the other serving suites.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::listener::AnyStream;
use bias_aware_sketches::server::wire::{IngestFrame, PointQuery, TenantRef, MAX_INGEST_UPDATES};
use bias_aware_sketches::server::{
    read_frame, read_journal, recover, write_frame, Client, Daemon, DaemonConfig, Deadlines,
    Fabric, FabricConfig, IngestBatcher, Journal, Request, Response, RetryError, RetryPolicy,
    TenantSpec, MAX_FRAME_BYTES,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const N: u64 = 4_096;

fn params() -> SketchParams {
    SketchParams::new(N, 128, 5)
}

fn config() -> FabricConfig {
    FabricConfig::new(params())
}

/// Snappy deadlines for tests: 300 ms progress gaps, 10 s idle, and
/// 5 ms between-frames polls, so that connections notice shutdown
/// quickly (accepts never wait on the poll).
fn daemon_config() -> DaemonConfig {
    DaemonConfig::new()
        .with_poll_interval(Duration::from_millis(5))
        .with_deadlines(
            Deadlines::new()
                .with_read(Some(Duration::from_millis(300)))
                .with_write(Some(Duration::from_millis(300)))
                .with_idle(Some(Duration::from_secs(10))),
        )
}

/// A deterministic per-tenant stream of integer-valued updates.
fn stream(tenant: u64, len: usize) -> Vec<(u64, f64)> {
    let mut state = tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let item = (state >> 33) % N;
            let delta = ((state >> 11) % 5) as f64 + 1.0;
            (item, delta)
        })
        .collect()
}

fn expect_value(resp: Response) -> f64 {
    match resp {
        Response::Value(v) => v.value,
        other => panic!("expected a value, got {other:?}"),
    }
}

fn tcp_client(
    addr: std::net::SocketAddr,
) -> Client<TcpStream, impl FnMut() -> std::io::Result<TcpStream>> {
    Client::new(
        move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        RetryPolicy::new().with_seed(addr.port() as u64),
        MAX_FRAME_BYTES,
    )
}

/// Concurrent TCP clients — one thread per tenant, each registering,
/// streaming, and querying over its own connection — get answers
/// bit-for-bit equal to one in-process fabric fed the same streams.
#[test]
fn concurrent_tcp_clients_match_in_process_fabric_bit_for_bit() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    let tenants: Vec<u64> = (1..=6).collect();
    let handles: Vec<_> = tenants
        .iter()
        .map(|&tenant| {
            std::thread::spawn(move || {
                let mut client = tcp_client(addr);
                let spec = TenantSpec::frequency(tenant, tenant * 100 + 1);
                match client.call(&Request::Register(spec)).unwrap() {
                    Response::Installed(_) => {}
                    other => panic!("{other:?}"),
                }
                client
                    .call(&Request::Ingest(IngestFrame {
                        tenant,
                        updates: stream(tenant, 3_000),
                    }))
                    .unwrap();
                client.call(&Request::Flush(TenantRef { tenant })).unwrap();
                let mut answers = Vec::new();
                for item in (0..N).step_by(97) {
                    answers.push(expect_value(
                        client
                            .call(&Request::Point(PointQuery { tenant, item }))
                            .unwrap(),
                    ));
                }
                (tenant, answers)
            })
        })
        .collect();
    let wire_answers: Vec<(u64, Vec<f64>)> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // The same tenants through one in-process fabric.
    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference.add_shard(1, 1.0).unwrap();
    for &tenant in &tenants {
        reference
            .register_tenant(TenantSpec::frequency(tenant, tenant * 100 + 1))
            .unwrap();
        reference.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant, 3_000),
        }));
        reference.handle(Request::Flush(TenantRef { tenant }));
    }
    for (tenant, answers) in wire_answers {
        for (i, item) in (0..N).step_by(97).enumerate() {
            let expected =
                expect_value(reference.handle(Request::Point(PointQuery { tenant, item })));
            assert_eq!(
                answers[i].to_bits(),
                expected.to_bits(),
                "tenant {tenant}, item {item}"
            );
        }
    }
    daemon.shutdown().unwrap();
}

/// The unix-socket transport serves through the identical loop: one
/// tenant registered and queried over a unix stream answers exactly
/// like the in-process dispatch on the same daemon.
#[test]
fn unix_socket_transport_matches_in_process_dispatch() {
    let sock = std::env::temp_dir().join(format!("bas-daemon-{}.sock", std::process::id()));
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_unix(&sock, fabric, None, daemon_config()).unwrap();

    let sock_path = sock.clone();
    let mut client = Client::new(
        move || std::os::unix::net::UnixStream::connect(&sock_path),
        RetryPolicy::new(),
        MAX_FRAME_BYTES,
    );
    client
        .call(&Request::Register(TenantSpec::frequency(5, 55)))
        .unwrap();
    client
        .call(&Request::Ingest(IngestFrame {
            tenant: 5,
            updates: stream(5, 2_000),
        }))
        .unwrap();
    client
        .call(&Request::Flush(TenantRef { tenant: 5 }))
        .unwrap();
    let over_wire = expect_value(
        client
            .call(&Request::Point(PointQuery {
                tenant: 5,
                item: 11,
            }))
            .unwrap(),
    );
    let in_process = expect_value(daemon.fabric().handle(Request::Point(PointQuery {
        tenant: 5,
        item: 11,
    })));
    assert_eq!(over_wire.to_bits(), in_process.to_bits());
    drop(client);
    daemon.shutdown().unwrap();
    std::fs::remove_file(&sock).ok();
}

/// A connection that goes quiet beyond the idle deadline is closed by
/// the daemon — and the daemon keeps serving fresh connections.
#[test]
fn idle_connections_are_closed_at_the_deadline() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let config = daemon_config().with_deadlines(
        Deadlines::new()
            .with_read(Some(Duration::from_millis(200)))
            .with_write(Some(Duration::from_millis(200)))
            .with_idle(Some(Duration::from_millis(150))),
    );
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, config).unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut idle = TcpStream::connect(addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = [0u8; 1];
    // Say nothing: the daemon must hang up (EOF) rather than hold the
    // socket forever.
    match idle.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected EOF from idle cutoff, got {other:?}"),
    }

    // A fresh, active connection still serves.
    let mut client = tcp_client(addr);
    assert!(matches!(
        client.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    drop(client);
    daemon.shutdown().unwrap();
}

/// A peer that starts a frame and stalls mid-stream trips the read
/// deadline; a peer that disconnects mid-frame is dropped. Neither
/// disturbs other connections.
#[test]
fn mid_stream_stalls_and_disconnects_drop_only_that_connection() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    // A healthy tenant on its own connection.
    let mut healthy = tcp_client(addr);
    healthy
        .call(&Request::Register(TenantSpec::frequency(1, 10)))
        .unwrap();

    // Stall: declare a 1 KiB frame, send 3 bytes, go quiet. The read
    // deadline (300 ms) must close the connection.
    let mut staller = TcpStream::connect(addr).unwrap();
    staller.write_all(&1024u32.to_be_bytes()).unwrap();
    staller.write_all(b"{\"P").unwrap();
    staller.flush().unwrap();
    staller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match staller.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected EOF from read deadline, got {other:?}"),
    }

    // Disconnect: another peer drops mid-frame without waiting.
    let mut quitter = TcpStream::connect(addr).unwrap();
    quitter.write_all(&2048u32.to_be_bytes()).unwrap();
    quitter.write_all(b"{\"In").unwrap();
    drop(quitter);

    // The healthy connection is untouched.
    std::thread::sleep(Duration::from_millis(50));
    assert!(matches!(
        healthy.call(&Request::Ping).unwrap(),
        Response::Pong
    ));
    drop(healthy);
    let report = daemon.shutdown().unwrap();
    assert!(report.connections >= 3);
}

/// Graceful shutdown drains: a request whose bytes are already on the
/// wire when shutdown begins still gets its response, the quiesce
/// seals every tenant's open interval, and the report says so.
#[test]
fn graceful_shutdown_drains_in_flight_frames_and_seals_intervals() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(9, 99))
        .unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut stream_conn = TcpStream::connect(addr).unwrap();
    let req = Request::Ingest(IngestFrame {
        tenant: 9,
        updates: stream(9, 1_000),
    });
    write_frame(&mut stream_conn, &req).unwrap();
    stream_conn.flush().unwrap();
    // Give the connection thread time to see the bytes, then shut
    // down while the client has not yet read its response.
    std::thread::sleep(Duration::from_millis(50));
    let reader = std::thread::spawn(move || {
        stream_conn
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        read_frame::<_, Response>(&mut stream_conn, MAX_FRAME_BYTES)
    });
    let report = daemon.shutdown().unwrap();
    let drained = reader.join().unwrap().unwrap();
    assert!(
        matches!(drained, Some(Response::Admitted(_))),
        "in-flight ingest was not drained: {drained:?}"
    );
    assert_eq!(report.frames, 1);
    assert_eq!(report.sealed, vec![(9, 0)]); // interval 0 sealed at quiesce
                                             // The recovered fabric reflects the drained ingest.
    let fabric = report.fabric;
    match fabric.handle(Request::Stats(TenantRef { tenant: 9 })) {
        Response::Stats(s) => {
            assert_eq!(s.applied, 1_000);
            assert_eq!(s.interval, 1);
        }
        other => panic!("{other:?}"),
    }
}

/// The client-side [`IngestBatcher`] coalesces a live stream into
/// `max_batch`-sized ingest frames: every update lands (including the
/// partial tail at `finish`), backpressure is absorbed by the
/// flush-and-resend step, and the served sketch is bit-for-bit the
/// sketch of the same stream fed frame-per-chunk.
#[test]
fn ingest_batcher_ships_full_frames_and_absorbs_backpressure() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = tcp_client(addr);

    // A deliberately tight queue (1 000) under a 640-update batch:
    // a second in-flight batch overflows it, so the batcher must take
    // the Busy → Flush → resend path to get everything admitted.
    let spec = TenantSpec::frequency(8, 88).with_queue_capacity(1_000);
    match client.call(&Request::Register(spec)).unwrap() {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    let updates = stream(8, 10_000);
    let mut batcher = IngestBatcher::new(8, 640);
    let mut shipped = 0usize;
    for chunk in updates.chunks(97) {
        for resp in batcher.extend(&mut client, chunk).unwrap() {
            match resp {
                Response::Admitted(_) => shipped += 1,
                other => panic!("batch not admitted: {other:?}"),
            }
        }
    }
    match batcher.finish(&mut client).unwrap() {
        Some(Response::Admitted(_)) => shipped += 1,
        other => panic!("tail not admitted: {other:?}"),
    }
    assert_eq!(shipped, updates.len().div_ceil(640));
    assert_eq!(batcher.pending(), 0);
    client
        .call(&Request::Flush(TenantRef { tenant: 8 }))
        .unwrap();

    // Reference: the same stream frame-per-chunk into an in-process
    // fabric with an open queue.
    let mut reference = Fabric::new(config());
    reference.add_shard(0, 1.0).unwrap();
    reference
        .register_tenant(TenantSpec::frequency(8, 88))
        .unwrap();
    for chunk in updates.chunks(97) {
        reference.handle(Request::Ingest(IngestFrame {
            tenant: 8,
            updates: chunk.to_vec(),
        }));
    }
    reference.handle(Request::Flush(TenantRef { tenant: 8 }));
    for item in (0..N).step_by(89) {
        let wire = expect_value(
            client
                .call(&Request::Point(PointQuery { tenant: 8, item }))
                .unwrap(),
        );
        let local = expect_value(reference.handle(Request::Point(PointQuery { tenant: 8, item })));
        assert_eq!(wire.to_bits(), local.to_bits(), "item {item}");
    }
    drop(client);
    daemon.shutdown().unwrap();
}

/// A failed exchange hands the batch back: after a `RetryError` the
/// batcher still holds every buffered update, and they ship once the
/// daemon is reachable.
#[test]
fn ingest_batcher_keeps_its_batch_when_a_call_fails() {
    /// A stream whose every read and write fails, as after a reset.
    struct Reset;
    impl Read for Reset {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::ConnectionReset.into())
        }
    }
    impl Write for Reset {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::ConnectionReset.into())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let mut broken = Client::new(
        || Ok(Reset),
        RetryPolicy::new()
            .with_max_attempts(2)
            .with_base_delay(Duration::ZERO),
        MAX_FRAME_BYTES,
    );
    let updates = stream(5, 1_700);
    let mut batcher = IngestBatcher::new(5, 1_000);
    // A full batch fails to ship: the 1 000 updates it took stay put.
    match batcher.extend(&mut broken, &updates) {
        Err(RetryError::Exhausted { attempts: 2, .. }) => {}
        other => panic!("expected exhausted retries, got {other:?}"),
    }
    assert_eq!(batcher.pending(), 1_000);
    // `finish` fails the same way and leaves pending() as is.
    match batcher.finish(&mut broken) {
        Err(RetryError::Exhausted { .. }) => {}
        other => panic!("expected exhausted retries, got {other:?}"),
    }
    assert_eq!(batcher.pending(), 1_000);

    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(5, 55))
        .unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let mut client = tcp_client(daemon.local_addr().unwrap());
    assert!(batcher
        .extend(&mut client, &updates[1_000..])
        .unwrap()
        .iter()
        .all(|r| matches!(r, Response::Admitted(_))));
    match batcher.finish(&mut client).unwrap() {
        Some(Response::Admitted(receipt)) => assert_eq!(receipt.pending, 1_700),
        other => panic!("tail not admitted: {other:?}"),
    }
    assert_eq!(batcher.pending(), 0);
    drop(client);
    daemon.shutdown().unwrap();
}

/// A `max_batch` above the frame cap behaves as the cap: the batcher
/// ships the largest ingest frame that fits `MAX_FRAME_BYTES`, and the
/// daemon admits it.
#[test]
fn ingest_batcher_clamps_max_batch_to_the_frame_cap() {
    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    fabric
        .register_tenant(TenantSpec::frequency(6, 66))
        .unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", fabric, None, daemon_config()).unwrap();
    let mut client = tcp_client(daemon.local_addr().unwrap());

    let updates = stream(6, MAX_INGEST_UPDATES + 1);
    let mut batcher = IngestBatcher::new(6, usize::MAX);
    match batcher.extend(&mut client, &updates).unwrap().as_slice() {
        [Response::Admitted(receipt)] => assert_eq!(receipt.pending, MAX_INGEST_UPDATES as u64),
        other => panic!("expected one admitted frame, got {other:?}"),
    }
    assert_eq!(batcher.pending(), 1);
    drop(client);
    daemon.shutdown().unwrap();
}

/// Periodic compaction: with a record threshold configured, the
/// serving path itself rewrites the journal as a snapshot — the file
/// stays bounded while the daemon runs, and a copy taken mid-flight
/// (exactly what a crash would leave) recovers the full topology,
/// interval positions, and checkpointed counters.
#[test]
fn journal_compacts_at_the_record_threshold_while_serving() {
    let journal_path =
        std::env::temp_dir().join(format!("bas-daemon-compact-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);
    let journal = Journal::open(&journal_path).unwrap();

    let mut fabric = Fabric::new(config());
    fabric.add_shard(0, 1.0).unwrap();
    let daemon = Daemon::bind_tcp(
        "127.0.0.1:0",
        fabric,
        Some(journal),
        daemon_config().with_compact_after_records(Some(3)),
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();

    let mut client = tcp_client(addr);
    let spec = TenantSpec::frequency(6, 66);
    match client.call(&Request::Register(spec)).unwrap() {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    client
        .call(&Request::Ingest(IngestFrame {
            tenant: 6,
            updates: stream(6, 800),
        }))
        .unwrap();
    client
        .call(&Request::Flush(TenantRef { tenant: 6 }))
        .unwrap();
    let advances = 12u64;
    for _ in 0..advances {
        client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 6 }))
            .unwrap();
    }

    // Without compaction the journal would hold 13 appended records;
    // the threshold keeps it at snapshot + a short tail.
    let on_disk = read_journal(&journal_path).unwrap();
    let records = on_disk.len();
    assert!(
        records <= 5,
        "journal not compacted: {records} records on disk"
    );

    // A mid-flight copy (what kill -9 would leave) recovers tenant,
    // interval position, and the checkpointed counters bit-for-bit.
    let copy = journal_path.with_extension("copy.jsonl");
    std::fs::copy(&journal_path, &copy).unwrap();
    let recovered = recover(&copy, config()).unwrap();
    assert_eq!(recovered.tenant_spec(6), Some(spec));
    match recovered.handle(Request::Stats(TenantRef { tenant: 6 })) {
        Response::Stats(s) => {
            assert_eq!(s.interval, advances);
            assert_eq!(s.applied, 800);
        }
        other => panic!("{other:?}"),
    }
    for item in (0..N).step_by(173) {
        let live = expect_value(
            client
                .call(&Request::Point(PointQuery { tenant: 6, item }))
                .unwrap(),
        );
        let replayed =
            expect_value(recovered.handle(Request::Point(PointQuery { tenant: 6, item })));
        assert_eq!(live.to_bits(), replayed.to_bits(), "item {item}");
    }

    drop(client);
    daemon.shutdown().unwrap();
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&copy).ok();
}

/// Where a test client reaches a daemon.
#[derive(Debug, Clone)]
enum Endpoint {
    Tcp(SocketAddr),
    Unix(PathBuf),
}

impl Endpoint {
    /// A fresh connection whose reads give up after 10 s, so that a
    /// reply that never comes fails a test rather than hangs it.
    fn connect(&self) -> std::io::Result<AnyStream> {
        let limit = Some(Duration::from_secs(10));
        Ok(match self {
            Self::Tcp(addr) => {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_read_timeout(limit)?;
                AnyStream::Tcp(s)
            }
            Self::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(limit)?;
                AnyStream::Unix(s)
            }
        })
    }
}

/// Runs `check` on each of three daemons: TCP bound to a loopback
/// address, TCP bound to the unspecified address (shutdown must wake it
/// through loopback), and a unix socket. Each polls between frames
/// only every 2 s and has idled 100 ms when `check` starts, so a new
/// connection or a shutdown that waited on the poll would show.
fn on_slow_poll_daemons(tag: &str, check: impl Fn(&str, Daemon, Endpoint)) {
    let slow = DaemonConfig::new().with_poll_interval(Duration::from_secs(2));
    let fabric = || {
        let mut fabric = Fabric::new(config());
        fabric.add_shard(0, 1.0).unwrap();
        fabric
    };
    for bind in ["127.0.0.1:0", "0.0.0.0:0", "unix"] {
        let (daemon, endpoint, sock) = match bind {
            "unix" => {
                let sock = std::env::temp_dir()
                    .join(format!("bas-slow-poll-{tag}-{}.sock", std::process::id()));
                let daemon = Daemon::bind_unix(&sock, fabric(), None, slow.clone()).unwrap();
                (daemon, Endpoint::Unix(sock.clone()), Some(sock))
            }
            tcp => {
                let daemon = Daemon::bind_tcp(tcp, fabric(), None, slow.clone()).unwrap();
                let port = daemon.local_addr().unwrap().port();
                let loopback = SocketAddr::from(([127, 0, 0, 1], port));
                (daemon, Endpoint::Tcp(loopback), None)
            }
        };
        std::thread::sleep(Duration::from_millis(100));
        check(bind, daemon, endpoint);
        if let Some(sock) = sock {
            std::fs::remove_file(sock).ok();
        }
    }
}

/// A fresh connection's first request is read the moment it arrives:
/// its `Ping` is answered in far less than one 2-s poll.
#[test]
fn a_new_connection_is_answered_without_waiting_for_a_poll() {
    on_slow_poll_daemons("first-reply", |bind, daemon, endpoint| {
        let start = Instant::now();
        let mut conn = endpoint.connect().unwrap();
        write_frame(&mut conn, &Request::Ping).unwrap();
        let reply = read_frame::<_, Response>(&mut conn, MAX_FRAME_BYTES).unwrap();
        let took = start.elapsed();
        drop(conn);
        assert_eq!(reply, Some(Response::Pong), "{bind}");
        assert!(
            took < Duration::from_millis(500),
            "{bind}: first reply took {took:?}"
        );
        let report = daemon.shutdown().unwrap();
        assert_eq!(report.connections, 1, "{bind}");
        assert_eq!(report.frames, 1, "{bind}");
    });
}

/// An idle daemon's shutdown joins its accept thread at once, and the
/// connection that woke it is not counted as one.
#[test]
fn an_idle_daemon_shuts_down_without_waiting_for_a_poll() {
    on_slow_poll_daemons("idle-shutdown", |bind, daemon, _| {
        let start = Instant::now();
        let report = daemon.shutdown().unwrap();
        let took = start.elapsed();
        assert!(
            took < Duration::from_millis(500),
            "{bind}: shutdown took {took:?}"
        );
        assert_eq!(report.connections, 0, "{bind}");
        assert_eq!(report.frames, 0, "{bind}");
    });
}

/// Shutdown while a client connects, pings and closes in a loop (one
/// connection at a time): shutdown returns with the fabric, which it
/// can only unwrap once every daemon thread has let it go, and the
/// report counts no connection the client did not make.
#[test]
fn shutdown_under_a_connect_loop_joins_every_thread() {
    on_slow_poll_daemons("connect-loop", |bind, daemon, endpoint| {
        let stop = Arc::new(AtomicBool::new(false));
        let connected = Arc::new(AtomicU64::new(0));
        let answered = Arc::new(AtomicU64::new(0));
        let client = {
            let (stop, connected, answered) = (stop.clone(), connected.clone(), answered.clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let Ok(mut conn) = endpoint.connect() else {
                        // Refused once the listener is gone.
                        std::thread::sleep(Duration::from_millis(1));
                        continue;
                    };
                    connected.fetch_add(1, Ordering::Relaxed);
                    let pinged = write_frame(&mut conn, &Request::Ping).is_ok()
                        && matches!(
                            read_frame::<_, Response>(&mut conn, MAX_FRAME_BYTES),
                            Ok(Some(Response::Pong))
                        );
                    if pinged {
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while answered.load(Ordering::Relaxed) < 20 {
            assert!(
                Instant::now() < deadline,
                "{bind}: fewer than 20 pongs in 10 s"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let report = daemon.shutdown().unwrap();
        stop.store(true, Ordering::Release);
        client.join().unwrap();
        let connected = connected.load(Ordering::Relaxed);
        let answered = answered.load(Ordering::Relaxed);
        assert!(
            answered <= report.connections && report.connections <= connected,
            "{bind}: {answered} answered, {} counted, {connected} connected",
            report.connections
        );
    });
}
