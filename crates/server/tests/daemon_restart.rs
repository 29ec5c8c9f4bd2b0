//! Kill -9 recovery of the `bas-serverd` binary: a daemon killed
//! without any shutdown courtesy restarts on the same journal with
//! every tenant's spec, placement and interval position, and serves
//! fresh streams bit-for-bit like a never-killed fabric. After a clean
//! shutdown a restart also gets every tenant's counters back, a
//! seed-rotating tenant's generations included.
//!
//! This suite lives in the `bas-server` package so Cargo builds the
//! daemon binary before it runs and hands the path over as
//! `CARGO_BIN_EXE_bas-serverd`.

use bas_hash::HashKind;
use bas_server::wire::{IngestFrame, PointQuery, StatsReply, TenantRef};
use bas_server::{
    write_frame, Client, Fabric, FabricConfig, JournalRecord, Request, Response, RetryPolicy,
    ServingMode, TenantSpec, WindowLen, MAX_FRAME_BYTES,
};
use bas_sketch::SketchParams;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const N: u64 = 4_096;

/// The template `bas-serverd` builds when no `--hash` flag is given
/// (one-hash rows) at the geometry the daemon is started with below.
fn serverd_config() -> FabricConfig {
    FabricConfig::new(SketchParams::new(N, 128, 5).with_hash_kind(HashKind::OneHash))
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

struct Serverd {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

fn spawn_serverd(journal: &std::path::Path) -> Serverd {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_bas-serverd"))
        .args([
            "--listen",
            "127.0.0.1:0",
            "--shard",
            "0:1.0",
            "--shard",
            "1:1.0",
            "--journal",
        ])
        .arg(journal)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .expect("spawn bas-serverd");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read listening line");
    let addr = line
        .trim()
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .expect("bound address");
    Serverd { child, addr }
}

fn shutdown(mut child: std::process::Child) {
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"shutdown\n")
        .unwrap();
    let status = child.wait().expect("clean exit");
    assert!(status.success());
}

/// The rotating tenant's window answers, as bits, and its `Stats`.
fn rotating_answers(
    client: &mut Client<TcpStream, impl FnMut() -> std::io::Result<TcpStream>>,
) -> (Vec<u64>, StatsReply) {
    let tenant = 4;
    let window = (0..N)
        .step_by(131)
        .map(|item| {
            let req = Request::WindowPoint(PointQuery { tenant, item });
            expect_value(client.call(&req).unwrap()).to_bits()
        })
        .collect();
    match client.call(&Request::Stats(TenantRef { tenant })).unwrap() {
        Response::Stats(s) => (window, s),
        other => panic!("{other:?}"),
    }
}

/// Kill -9 and restart: the daemon process is killed without any
/// shutdown courtesy; a restart on the same journal recovers every
/// tenant's spec, placement, and interval position, and the recovered
/// topology serves fresh streams identically to a never-killed fabric
/// with the same history. A clean shutdown then checkpoints every
/// tenant, and a third life answers as the second did.
#[test]
fn kill_and_restart_recovers_tenant_topology() {
    let journal =
        std::env::temp_dir().join(format!("bas-daemon-kill-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let specs = [
        TenantSpec::frequency(1, 101),
        TenantSpec::frequency(2, 202).with_interval_quota(50_000),
        TenantSpec::range_sum(3, 303),
        TenantSpec::frequency(4, 404).with_mode(ServingMode::Rotating(WindowLen { intervals: 3 })),
    ];

    // ---- first life: register, ingest, advance, then SIGKILL ----
    let first = spawn_serverd(&journal);
    {
        let addr = first.addr;
        let mut client = tcp_client(addr);
        for spec in specs {
            match client.call(&Request::Register(spec)).unwrap() {
                Response::Installed(_) => {}
                other => panic!("{other:?}"),
            }
        }
        client
            .call(&Request::Ingest(IngestFrame {
                tenant: 1,
                updates: stream(1, 500),
            }))
            .unwrap();
        client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 1 }))
            .unwrap();
        client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 1 }))
            .unwrap();
        client
            .call(&Request::AdvanceInterval(TenantRef { tenant: 2 }))
            .unwrap();
        client
            .call(&Request::Ingest(IngestFrame {
                tenant: 4,
                updates: stream(4, 500),
            }))
            .unwrap();
        for _ in 0..3 {
            client
                .call(&Request::AdvanceInterval(TenantRef { tenant: 4 }))
                .unwrap();
        }
    }
    let mut child = first.child;
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap");

    // ---- second life: same journal, fresh process ----
    let second = spawn_serverd(&journal);
    let addr = second.addr;
    let mut client = tcp_client(addr);

    // Topology recovered: same placement as a never-killed fabric,
    // same specs (duplicate registration answers tenant_exists), same
    // interval positions.
    let mut reference = Fabric::new(serverd_config());
    reference.add_shard(0, 1.0).unwrap();
    reference.add_shard(1, 1.0).unwrap();
    for spec in specs {
        reference.register_tenant(spec).unwrap();
    }
    for (tenant, advances) in [(1u64, 2u64), (2, 1), (3, 0), (4, 3)] {
        match client.call(&Request::Stats(TenantRef { tenant })).unwrap() {
            Response::Stats(s) => {
                assert_eq!(
                    s.shard,
                    reference.shard_of(tenant).unwrap(),
                    "tenant {tenant}"
                );
                assert_eq!(s.interval, advances, "tenant {tenant}");
            }
            other => panic!("{other:?}"),
        }
        match client
            .call(&Request::Register(specs[tenant as usize - 1]))
            .unwrap()
        {
            Response::Error(e) => assert_eq!(e.code, "tenant_exists"),
            other => panic!("{other:?}"),
        }
    }

    // The recovered topology serves identically: feed both the
    // restarted daemon and a reference with the same history the same
    // fresh stream and compare bit-for-bit.
    for (tenant, advances) in [(1u64, 2u64), (2, 1), (3, 0), (4, 3)] {
        for _ in 0..advances {
            reference.handle(Request::AdvanceInterval(TenantRef { tenant }));
        }
        client
            .call(&Request::Ingest(IngestFrame {
                tenant,
                updates: stream(tenant + 10, 1_500),
            }))
            .unwrap();
        client.call(&Request::Flush(TenantRef { tenant })).unwrap();
        reference.handle(Request::Ingest(IngestFrame {
            tenant,
            updates: stream(tenant + 10, 1_500),
        }));
        reference.handle(Request::Flush(TenantRef { tenant }));
        for item in (0..N).step_by(131) {
            let wire = expect_value(
                client
                    .call(&Request::Point(PointQuery { tenant, item }))
                    .unwrap(),
            );
            let local = expect_value(reference.handle(Request::Point(PointQuery { tenant, item })));
            assert_eq!(
                wire.to_bits(),
                local.to_bits(),
                "tenant {tenant}, item {item}"
            );
        }
    }

    // The rotating tenant (interval 3, generations 1 and 2 empty)
    // closes interval 3 and takes more traffic, so its window holds
    // data in generation 3 and in the live interval 4.
    client
        .call(&Request::AdvanceInterval(TenantRef { tenant: 4 }))
        .unwrap();
    client
        .call(&Request::Ingest(IngestFrame {
            tenant: 4,
            updates: stream(40, 800),
        }))
        .unwrap();
    client
        .call(&Request::Flush(TenantRef { tenant: 4 }))
        .unwrap();
    let (window, stats) = rotating_answers(&mut client);
    assert_eq!(stats.interval, 4);
    assert!(window.iter().any(|&bits| f64::from_bits(bits) != 0.0));

    // Clean exit this time: `shutdown` over stdin, which seals every
    // open interval and compacts the journal into checkpoints.
    drop(client);
    shutdown(second.child);

    // ---- third life: the checkpoints bring the counters back ----
    // Shutdown sealed interval 4, so the window now spans the empty
    // live interval 5 and generations 3 and 4, where it spanned the
    // empty generation 2, generation 3 and the live interval 4: the
    // same updates, so the same answers, bit for bit. `Stats` moved on
    // by that one seal alone.
    let third = spawn_serverd(&journal);
    let mut client = tcp_client(third.addr);
    let (window_after, stats_after) = rotating_answers(&mut client);
    assert_eq!(window_after, window);
    assert_eq!(stats_after.mass.to_bits(), stats.mass.to_bits());
    assert_eq!(
        stats_after,
        StatsReply {
            interval: stats.interval + 1,
            admitted_in_interval: 0,
            ..stats
        }
    );
    drop(client);
    shutdown(third.child);
    std::fs::remove_file(&journal).ok();
}

/// A kill during an append can leave the journal ending inside its last
/// frame. The daemon still starts on it: recovery skips the torn frame,
/// the journal is cut back to its last whole frame, the cut bytes are
/// kept in `<journal>.torn`, and the tenants of the whole frames serve.
#[test]
fn a_torn_journal_tail_is_moved_aside_and_the_daemon_serves() {
    let journal =
        std::env::temp_dir().join(format!("bas-daemon-torn-{}.journal", std::process::id()));
    let mut sidecar = journal.clone().into_os_string();
    sidecar.push(".torn");
    let sidecar = std::path::PathBuf::from(sidecar);
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&sidecar);

    let first = spawn_serverd(&journal);
    match tcp_client(first.addr)
        .call(&Request::Register(TenantSpec::frequency(1, 101)))
        .unwrap()
    {
        Response::Installed(_) => {}
        other => panic!("{other:?}"),
    }
    let mut child = first.child;
    child.kill().expect("SIGKILL the daemon");
    child.wait().expect("reap");

    // An interval advance whose append stopped 3 bytes short.
    let whole = std::fs::read(&journal).unwrap();
    let mut frame = Vec::new();
    write_frame(
        &mut frame,
        &JournalRecord::IntervalAdvanced(TenantRef { tenant: 1 }),
    )
    .unwrap();
    let torn = &frame[..frame.len() - 3];
    std::fs::write(&journal, [&whole[..], torn].concat()).unwrap();

    let second = spawn_serverd(&journal);
    let mut client = tcp_client(second.addr);
    match client
        .call(&Request::Stats(TenantRef { tenant: 1 }))
        .unwrap()
    {
        Response::Stats(s) => assert_eq!(s.interval, 0),
        other => panic!("{other:?}"),
    }
    assert_eq!(std::fs::read(&journal).unwrap(), whole);
    assert_eq!(std::fs::read(&sidecar).unwrap(), torn);
    drop(client);
    shutdown(second.child);
    std::fs::remove_file(&journal).ok();
    std::fs::remove_file(&sidecar).ok();
}

/// A journal of JSON lines, as releases before the binary frames wrote
/// it, stops the boot: `bas-serverd` exits nonzero with stderr naming
/// the format, and leaves the journal's bytes as they were, with no
/// `<journal>.torn` sidecar beside it.
#[test]
fn a_json_line_journal_is_refused_at_boot_and_left_as_found() {
    let journal =
        std::env::temp_dir().join(format!("bas-daemon-json-{}.journal", std::process::id()));
    let mut sidecar = journal.clone().into_os_string();
    sidecar.push(".torn");
    let sidecar = std::path::PathBuf::from(sidecar);
    let _ = std::fs::remove_file(&sidecar);
    let line = b"{\"ShardAdded\":{\"shard\":0,\"weight\":1.0}}\n";
    std::fs::write(&journal, line).unwrap();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bas-serverd"))
        .args(["--listen", "127.0.0.1:0", "--shard", "0:1.0", "--journal"])
        .arg(&journal)
        .stdin(std::process::Stdio::null())
        .output()
        .expect("run bas-serverd");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.contains("JSON-lines journal"), "{stderr}");
    assert!(out.stdout.is_empty());
    assert_eq!(std::fs::read(&journal).unwrap(), line);
    assert!(!sidecar.exists());
    std::fs::remove_file(&journal).unwrap();
}
