//! Kill -9 recovery of the `bas-serverd` binary: a daemon killed
//! without any shutdown courtesy restarts on the same journal with
//! every tenant's spec, placement and interval position, and serves
//! fresh streams bit-for-bit like a never-killed fabric.
//!
//! This suite lives in the `bas-server` package so Cargo builds the
//! daemon binary before it runs and hands the path over as
//! `CARGO_BIN_EXE_bas-serverd`.

use bas_hash::HashKind;
use bas_server::wire::{IngestFrame, PointQuery, TenantRef};
use bas_server::{
    Client, Fabric, FabricConfig, Request, Response, RetryPolicy, TenantSpec, MAX_FRAME_BYTES,
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

/// Kill -9 and restart: the daemon process is killed without any
/// shutdown courtesy; a restart on the same journal recovers every
/// tenant's spec, placement, and interval position, and the recovered
/// topology serves fresh streams identically to a never-killed fabric
/// with the same history.
#[test]
fn kill_and_restart_recovers_tenant_topology() {
    let journal =
        std::env::temp_dir().join(format!("bas-daemon-kill-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let specs = [
        TenantSpec::frequency(1, 101),
        TenantSpec::frequency(2, 202).with_interval_quota(50_000),
        TenantSpec::range_sum(3, 303),
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
    for (tenant, advances) in [(1u64, 2u64), (2, 1), (3, 0)] {
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
    for (tenant, advances) in [(1u64, 2u64), (2, 1), (3, 0)] {
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

    // Clean exit this time: `shutdown` over stdin.
    drop(client);
    let mut child = second.child;
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"shutdown\n")
        .unwrap();
    let status = child.wait().expect("clean exit");
    assert!(status.success());
    std::fs::remove_file(&journal).ok();
}
