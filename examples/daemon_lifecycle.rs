//! Daemon lifecycle end to end: boot `Daemon` on a loopback TCP
//! socket with a journal, register tenants and stream telemetry
//! through a reconnecting [`Client`], shut down gracefully, then
//! recover a second daemon from the journal and show it answers
//! bit-for-bit.
//!
//! ```text
//! cargo run --example daemon_lifecycle
//! ```

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{IngestFrame, PointQuery, TenantRef};
use bias_aware_sketches::server::{
    persist, Client, Daemon, DaemonConfig, Fabric, FabricConfig, Journal, Request, Response,
    RetryPolicy, TenantSpec, MAX_FRAME_BYTES,
};
use std::net::TcpStream;

fn expect_value(resp: Response) -> f64 {
    match resp {
        Response::Value(v) => v.value,
        other => panic!("expected a value, got {other:?}"),
    }
}

fn main() {
    let params = SketchParams::new(4_096, 128, 5);
    let journal_path =
        std::env::temp_dir().join(format!("bas-daemon-example-{}.journal", std::process::id()));
    let _ = std::fs::remove_file(&journal_path);

    // ---- boot a daemon on an OS-assigned port ----
    let mut fabric = Fabric::new(FabricConfig::new(params.clone()));
    fabric.add_shard(0, 1.0).unwrap();
    fabric.add_shard(1, 1.0).unwrap();
    let journal = Journal::open(&journal_path).unwrap();
    let daemon =
        Daemon::bind_tcp("127.0.0.1:0", fabric, Some(journal), DaemonConfig::new()).unwrap();
    let addr = daemon.local_addr().unwrap();
    println!("daemon listening on {addr}");

    // ---- a reconnecting client with bounded retries ----
    let mut client = Client::new(
        move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        RetryPolicy::new().with_seed(7),
        MAX_FRAME_BYTES,
    );

    // Register two tenants over the wire and stream updates.
    for spec in [TenantSpec::frequency(1, 101), TenantSpec::frequency(2, 202)] {
        match client.call(&Request::Register(spec)).unwrap() {
            Response::Installed(r) => println!("tenant {} on shard {}", r.tenant, r.shard),
            other => panic!("{other:?}"),
        }
    }
    for tenant in [1u64, 2] {
        let updates: Vec<(u64, f64)> = (0..2_000u64)
            .map(|i| ((i * 17 + tenant * 29) % 4_096, 1.0 + (i % 3) as f64))
            .collect();
        client
            .call(&Request::Ingest(IngestFrame { tenant, updates }))
            .unwrap();
        client.call(&Request::Flush(TenantRef { tenant })).unwrap();
    }
    let before = expect_value(
        client
            .call(&Request::Point(PointQuery {
                tenant: 1,
                item: 17,
            }))
            .unwrap(),
    );
    println!("tenant 1, item 17 ≈ {before}");

    // ---- graceful shutdown: drain, seal, checkpoint ----
    drop(client);
    let report = daemon.shutdown().unwrap();
    println!(
        "shutdown: {} connections, {} frames, {} intervals sealed",
        report.connections,
        report.frames,
        report.sealed.len()
    );

    // ---- recover a fresh daemon from the journal ----
    let recovered = persist::recover(&journal_path, FabricConfig::new(params)).unwrap();
    let daemon = Daemon::bind_tcp("127.0.0.1:0", recovered, None, DaemonConfig::new()).unwrap();
    let addr = daemon.local_addr().unwrap();
    let mut client = Client::new(
        move || {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        },
        RetryPolicy::new(),
        MAX_FRAME_BYTES,
    );
    let after = expect_value(
        client
            .call(&Request::Point(PointQuery {
                tenant: 1,
                item: 17,
            }))
            .unwrap(),
    );
    println!("recovered tenant 1, item 17 ≈ {after}");
    assert_eq!(before.to_bits(), after.to_bits(), "recovery is bit-for-bit");

    drop(client);
    daemon.shutdown().unwrap();
    std::fs::remove_file(&journal_path).ok();
    println!("recovered answers are bit-for-bit identical ✓");
}
