//! `bas-serverd` — the deployable serving-fabric daemon.
//!
//! Binds the multi-tenant fabric to a real socket, optionally with a
//! durable tenant-spec journal, and serves until told to stop:
//!
//! ```text
//! bas-serverd --listen 127.0.0.1:4242 --shard 0:1.0 --shard 1:1.0 \
//!             --journal /var/lib/bas/fabric.journal
//! ```
//!
//! Lifecycle is driven over **stdin** (no signal-handling dependency):
//! the daemon serves until stdin reaches end-of-file or a line reading
//! `shutdown` arrives, then shuts down gracefully — stops accepting,
//! drains in-flight frames, seals every tenant's open interval, and
//! compacts the journal into checkpoints. A `kill -9` instead of a
//! clean shutdown is exactly the case the journal recovers from on the
//! next boot (topology + interval positions; counters from the last
//! checkpoint).
//!
//! On success the bound address is printed as `listening <addr>` on
//! stdout (with `--listen host:0`, the OS-assigned port included), so
//! wrappers can parse where to connect. Before that, stderr gets
//! `bas-serverd: simd_active: <bool>`, whether the batch kernels run
//! their AVX2 lanes on this CPU. A journal that ends inside its last
//! frame (an append cut short by a kill or a full disk) does not stop
//! the boot: recovery skips that frame, the journal is cut back to its
//! last whole frame, and stderr names the bytes cut and the
//! `<journal>.torn` file they were moved to.

use bas_hash::HashKind;
use bas_server::{persist, Daemon, DaemonConfig, Deadlines, Fabric, FabricConfig, Journal};
use bas_sketch::SketchParams;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "\
bas-serverd: serve the bias-aware-sketches multi-tenant fabric

usage: bas-serverd [--listen HOST:PORT | --unix PATH] [options]

transport (exactly one):
  --listen HOST:PORT   bind a TCP listener (PORT 0 = OS-assigned)
  --unix PATH          bind a unix-domain listener

options:
  --journal PATH       journal tenant topology to PATH; recover from
                       it at boot if it exists
  --shard ID:WEIGHT    add a shard (repeatable; skipped if the journal
                       already has it)
  --universe N         sketch universe size       (default 4096)
  --width W            sketch width (columns)     (default 128)
  --depth D            sketch depth (rows)        (default 5)
  --hash KIND          row-hash family: onehash | carter-wegman |
                       multiply-shift | tabulation (default onehash —
                       one digest per item, rows re-keyed from it, so
                       the batch kernels hoist the hash out of the row
                       loop; carter-wegman matches the paper analysis
                       and supports non-power-of-two widths)
  --read-ms MS         mid-frame read deadline    (default 10000)
  --write-ms MS        response write deadline    (default 10000)
  --idle-ms MS         between-frames idle cutoff (default 300000)
  --max-frame BYTES    per-frame byte cap         (default 16 MiB)
  --compact-records N  compact the journal once N records accumulate
                       since the last compaction (default: only at
                       shutdown)
  --compact-bytes N    compact once the journal file reaches N bytes

The daemon serves until stdin closes or a line `shutdown` arrives,
then drains, seals open intervals, and compacts the journal.";

struct Args {
    listen: Option<String>,
    unix: Option<String>,
    journal: Option<String>,
    shards: Vec<(u64, f64)>,
    universe: u64,
    width: usize,
    depth: usize,
    hash: HashKind,
    read_ms: u64,
    write_ms: u64,
    idle_ms: u64,
    max_frame: usize,
    compact_records: Option<u64>,
    compact_bytes: Option<u64>,
}

fn parse_hash(s: &str) -> Result<HashKind, String> {
    match s {
        "onehash" | "one-hash" => Ok(HashKind::OneHash),
        "carter-wegman" => Ok(HashKind::CarterWegman),
        "multiply-shift" => Ok(HashKind::MultiplyShift),
        "tabulation" => Ok(HashKind::Tabulation),
        other => Err(format!(
            "--hash wants onehash | carter-wegman | multiply-shift | tabulation, got {other:?}"
        )),
    }
}

fn parse_shard(s: &str) -> Result<(u64, f64), String> {
    let (id, weight) = s
        .split_once(':')
        .ok_or_else(|| format!("--shard wants ID:WEIGHT, got {s:?}"))?;
    let id = id.parse().map_err(|e| format!("shard id {id:?}: {e}"))?;
    let weight = weight
        .parse()
        .map_err(|e| format!("shard weight {weight:?}: {e}"))?;
    Ok((id, weight))
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        listen: None,
        unix: None,
        journal: None,
        shards: Vec::new(),
        universe: 4_096,
        width: 128,
        depth: 5,
        hash: HashKind::OneHash,
        read_ms: 10_000,
        write_ms: 10_000,
        idle_ms: 300_000,
        max_frame: bas_server::MAX_FRAME_BYTES,
        compact_records: None,
        compact_bytes: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} wants a value"))
        };
        match flag.as_str() {
            "--listen" => args.listen = Some(value()?),
            "--unix" => args.unix = Some(value()?),
            "--journal" => args.journal = Some(value()?),
            "--shard" => args.shards.push(parse_shard(&value()?)?),
            "--universe" => args.universe = value()?.parse().map_err(|e| format!("{e}"))?,
            "--width" => args.width = value()?.parse().map_err(|e| format!("{e}"))?,
            "--depth" => args.depth = value()?.parse().map_err(|e| format!("{e}"))?,
            "--hash" => args.hash = parse_hash(&value()?)?,
            "--read-ms" => args.read_ms = value()?.parse().map_err(|e| format!("{e}"))?,
            "--write-ms" => args.write_ms = value()?.parse().map_err(|e| format!("{e}"))?,
            "--idle-ms" => args.idle_ms = value()?.parse().map_err(|e| format!("{e}"))?,
            "--max-frame" => args.max_frame = value()?.parse().map_err(|e| format!("{e}"))?,
            "--compact-records" => {
                args.compact_records = Some(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--compact-bytes" => {
                args.compact_bytes = Some(value()?.parse().map_err(|e| format!("{e}"))?)
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    match (&args.listen, &args.unix) {
        (Some(_), Some(_)) => Err("pick one of --listen / --unix, not both".into()),
        (None, None) => Err(format!("a transport is required\n\n{USAGE}")),
        _ => Ok(args),
    }
}

fn deadline(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

fn run(args: Args) -> Result<(), String> {
    let params = SketchParams::new(args.universe, args.width, args.depth).with_hash_kind(args.hash);
    let config = FabricConfig::new(params);
    // Best-effort, like the shutdown line: a closed stderr is no reason
    // to refuse to serve.
    let mut log = std::io::stderr();
    let _ = writeln!(log, "bas-serverd: simd_active: {}", bas_hash::simd_active());

    // Recover topology from the journal (empty fabric on first boot),
    // then apply any --shard flags the journal does not know yet.
    let mut fabric = match &args.journal {
        Some(path) => persist::recover(path, config).map_err(|e| format!("recover: {e}"))?,
        None => Fabric::new(config),
    };
    let mut journal = args
        .journal
        .as_ref()
        .map(|p| Journal::open(p).map_err(|e| format!("journal: {e}")))
        .transpose()?;
    if let Some(journal) = journal.as_ref().filter(|j| j.torn_bytes() > 0) {
        let _ = writeln!(
            log,
            "bas-serverd: journal: cut off a torn last frame of {} bytes, kept in {}",
            journal.torn_bytes(),
            journal.torn_path().display()
        );
    }
    for &(id, weight) in &args.shards {
        if fabric.ring().contains(id) {
            continue;
        }
        fabric
            .add_shard(id, weight)
            .map_err(|e| format!("--shard {id}: {}: {}", e.code, e.detail))?;
        if let Some(journal) = &mut journal {
            journal
                .append(&bas_server::JournalRecord::ShardAdded(
                    bas_server::persist::ShardRecord { shard: id, weight },
                ))
                .map_err(|e| format!("journal: {e}"))?;
        }
    }

    let daemon_config = DaemonConfig::new()
        .with_max_frame_bytes(args.max_frame)
        .with_compact_after_records(args.compact_records)
        .with_compact_after_bytes(args.compact_bytes)
        .with_deadlines(
            Deadlines::new()
                .with_read(deadline(args.read_ms))
                .with_write(deadline(args.write_ms))
                .with_idle(deadline(args.idle_ms)),
        );
    let daemon = if let Some(addr) = &args.listen {
        Daemon::bind_tcp(addr.as_str(), fabric, journal, daemon_config)
    } else {
        Daemon::bind_unix(
            args.unix.as_deref().unwrap(),
            fabric,
            journal,
            daemon_config,
        )
    }
    .map_err(|e| format!("bind: {e}"))?;

    let bound = daemon
        .local_addr()
        .map(|a| a.to_string())
        .or(args.unix.clone())
        .unwrap_or_default();
    println!("listening {bound}");
    std::io::stdout().flush().ok();

    // Serve until stdin closes or says `shutdown`.
    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        match line {
            Ok(l) if l.trim() == "shutdown" => break,
            Ok(_) => {}
            Err(_) => break,
        }
    }

    let report = daemon.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    // A supervisor may have closed our stdout already; the report line
    // is best-effort, not a reason to exit nonzero.
    let _ = writeln!(
        std::io::stdout(),
        "shutdown clean: {} connections, {} frames, {} intervals sealed",
        report.connections,
        report.frames,
        report.sealed.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bas-serverd: {msg}");
            ExitCode::FAILURE
        }
    }
}
