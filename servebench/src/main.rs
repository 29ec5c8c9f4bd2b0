//! `servebench` — the serving-ladder benchmark.
//!
//! Launches the release `bas-serverd` on loopback TCP, drives it from
//! this one process through the repository's own `Client` and
//! `IngestBatcher` on one of its seeded workloads, checks the served
//! answers against in-process reference sketches, and prints one JSON
//! result line. Run through `servebench/run.sh`, which builds both
//! binaries first:
//!
//! ```text
//! bash servebench/run.sh --workload query-mix --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics of `BENCHMARK.json`;
//! `--trace 1` reruns the workload through a span-recording stream and
//! replays the same seeded requests down the serving ladder in process,
//! reporting the per-layer metrics.
//!
//! Every workload must report every end-to-end metric, so those are
//! named by role: `main` is the workload's most frequent request
//! (`Ingest` on ingest-firehose, `Point` otherwise) and `hold` the
//! requests that hold the fabric mutex longest (`Flush` on
//! ingest-firehose, heavy-hitter scans on query-mix). The metrics under
//! their per-workload names (`ingest_items_per_s`, `point_p99_us`, ...)
//! are printed on `detail` lines before the result. Latencies and rates
//! are taken in each tenth of the timed phase and the median over those
//! windows is reported, so a short stall of a shared host moves one
//! window only. Only medians are gated: on a shared host, throughput and
//! tail latencies follow the host's speed from run to run.

mod daemon;
mod drive;
mod gate;
mod ladder;
mod report;
mod stats;
mod trace;
mod workload;

use daemon::Daemon;
use drive::{ConnLog, Kind, Sample, Session};
use report::{check_details, metric, render, self_check, Manifest, Metric};
use stats::{median, quantile};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::{Duration, Instant};
use trace::{Span, Tracer};
use workload::{Inputs, Workload};

use bas_server::{Request, Response};

/// Set-ups per run before the timed phase (the last one serves it) and
/// after it; `setup_s` is the median of all of them. Spread over the
/// run, a short burst of host noise moves only some of them.
const SETUPS_BEFORE: usize = 4;
const SETUPS_AFTER: usize = 3;
/// Lead time for the load connections to open before the first timed
/// request.
const START_LEAD: Duration = Duration::from_millis(50);
/// A run that has not finished by now kills its daemon and fails.
const WATCHDOG: Duration = Duration::from_secs(170);
/// Pings in the traced run's round-trip probe.
const PINGS: usize = 2_000;
/// Windows a timed phase is cut into; each statistic is their median.
const WINDOWS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: PathBuf,
    work_dir: PathBuf,
    manifest: PathBuf,
    git_sha: String,
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} wants a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |name: &str| flags.remove(name).ok_or_else(|| format!("missing {name}"));
    let workload = take("--workload")?;
    let args = Args {
        workload: Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?,
        seed: take("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: take("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
        },
        daemon: take("--daemon")?.into(),
        work_dir: take("--work-dir")?.into(),
        manifest: take("--manifest")?.into(),
        git_sha: take("--git-sha")?,
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if !(1..=60).contains(&args.seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("servebench: still running after {WATCHDOG:?}; giving up");
        daemon::kill_all();
        std::process::exit(3);
    });
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A daemon after set-up: the daemon, the control session that
/// registered and preloaded it, what the preload sent, and the time
/// set-up took.
struct Ready {
    daemon: Daemon,
    control: Session,
    setup_log: ConnLog,
    took: Duration,
}

fn setup(args: &Args, inputs: &Inputs) -> Result<Ready, String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(&args.daemon)?;
    let mut control = Session::connect(daemon.addr(), BTreeMap::new(), None);
    for spec in &inputs.specs {
        match control.call(&Request::Register(*spec)) {
            Ok(Response::Installed(_)) => {}
            other => return Err(format!("register tenant {}: {other:?}", spec.tenant)),
        }
    }
    let mut setup_log = ConnLog::default();
    control.exec_all(&inputs.preload, inputs, &mut setup_log);
    if setup_log.failed > 0 {
        return Err(format!("preload failed: {:?}", setup_log.errors));
    }
    Ok(Ready {
        daemon,
        control,
        setup_log,
        took: t0.elapsed(),
    })
}

/// One set-up that serves nothing: its time, after a clean shutdown.
fn setup_only(args: &Args, inputs: &Inputs) -> Result<f64, String> {
    let r = setup(args, inputs)?;
    drop(r.control);
    r.daemon.shutdown()?;
    Ok(r.took.as_secs_f64())
}

/// What a traced connection recorded.
struct Traced {
    spans: Vec<Span>,
    phases: Vec<(Kind, [u64; 4])>,
    bytes_out: u64,
    bytes_in: u64,
    reconnects: u64,
    resends: u64,
}

fn take_trace(tracer: &RefCell<Tracer>) -> Traced {
    let mut t = tracer.borrow_mut();
    let phases = t.phase_totals();
    Traced {
        spans: std::mem::take(&mut t.spans),
        bytes_out: t.bytes_out,
        bytes_in: t.bytes_in,
        reconnects: t.connects.saturating_sub(1),
        resends: t.frames_out.saturating_sub(phases.len() as u64),
        phases,
    }
}

/// The timed phase: one thread per plan, each on a fresh connection to
/// `addr`, all starting together. With `traced`, each connection's
/// stream records on a tracer of its own.
fn run_phase(
    addr: SocketAddr,
    inputs: &Inputs,
    intervals: &BTreeMap<u64, u64>,
    seconds: u64,
    traced: bool,
) -> Result<Vec<(ConnLog, Option<Traced>)>, String> {
    let start = Instant::now() + START_LEAD;
    let deadline = start + Duration::from_secs(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .plans
            .iter()
            .map(|plan| {
                s.spawn(move || {
                    let tracer = traced.then(|| Rc::new(RefCell::new(Tracer::new(start))));
                    let mut session = Session::connect(addr, intervals.clone(), tracer.clone());
                    match session.call(&Request::Ping) {
                        Ok(Response::Pong) => {}
                        other => return Err(format!("load connection: {other:?}")),
                    }
                    if let Some(t) = &tracer {
                        // The connecting ping is not part of the phase.
                        let mut t = t.borrow_mut();
                        t.bytes_out = 0;
                        t.bytes_in = 0;
                        t.frames_out = 0;
                    }
                    let log = session.run(plan, inputs, start, deadline);
                    Ok((log, tracer.map(|t| take_trace(&t))))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect()
    })
}

/// The request kinds behind the role-named end-to-end metrics: each
/// workload's most frequent request ...
fn main_kinds(w: Workload) -> &'static [Kind] {
    match w {
        Workload::IngestFirehose => &[Kind::Ingest],
        Workload::QueryMix => &[Kind::Point],
    }
}

/// ... and the requests that hold the fabric mutex longest.
fn hold_kinds(w: Workload) -> &'static [Kind] {
    match w {
        Workload::IngestFirehose => &[Kind::Flush],
        Workload::QueryMix => &[Kind::Scan],
    }
}

const PINNED: [Kind; 2] = [Kind::WindowPoint, Kind::RangeSum];
const QUERIES: [Kind; 4] = [Kind::Point, Kind::WindowPoint, Kind::RangeSum, Kind::Scan];

/// A timed phase cut into `WINDOWS` equal windows. Each statistic is
/// taken per window and the median over the windows reported, so a
/// short stall of the host moves one window, not the result.
struct Windows<'a> {
    log: &'a ConnLog,
    span_ns: u64,
}

impl<'a> Windows<'a> {
    fn new(log: &'a ConnLog, seconds: u64) -> Self {
        Self {
            log,
            span_ns: seconds * 1_000_000_000 / WINDOWS as u64,
        }
    }

    /// Median over windows of `f` on each window's samples of `kinds`;
    /// `None` if no window had any.
    fn each(&self, kinds: &[Kind], f: impl Fn(&[Sample]) -> f64) -> Option<f64> {
        let mut windows = vec![Vec::new(); WINDOWS];
        for s in self.log.samples(kinds) {
            if let Some(w) = windows.get_mut((s.at / self.span_ns) as usize) {
                w.push(s);
            }
        }
        let values: Vec<f64> = windows
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| f(w))
            .collect();
        (!values.is_empty()).then(|| median(&values))
    }

    /// The `q`-quantile latency of `kinds`, in ns.
    fn latency(&self, kinds: &[Kind], q: f64) -> Option<f64> {
        self.each(kinds, |w| {
            quantile(&w.iter().map(|s| s.ns).collect::<Vec<_>>(), q)
        })
    }

    /// Updates admitted plus queries answered by `kinds`, per second
    /// from the first request of a window to the last answer.
    fn rate(&self, kinds: &[Kind]) -> Option<f64> {
        self.each(kinds, |w| {
            let first = w.iter().map(|s| s.at).min().unwrap_or(0);
            let last = w.iter().map(|s| s.at + s.ns).max().unwrap_or(0);
            w.iter().map(|s| s.served).sum::<u64>() as f64 * 1e9
                / last.saturating_sub(first).max(1) as f64
        })
    }
}

/// The `BENCHMARK.json` end-to-end metrics of one timed phase.
fn end_to_end(w: Workload, win: &Windows, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    let lat = |kinds, q| win.latency(kinds, q).unwrap_or(0.0);
    vec![
        metric("setup_s", "s", setup_s),
        metric("main_p50_us", "us", lat(main_kinds(w), 0.5) / 1e3),
        metric("hold_p50_ms", "ms", lat(hold_kinds(w), 0.5) / 1e6),
        metric("daemon_rss_mb", "MiB", rss_mib),
    ]
}

/// The end-to-end metrics under the names the workloads are specified
/// with, and the workloads that report each.
const DETAILS: [(&str, &[Workload]); 13] = [
    ("setup_s", &Workload::ALL),
    ("failed_frac", &Workload::ALL),
    ("daemon_rss_mb", &Workload::ALL),
    ("ingest_items_per_s", &[Workload::IngestFirehose]),
    ("ingest_frame_p50_ms", &[Workload::IngestFirehose]),
    ("ingest_frame_p99_ms", &[Workload::IngestFirehose]),
    ("flush_p99_ms", &[Workload::IngestFirehose]),
    ("query_qps", &[Workload::QueryMix]),
    ("point_p50_us", &[Workload::QueryMix]),
    ("point_p99_us", &[Workload::QueryMix]),
    ("pinned_p50_us", &[Workload::QueryMix]),
    ("pinned_p99_us", &[Workload::QueryMix]),
    ("scan_p50_ms", &[Workload::QueryMix]),
];

/// Every detail metric the phase has samples for.
fn details(win: &Windows, failed_frac: f64, setup_s: f64, rss_mib: f64) -> Vec<Metric> {
    let ms = |kinds, q| win.latency(kinds, q).map(|ns| ns / 1e6);
    let us = |kinds, q| win.latency(kinds, q).map(|ns| ns / 1e3);
    let measured = [
        ("ingest_items_per_s", "items/s", win.rate(&[Kind::Ingest])),
        ("ingest_frame_p50_ms", "ms", ms(&[Kind::Ingest], 0.5)),
        ("ingest_frame_p99_ms", "ms", ms(&[Kind::Ingest], 0.99)),
        ("flush_p99_ms", "ms", ms(&[Kind::Flush], 0.99)),
        ("query_qps", "queries/s", win.rate(&QUERIES)),
        ("point_p50_us", "us", us(&[Kind::Point], 0.5)),
        ("point_p99_us", "us", us(&[Kind::Point], 0.99)),
        ("pinned_p50_us", "us", us(&PINNED, 0.5)),
        ("pinned_p99_us", "us", us(&PINNED, 0.99)),
        ("scan_p50_ms", "ms", ms(&[Kind::Scan], 0.5)),
    ];
    let mut out = vec![
        metric("setup_s", "s", setup_s),
        metric("failed_frac", "ratio", failed_frac),
        metric("daemon_rss_mb", "MiB", rss_mib),
    ];
    out.extend(
        measured
            .into_iter()
            .filter_map(|(name, unit, v)| v.map(|v| metric(name, unit, v))),
    );
    out
}

/// The detail names a workload must report.
fn detail_names(w: Workload) -> Vec<&'static str> {
    DETAILS
        .iter()
        .filter(|(_, ws)| ws.contains(&w))
        .map(|(name, _)| *name)
        .collect()
}

fn print_details(w: Workload, details: &[Metric], log: &ConnLog) {
    for m in details {
        println!("detail {} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for (kind, samples) in &log.lat {
        let ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
        println!(
            "samples {} {} n {} p50_us {:.1} p99_us {:.1} max_us {:.1}",
            w.name(),
            kind.name(),
            ns.len(),
            quantile(&ns, 0.5) / 1e3,
            quantile(&ns, 0.99) / 1e3,
            quantile(&ns, 1.0) / 1e3
        );
    }
}

/// What the traced invocation adds: the socket-level per-layer metrics,
/// the requests it sent, and the daemon rung's ingest rate.
struct TraceReport {
    metrics: Vec<Metric>,
    log: ConnLog,
    daemon_rate: f64,
}

/// Part 1 of the traced run: the workload again over span-recording
/// streams, a ping probe, and the ladder frames over one connection.
fn traced_run(
    args: &Args,
    daemon: &Daemon,
    control: &mut Session,
    inputs: &Inputs,
    intervals: &mut BTreeMap<u64, u64>,
    untraced: &ConnLog,
) -> Result<TraceReport, String> {
    let mut log = ConnLog::default();
    let mut recorded = Vec::new();
    for (l, t) in run_phase(daemon.addr(), inputs, intervals, args.seconds, true)? {
        log.merge(l);
        recorded.extend(t);
    }
    intervals.clone_from(&log.intervals);
    let main = main_kinds(args.workload);
    let p50 = |l: &ConnLog| {
        Windows::new(l, args.seconds)
            .latency(main, 0.5)
            .unwrap_or(0.0)
    };
    // The tracer's cost: the traced rerun's median against the untraced
    // phase of the same run.
    let overhead = p50(&log) / p50(untraced) - 1.0;

    // Round trips of the smallest frame.
    let mut ping = Session::connect(daemon.addr(), BTreeMap::new(), None);
    let mut rtt = Vec::new();
    for _ in 0..PINGS {
        let t0 = Instant::now();
        match ping.call(&Request::Ping) {
            Ok(Response::Pong) => rtt.push(drive::nanos(t0.elapsed())),
            other => return Err(format!("ping: {other:?}")),
        }
    }
    drop(ping);

    // The daemon rung: the ladder frames over one connection.
    let t0 = Instant::now();
    let before = log.updates;
    control.exec_all(&ladder::ladder_ops(), inputs, &mut log);
    let daemon_rate = (log.updates - before) as f64 / t0.elapsed().as_secs_f64();

    let phases: Vec<[u64; 4]> = recorded
        .iter()
        .flat_map(|t| t.phases.iter().map(|(_, p)| *p))
        .collect();
    let p50_us = |i: usize| quantile(&phases.iter().map(|p| p[i]).collect::<Vec<_>>(), 0.5) / 1e3;
    let total = |f: fn(&Traced) -> u64| recorded.iter().map(f).sum::<u64>() as f64;
    let metrics = vec![
        metric("connection.client_encode_us", "us", p50_us(0)),
        metric("connection.server_wait_us", "us", p50_us(2)),
        metric("connection.client_decode_us", "us", p50_us(3)),
        metric("connection.ping_rtt_us", "us", quantile(&rtt, 0.5) / 1e3),
        metric("connection.bytes_out", "B", total(|t| t.bytes_out)),
        metric("connection.bytes_in", "B", total(|t| t.bytes_in)),
        metric("connection.reconnects", "count", total(|t| t.reconnects)),
        metric("connection.busy_resends", "count", total(|t| t.resends)),
        metric(
            "loadgen.late_p99_ms",
            "ms",
            quantile(&untraced.late, 0.99) / 1e6,
        ),
        metric("trace.overhead_frac", "ratio", overhead),
    ];
    for t in &recorded {
        let mut by_kind: BTreeMap<Kind, Vec<[u64; 4]>> = BTreeMap::new();
        for (k, p) in &t.phases {
            by_kind.entry(*k).or_default().push(*p);
        }
        for (k, ps) in by_kind {
            let c = |i: usize| quantile(&ps.iter().map(|p| p[i]).collect::<Vec<_>>(), 0.5) / 1e3;
            println!(
                "phases {} {} encode_us {} write_us {} wait_us {} decode_us {} n {}",
                args.workload.name(),
                k.name(),
                c(0),
                c(1),
                c(2),
                c(3),
                ps.len()
            );
        }
    }
    let spans: Vec<Vec<Span>> = recorded.into_iter().map(|t| t.spans).collect();
    let path = args
        .work_dir
        .join(format!("spans-{}-{}.csv", args.workload.name(), args.seed));
    std::fs::File::create(&path)
        .and_then(|f| trace::write_spans(f, &spans))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(TraceReport {
        metrics,
        log,
        daemon_rate,
    })
}

#[derive(serde::Serialize)]
struct Provenance {
    workload: String,
    why: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    git_sha: String,
    nproc: u64,
    profile: String,
    simd_active: bool,
}

fn run(args: &Args) -> Result<String, String> {
    let manifest_text = std::fs::read_to_string(&args.manifest)
        .map_err(|e| format!("{}: {e}", args.manifest.display()))?;
    let manifest = Manifest::parse(&manifest_text)?;
    let name = args.workload.name();
    let why = manifest
        .workloads
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, why)| why.clone())
        .ok_or_else(|| format!("BENCHMARK.json names no workload {name}"))?;
    let provenance = Provenance {
        workload: name.to_string(),
        why,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        git_sha: args.git_sha.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
        .into(),
        simd_active: bas_hash::simd_active(),
    };
    println!(
        "provenance {}",
        serde_json::to_string(&provenance).map_err(|e| e.to_string())?
    );
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;

    let mut inputs = Inputs::generate(args.workload, args.seed);
    if args.trace {
        let (spec, pool) = ladder::ladder_tenant(args.seed);
        inputs.specs.push(spec);
        inputs.pools.insert(spec.tenant, pool);
    }

    // Set up several times; the last one before the timed phase serves it.
    let mut took = Vec::new();
    for _ in 1..SETUPS_BEFORE {
        took.push(setup_only(args, &inputs)?);
    }
    let Ready {
        daemon,
        mut control,
        setup_log,
        took: last,
    } = setup(args, &inputs)?;
    took.push(last.as_secs_f64());

    let mut log = ConnLog::default();
    for (l, _) in run_phase(
        daemon.addr(),
        &inputs,
        &control.intervals,
        args.seconds,
        false,
    )? {
        log.merge(l);
    }
    let mut intervals = log.intervals.clone();

    let traced = match args.trace {
        true => Some(traced_run(
            args,
            &daemon,
            &mut control,
            &inputs,
            &mut intervals,
            &log,
        )?),
        false => None,
    };

    // Exactness gate over everything admitted since boot.
    let mut admitted = setup_log.admits;
    admitted.extend(log.admits.iter().copied());
    let mut attempted = log.attempted;
    let mut failed = log.failed;
    let mut errors = log.errors.clone();
    if let Some(t) = &traced {
        admitted.extend(t.log.admits.iter().copied());
        attempted += t.log.attempted;
        failed += t.log.failed;
        errors.extend(t.log.errors.iter().cloned());
    }
    let gate = gate::check(&mut control, &inputs, &admitted, &intervals);
    attempted += gate.probes;
    failed += gate.mismatches;
    for note in &gate.notes {
        eprintln!("servebench: exactness gate: {note}");
    }
    for e in &errors {
        eprintln!("servebench: request failed: {e}");
    }
    let rss = daemon.peak_rss_mib()?;
    drop(control);
    daemon.shutdown()?;
    for _ in 0..SETUPS_AFTER {
        took.push(setup_only(args, &inputs)?);
    }
    let setup_s = median(&took);

    let win = Windows::new(&log, args.seconds);
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let details = details(&win, failed_frac, setup_s, rss);
    check_details(&details, &detail_names(args.workload))?;
    print_details(args.workload, &details, &log);
    println!("setups {name} {took:?}");
    println!(
        "gate {} probes {} mismatches {}",
        name, gate.probes, gate.mismatches
    );

    let metrics = match traced {
        Some(t) => {
            let (mut metrics, fabric_rate) = ladder::replay(args.seed, &args.work_dir)?;
            metrics.extend(t.metrics);
            metrics.push(metric(
                "ladder.daemon_over_fabric",
                "ratio",
                t.daemon_rate / fabric_rate,
            ));
            metrics
        }
        None => end_to_end(args.workload, &win, setup_s, rss),
    };
    let correct = failed == 0;
    let line = render(correct, attempted, failed, &metrics);
    self_check(&line, manifest.metrics(args.trace))?;
    Ok(line)
}
