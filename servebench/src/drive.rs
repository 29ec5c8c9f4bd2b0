//! The load generator: runs a connection's closed loop through the
//! repo's own `Client`/`IngestBatcher` and logs every request's latency,
//! outcome and admitted frame.

use crate::trace::{TracedStream, Tracer};
use crate::workload::{Inputs, Op, FRAME};
use bas_server::wire::TenantRef;
use bas_server::{Client, IngestBatcher, Request, Response, RetryPolicy, MAX_FRAME_BYTES};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Request kinds, as the metrics group them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Kind {
    /// `Ingest` frame (through `IngestBatcher`).
    Ingest,
    /// `Flush`.
    Flush,
    /// `AdvanceInterval`.
    Advance,
    /// `Point`.
    Point,
    /// `WindowPoint`.
    WindowPoint,
    /// `RangeSum`.
    RangeSum,
    /// `HeavyHitters` or `WindowHeavyHitters`.
    Scan,
    /// `Ping`.
    Ping,
    /// Anything else (registration, stats).
    Control,
}

impl Kind {
    /// The kind of a planned request.
    pub fn of(op: &Op) -> Kind {
        match op {
            Op::Ingest { .. } => Kind::Ingest,
            Op::Flush(_) => Kind::Flush,
            Op::Advance(_) => Kind::Advance,
            Op::Query(req) => match req {
                Request::Point(_) => Kind::Point,
                Request::WindowPoint(_) => Kind::WindowPoint,
                Request::RangeSum(_) => Kind::RangeSum,
                Request::HeavyHitters(_) | Request::WindowHeavyHitters(_) => Kind::Scan,
                Request::Ping => Kind::Ping,
                _ => Kind::Control,
            },
        }
    }

    /// Short name for reports and span files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Flush => "flush",
            Kind::Advance => "advance",
            Kind::Point => "point",
            Kind::WindowPoint => "window_point",
            Kind::RangeSum => "range_sum",
            Kind::Scan => "scan",
            Kind::Ping => "ping",
            Kind::Control => "control",
        }
    }

    /// Requests that pin a plane on every call.
    pub fn pinned(self) -> bool {
        matches!(self, Kind::WindowPoint | Kind::RangeSum)
    }
}

/// One admitted ingest frame: which pool frame landed in which interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Admit {
    /// Tenant id.
    pub tenant: u64,
    /// The tenant's interval when the frame was admitted.
    pub interval: u64,
    /// Index into the tenant's frame pool.
    pub frame: usize,
}

/// One timed request.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the request was sent, in ns since the timed phase started.
    pub at: u64,
    /// Its latency in ns.
    pub ns: u64,
    /// Updates it got admitted, or 1 for an answered query.
    pub served: u64,
}

/// What one connection did.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Timed requests per request kind.
    pub lat: BTreeMap<Kind, Vec<Sample>>,
    /// The generator's own gap before each request (ns): from the
    /// previous answer, or the start of the phase, to sending it.
    pub late: Vec<u64>,
    /// Request frames attempted.
    pub attempted: u64,
    /// Requests that failed: error replies, un-admitted ingest, client
    /// errors.
    pub failed: u64,
    /// Updates admitted.
    pub updates: u64,
    /// Queries answered.
    pub queries: u64,
    /// Frames admitted, for the exactness gate.
    pub admits: Vec<Admit>,
    /// Each tenant's interval when the connection finished.
    pub intervals: BTreeMap<u64, u64>,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl ConnLog {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Folds another connection's log into this one.
    pub fn merge(&mut self, other: ConnLog) {
        for (kind, samples) in other.lat {
            self.lat.entry(kind).or_default().extend(samples);
        }
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.updates += other.updates;
        self.queries += other.queries;
        self.admits.extend(other.admits);
        for (tenant, interval) in other.intervals {
            let at = self.intervals.entry(tenant).or_insert(0);
            *at = (*at).max(interval);
        }
        self.errors.extend(other.errors);
    }

    /// Timed requests of the given kinds, pooled.
    pub fn samples(&self, kinds: &[Kind]) -> Vec<Sample> {
        kinds
            .iter()
            .filter_map(|k| self.lat.get(k))
            .flatten()
            .copied()
            .collect()
    }
}

/// Opens a loopback connection with Nagle off (one small frame per
/// round trip).
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// How a session's client opens its streams.
type Connector = Box<dyn FnMut() -> io::Result<TracedStream<TcpStream>>>;

/// One connection's client state: the client, one `IngestBatcher` per
/// tenant it feeds, and the interval each tenant is in.
pub struct Session {
    client: Client<TracedStream<TcpStream>, Connector>,
    batchers: BTreeMap<u64, IngestBatcher>,
    /// Current interval per tenant (advanced by this connection's
    /// `AdvanceInterval`s).
    pub intervals: BTreeMap<u64, u64>,
    tracer: Option<Rc<RefCell<Tracer>>>,
}

impl Session {
    /// A session to `addr` starting from the given interval positions.
    /// It connects on its first request; with a tracer, its streams
    /// record spans and bytes on it.
    pub fn connect(
        addr: SocketAddr,
        intervals: BTreeMap<u64, u64>,
        tracer: Option<Rc<RefCell<Tracer>>>,
    ) -> Self {
        let on = tracer.clone();
        Self {
            client: Client::new(
                Box::new(move || connect(addr).map(|s| TracedStream::new(s, on.clone()))),
                RetryPolicy::new(),
                MAX_FRAME_BYTES,
            ),
            batchers: BTreeMap::new(),
            intervals,
            tracer,
        }
    }

    /// One plain request/response exchange, with `Client`'s retries.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.client.call(req).map_err(|e| e.to_string())
    }

    /// Sends one planned request and logs its outcome (not its latency).
    pub fn exec(&mut self, op: &Op, inputs: &Inputs, log: &mut ConnLog) {
        log.attempted += 1;
        match op {
            &Op::Ingest { tenant, frame } => {
                let updates = &inputs.pools[&tenant][frame];
                let batcher = self
                    .batchers
                    .entry(tenant)
                    .or_insert_with(|| IngestBatcher::new(tenant, FRAME));
                match batcher.extend(&mut self.client, updates) {
                    Ok(answers) if matches!(answers[..], [Response::Admitted(_)]) => {
                        log.updates += updates.len() as u64;
                        log.admits.push(Admit {
                            tenant,
                            interval: self.intervals.get(&tenant).copied().unwrap_or(0),
                            frame,
                        });
                    }
                    outcome => {
                        // A refused frame stays buffered in the batcher:
                        // drop it so the next frame starts clean.
                        self.batchers.remove(&tenant);
                        log.fail(format!("ingest to tenant {tenant}: {outcome:?}"));
                    }
                }
            }
            &Op::Flush(tenant) => match self.call(&Request::Flush(TenantRef { tenant })) {
                Ok(Response::Flushed(_)) => {}
                other => log.fail(format!("flush of tenant {tenant}: {other:?}")),
            },
            &Op::Advance(tenant) => {
                match self.call(&Request::AdvanceInterval(TenantRef { tenant })) {
                    Ok(Response::Sealed(_)) => *self.intervals.entry(tenant).or_insert(0) += 1,
                    other => log.fail(format!("advance of tenant {tenant}: {other:?}")),
                }
            }
            Op::Query(req) => match self.call(req) {
                Ok(Response::Value(_) | Response::HeavyHitters(_) | Response::Pong) => {
                    log.queries += 1
                }
                other => log.fail(format!("{req:?}: {other:?}")),
            },
        }
    }

    /// Sends ops back to back, untimed (set-up and gate traffic).
    pub fn exec_all(&mut self, ops: &[Op], inputs: &Inputs, log: &mut ConnLog) {
        for op in ops {
            self.exec(op, inputs, log);
        }
    }

    /// Sends one op inside a tracer span; returns when it was answered
    /// and what it served.
    fn timed(&mut self, op: &Op, inputs: &Inputs, log: &mut ConnLog) -> (Instant, u64) {
        let kind = Kind::of(op);
        if let Some(t) = &self.tracer {
            t.borrow_mut().begin(kind);
        }
        let before = log.updates + log.queries;
        self.exec(op, inputs, log);
        if let Some(t) = &self.tracer {
            t.borrow_mut().end();
        }
        (Instant::now(), log.updates + log.queries - before)
    }

    /// Runs a closed loop from `start`: each op right after the previous
    /// answer, cycling through `ops` until `deadline`. Ingest connections
    /// then flush their tenants, untimed, so every update admitted in the
    /// timed phase is also applied before it ends.
    pub fn run(
        &mut self,
        ops: &[Op],
        inputs: &Inputs,
        start: Instant,
        deadline: Instant,
    ) -> ConnLog {
        let mut log = ConnLog::default();
        sleep_until(start);
        let mut free_at = start;
        for op in ops.iter().cycle() {
            let sent = Instant::now();
            if sent >= deadline {
                break;
            }
            log.late.push(nanos(sent - free_at));
            let (done, served) = self.timed(op, inputs, &mut log);
            push_sample(&mut log, op, sent - start, done - sent, served);
            free_at = done;
        }
        let fed: BTreeSet<u64> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Ingest { tenant, .. } => Some(*tenant),
                _ => None,
            })
            .collect();
        for tenant in fed {
            self.timed(&Op::Flush(tenant), inputs, &mut log);
        }
        log.intervals = self.intervals.clone();
        log
    }
}

fn push_sample(log: &mut ConnLog, op: &Op, at: Duration, took: Duration, served: u64) {
    log.lat.entry(Kind::of(op)).or_default().push(Sample {
        at: nanos(at),
        ns: nanos(took),
        served,
    });
}

/// Whole nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Sleeps until `t` (returns at once if it has passed).
pub fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}
