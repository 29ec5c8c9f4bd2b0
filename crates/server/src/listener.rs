//! The daemon front end: a real socket accept loop over the fabric.
//!
//! [`serve_connection`](crate::serve_connection) is transport-agnostic
//! but single-threaded and in-process; this module turns it into a
//! long-running daemon:
//!
//! * **Transports** — [`Daemon::bind_tcp`] and [`Daemon::bind_unix`]
//!   accept on TCP or unix-domain sockets through the same loop
//!   ([`AnyListener`]/[`AnyStream`]).
//! * **Thread model** — one accept thread plus one thread per
//!   connection, all dispatching into one shared [`Fabric`]. The
//!   accept thread blocks in `accept`, so a connection is accepted the
//!   moment it arrives and its first request is read at once. The
//!   fabric is internally synchronized: a request locks only its own
//!   tenant (read for the query verbs and `Stats`, write for `Ingest`,
//!   `Flush`, `AdvanceInterval` and `Export`), so requests for distinct
//!   tenants dispatch at once, and a point never queues behind another
//!   tenant's scan or flush. Locks are held **only for the in-memory
//!   dispatch of one request** — never across socket reads or writes —
//!   so a slow or stalled peer holds no lock.
//! * **Lock order** — journal, then the fabric's tenant map, then one
//!   tenant; no path holds two tenant locks. The journaled verbs
//!   (`Register`, `Install`, `AdvanceInterval`) dispatch and append
//!   under the journal lock, so a compaction can never checkpoint an
//!   effect whose record lands after it. A compaction exports one
//!   tenant at a time under that tenant's write lock, then encodes,
//!   writes and fsyncs outside every fabric lock: it stalls the
//!   journaled verbs, never the rest.
//! * **Connection loop** — each connection reads through a buffer it
//!   owns. A small frame that arrived whole costs one `read` and
//!   decodes from the buffer; the write deadline is armed once per
//!   connection, and the read timeout is re-armed only when it changes
//!   (poll quantum between frames, read deadline inside a frame that
//!   has not fully arrived).
//! * **Deadlines** — each connection carries read/write/idle
//!   [`Deadlines`]. *Idle* bounds the quiet gap **between** frames;
//!   *read*/*write* bound the per-syscall progress gap **inside** a
//!   frame (a peer must keep bytes moving, not finish by a wall-clock
//!   instant). Expiry is a typed [`ConnectionError`], and the
//!   connection drops.
//! * **Graceful shutdown** — [`Daemon::shutdown`] sets the shutdown
//!   flag and wakes the accept thread by opening one connection to its
//!   own listener (the bound TCP port, on the loopback address of the
//!   same family when the daemon is bound to an unspecified address,
//!   or the unix socket's path). That wake connection is dropped
//!   unserved and uncounted, and the accept thread exits. Shutdown then
//!   lets every in-flight frame finish (connections notice the flag at
//!   their next between-frames poll), seals each tenant's open
//!   interval via [`Fabric::quiesce`], journals the advances and a
//!   compacted checkpoint when persistence is attached, and joins all
//!   threads before returning. The wake has a connect timeout, so a
//!   full backlog or an unreachable listener cannot hang shutdown: if
//!   the wake fails, the accept thread is left unjoined and shutdown
//!   returns the error once the fabric is sealed and journaled.
//!
//! Killing the process instead of calling [`Daemon::shutdown`] is the
//! crash case the [`persist`](crate::persist) journal exists for: on
//! restart, [`recover`](crate::persist::recover) rebuilds the tenant
//! topology from the journal and the daemon resumes serving.

use crate::fabric::Fabric;
use crate::persist::{Journal, JournalRecord};
use crate::wire::{self, Request, Response, TenantRef, WireError};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Per-connection deadlines. `None` disables the respective deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// Maximum per-syscall progress gap while **reading** a frame: the
    /// longest the peer may go silent mid-frame.
    pub read: Option<Duration>,
    /// Maximum per-syscall progress gap while **writing** a response.
    pub write: Option<Duration>,
    /// Maximum quiet time **between** frames before the connection is
    /// closed as idle.
    pub idle: Option<Duration>,
}

impl Deadlines {
    /// Daemon defaults: 10 s progress gaps, 5 min idle.
    pub fn new() -> Self {
        Self {
            read: Some(Duration::from_secs(10)),
            write: Some(Duration::from_secs(10)),
            idle: Some(Duration::from_secs(300)),
        }
    }

    /// No deadlines at all (trusted in-process tests).
    pub const NONE: Self = Self {
        read: None,
        write: None,
        idle: None,
    };

    /// Sets the mid-frame read deadline.
    pub fn with_read(mut self, read: Option<Duration>) -> Self {
        self.read = read;
        self
    }

    /// Sets the response write deadline.
    pub fn with_write(mut self, write: Option<Duration>) -> Self {
        self.write = write;
        self
    }

    /// Sets the between-frames idle deadline.
    pub fn with_idle(mut self, idle: Option<Duration>) -> Self {
        self.idle = idle;
        self
    }
}

impl Default for Deadlines {
    fn default() -> Self {
        Self::new()
    }
}

/// Daemon configuration: frame cap, deadlines, poll quantum, journal
/// compaction thresholds.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Per-frame byte cap handed to the wire layer.
    pub max_frame_bytes: usize,
    /// Per-connection deadlines.
    pub deadlines: Deadlines,
    /// How often a connection thread waiting between frames re-checks
    /// the shutdown flag and its idle deadline (also the granularity of
    /// that deadline). It paces connection threads only: the accept
    /// thread blocks in `accept` and never waits on it for a new
    /// connection.
    pub poll_interval: Duration,
    /// Compact the journal once it holds this many records beyond the
    /// last compaction (`None` = compact only at graceful shutdown).
    pub compact_after_records: Option<u64>,
    /// Compact the journal once it grows this many bytes beyond the
    /// last compaction (`None` = compact only at graceful shutdown).
    pub compact_after_bytes: Option<u64>,
}

impl DaemonConfig {
    /// Defaults: the wire frame cap, default deadlines, 20 ms
    /// between-frames polls, shutdown-only compaction.
    pub fn new() -> Self {
        Self {
            max_frame_bytes: wire::MAX_FRAME_BYTES,
            deadlines: Deadlines::new(),
            poll_interval: Duration::from_millis(20),
            compact_after_records: None,
            compact_after_bytes: None,
        }
    }

    /// Sets the frame cap.
    pub fn with_max_frame_bytes(mut self, max: usize) -> Self {
        self.max_frame_bytes = max;
        self
    }

    /// Sets the deadlines.
    pub fn with_deadlines(mut self, deadlines: Deadlines) -> Self {
        self.deadlines = deadlines;
        self
    }

    /// Sets the between-frames poll quantum.
    pub fn with_poll_interval(mut self, poll: Duration) -> Self {
        self.poll_interval = poll;
        self
    }

    /// Compacts the journal after this many appended records.
    pub fn with_compact_after_records(mut self, records: Option<u64>) -> Self {
        self.compact_after_records = records;
        self
    }

    /// Compacts the journal after this many appended bytes.
    pub fn with_compact_after_bytes(mut self, bytes: Option<u64>) -> Self {
        self.compact_after_bytes = bytes;
        self
    }
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a daemon connection ended.
#[derive(Debug)]
pub enum ConnectionError {
    /// No frame arrived within the idle deadline.
    IdleTimeout {
        /// The configured idle limit.
        limit: Duration,
    },
    /// The peer stalled mid-frame beyond the read deadline.
    ReadTimeout {
        /// The configured per-gap read limit.
        limit: Duration,
    },
    /// The peer stopped draining its responses beyond the write
    /// deadline.
    WriteTimeout {
        /// The configured per-gap write limit.
        limit: Duration,
    },
    /// A fatal wire error (truncation, abusive declaration, I/O).
    Wire(WireError),
}

impl std::fmt::Display for ConnectionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::IdleTimeout { limit } => write!(f, "connection idle beyond {limit:?}"),
            Self::ReadTimeout { limit } => write!(f, "mid-frame read stalled beyond {limit:?}"),
            Self::WriteTimeout { limit } => write!(f, "response write stalled beyond {limit:?}"),
            Self::Wire(e) => write!(f, "wire error: {e}"),
        }
    }
}

impl std::error::Error for ConnectionError {}

impl From<WireError> for ConnectionError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

/// The service a connection thread dispatches into: the fabric plus
/// the optional journal, so every durable effect of a request is
/// recorded as soon as the fabric acknowledges it.
#[derive(Debug)]
struct Service {
    fabric: Fabric,
    journal: Option<Mutex<Journal>>,
    compact_after_records: Option<u64>,
    compact_after_bytes: Option<u64>,
}

impl Service {
    /// Dispatches one request and journals its durable effect (tenant
    /// registration / installation, interval advance) on success.
    ///
    /// A journaled verb dispatches **and** appends under the journal
    /// lock: were the lock released in between, a compaction could
    /// checkpoint the effect before its record lands after the
    /// checkpoint, and recovery would apply it twice. When the journal
    /// crosses a compaction threshold the append also triggers an
    /// inline [`Journal::compact`], still under the journal lock (the
    /// lock order is journal, then fabric, as in [`Daemon::shutdown`]);
    /// `compact` is atomic (write-to-temp + rename), so a kill at any
    /// point leaves a recoverable journal on disk. Every other verb
    /// dispatches without the journal lock, compaction or not.
    fn handle(&self, req: Request) -> Response {
        // Without a journal there is no record to build (an `Install`'s
        // would clone its whole transfer).
        let Some(journal) = &self.journal else {
            return self.fabric.handle(req);
        };
        let record = match &req {
            Request::Register(spec) => JournalRecord::TenantRegistered(*spec),
            Request::Install(transfer) => JournalRecord::Checkpoint(transfer.clone()),
            Request::AdvanceInterval(r) => JournalRecord::IntervalAdvanced(*r),
            _ => return self.fabric.handle(req),
        };
        let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
        let resp = self.fabric.handle(req);
        if !matches!(resp, Response::Error(_)) {
            // Journal I/O failure must not corrupt the serving
            // path; the daemon keeps answering and the operator
            // sees the failure at shutdown/compaction.
            let _ = journal.append(&record);
            let over_records = self
                .compact_after_records
                .is_some_and(|limit| journal.records() >= limit);
            let over_bytes = self
                .compact_after_bytes
                .is_some_and(|limit| journal.bytes() >= limit);
            if over_records || over_bytes {
                let _ = journal.compact(&self.fabric);
            }
        }
        resp
    }
}

/// A listening socket of either family.
#[derive(Debug)]
pub enum AnyListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener.
    Unix(UnixListener),
}

impl AnyListener {
    fn accept(&self) -> io::Result<AnyStream> {
        match self {
            Self::Tcp(l) => l.accept().map(|(s, _)| {
                // One small request frame ↔ one small response frame:
                // Nagle + delayed ACK would serialize that at ~40 ms a
                // round trip, so turn it off (best-effort).
                let _ = s.set_nodelay(true);
                AnyStream::Tcp(s)
            }),
            Self::Unix(l) => l.accept().map(|(s, _)| AnyStream::Unix(s)),
        }
    }

    fn local_tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Self::Tcp(l) => l.local_addr().ok(),
            Self::Unix(_) => None,
        }
    }

    fn try_clone(&self) -> io::Result<Self> {
        match self {
            Self::Tcp(l) => l.try_clone().map(Self::Tcp),
            Self::Unix(l) => l.try_clone().map(Self::Unix),
        }
    }

    /// Opens one connection to this listener, so that a thread blocked
    /// in its `accept` returns, and closes it: to the bound TCP port (on
    /// the loopback address of the same family when the bound address
    /// is unspecified) or to the unix socket's path. Fails rather than
    /// wait past [`WAKE_TIMEOUT`].
    fn wake(&self) -> io::Result<()> {
        match self {
            Self::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, WAKE_TIMEOUT).map(drop)
            }
            Self::Unix(l) => {
                let addr = l.local_addr()?;
                let path = addr
                    .as_pathname()
                    .ok_or_else(|| io::Error::other("the unix listener has no path"))?
                    .to_path_buf();
                // A unix connect takes no timeout and blocks while the
                // backlog is full: connect on a helper thread, and stop
                // waiting for it at the timeout.
                let (tx, rx) = mpsc::channel();
                let helper = thread::Builder::new().spawn(move || {
                    let _ = tx.send(UnixStream::connect(path).map(drop));
                })?;
                let connected = rx.recv_timeout(WAKE_TIMEOUT);
                if connected.is_ok() {
                    let _ = helper.join();
                }
                connected.unwrap_or_else(|_| Err(io::ErrorKind::TimedOut.into()))
            }
        }
    }
}

/// How long the connection [`Daemon::shutdown`] opens to wake the
/// accept thread may take to connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// A connected stream of either family.
#[derive(Debug)]
pub enum AnyStream {
    /// TCP stream.
    Tcp(TcpStream),
    /// Unix-domain stream.
    Unix(UnixStream),
}

impl AnyStream {
    fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_read_timeout(t),
            Self::Unix(s) => s.set_read_timeout(t),
        }
    }

    fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.set_write_timeout(t),
            Self::Unix(s) => s.set_write_timeout(t),
        }
    }
}

impl Read for AnyStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.read(buf),
            Self::Unix(s) => s.read(buf),
        }
    }
}

impl Write for AnyStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Self::Tcp(s) => s.write(buf),
            Self::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Self::Tcp(s) => s.flush(),
            Self::Unix(s) => s.flush(),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A connection's stream behind a read buffer the connection owns, and
/// the read timeout armed on the socket. The between-frames poll and
/// the frame decoder both read through the buffer, so bytes the poll
/// brought in are never lost, and a frame that arrived whole decodes
/// with no further syscall.
struct Connection {
    reader: BufReader<AnyStream>,
    /// The read timeout last armed (`None` before the first), so the
    /// socket is re-armed only when the wanted timeout changes.
    armed: Option<Option<Duration>>,
}

impl Connection {
    fn arm_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ConnectionError> {
        if self.armed != Some(timeout) {
            let stream = self.reader.get_ref();
            stream.set_read_timeout(timeout).map_err(WireError::from)?;
            self.armed = Some(timeout);
        }
        Ok(())
    }

    /// Whether the buffer holds a whole frame: its length prefix and
    /// the body the prefix declares.
    fn frame_is_buffered(&self) -> bool {
        let buf = self.reader.buffer();
        match buf.get(..4).map(<[u8; 4]>::try_from) {
            Some(Ok(header)) => buf.len() - 4 >= u32::from_be_bytes(header) as usize,
            _ => false,
        }
    }
}

/// What the between-frames poll decided.
enum PollOutcome {
    /// Bytes of the next frame are buffered: read the frame.
    Frame,
    /// Clean end of stream, or shutdown with the stream quiet.
    Done,
}

/// Waits between frames: returns when bytes arrive, the peer hangs up,
/// the idle deadline expires, or shutdown is flagged while the stream
/// is quiet (an in-flight frame — bytes of it already buffered — still
/// gets served; that is the drain guarantee).
fn poll_between_frames(
    conn: &mut Connection,
    deadlines: &Deadlines,
    poll: Duration,
    shutdown: &AtomicBool,
) -> Result<PollOutcome, ConnectionError> {
    if !conn.reader.buffer().is_empty() {
        return Ok(PollOutcome::Frame);
    }
    conn.arm_read_timeout(Some(poll))?;
    let start = Instant::now();
    loop {
        match conn.reader.fill_buf() {
            Ok([]) => return Ok(PollOutcome::Done),
            Ok(_) => return Ok(PollOutcome::Frame),
            Err(e) if is_timeout(&e) => {
                if let Some(limit) = deadlines.idle {
                    if start.elapsed() >= limit {
                        return Err(ConnectionError::IdleTimeout { limit });
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::from(e).into()),
        }
        if shutdown.load(Ordering::Acquire) {
            return Ok(PollOutcome::Done);
        }
    }
}

/// Serves one daemon connection until clean EOF, shutdown, a deadline
/// expiry, or a fatal wire error. Returns the frames answered.
fn serve_daemon_connection(
    stream: AnyStream,
    service: &Service,
    config: &DaemonConfig,
    shutdown: &AtomicBool,
) -> Result<u64, ConnectionError> {
    // Every response goes out under the same write deadline.
    stream
        .set_write_timeout(config.deadlines.write)
        .map_err(WireError::from)?;
    let mut conn = Connection {
        reader: BufReader::new(stream),
        armed: None,
    };
    let mut answered = 0u64;
    loop {
        match poll_between_frames(&mut conn, &config.deadlines, config.poll_interval, shutdown)? {
            PollOutcome::Done => return Ok(answered),
            PollOutcome::Frame => {}
        }
        // A frame has started. One already whole in the buffer decodes
        // with no further syscall; the rest of any other is read under
        // the progress-gap read deadline (each socket read may stall at
        // most this long).
        if !conn.frame_is_buffered() {
            conn.arm_read_timeout(config.deadlines.read)?;
        }
        let response =
            match wire::read_frame::<_, Request>(&mut conn.reader, config.max_frame_bytes) {
                Ok(None) => return Ok(answered),
                Ok(Some(req)) => service.handle(req),
                Err(WireError::Io(e)) if is_timeout(&e) => {
                    return Err(ConnectionError::ReadTimeout {
                        limit: config.deadlines.read.unwrap_or_default(),
                    });
                }
                Err(e) if e.is_recoverable() => {
                    Response::Error(wire::ErrorReply::new("protocol", e.to_string()))
                }
                Err(e) => return Err(ConnectionError::Wire(e)),
            };
        let stream = conn.reader.get_mut();
        match wire::write_frame(stream, &response) {
            Ok(_) => {}
            Err(WireError::Io(e)) if is_timeout(&e) => {
                return Err(ConnectionError::WriteTimeout {
                    limit: config.deadlines.write.unwrap_or_default(),
                });
            }
            Err(e) => return Err(ConnectionError::Wire(e)),
        }
        stream.flush().map_err(WireError::from)?;
        answered += 1;
    }
}

/// What a graceful shutdown did.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Connections accepted over the daemon's lifetime (not counting
    /// the one shutdown opens to wake the accept thread).
    pub connections: u64,
    /// Frames answered across all connections.
    pub frames: u64,
    /// `(tenant, sealed_interval)` pairs from the quiesce step.
    pub sealed: Vec<(u64, u64)>,
    /// The recovered fabric, for in-process reuse after shutdown.
    pub fabric: Fabric,
}

/// A running daemon: accept thread + one thread per connection, all
/// sharing one fabric.
#[derive(Debug)]
pub struct Daemon {
    service: Arc<Service>,
    shutdown: Arc<AtomicBool>,
    frames: Arc<AtomicU64>,
    connections: Arc<AtomicU64>,
    accept: JoinHandle<()>,
    /// A second handle on the accept thread's listening socket. It
    /// keeps the socket open until shutdown has joined that thread, so
    /// the wake connection finds it even when the thread has already
    /// seen the flag (on another connection) and dropped its own.
    listener: AnyListener,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    local_addr: Option<SocketAddr>,
}

impl Daemon {
    /// Binds a TCP daemon. `addr` may be `"127.0.0.1:0"` to let the OS
    /// pick a port — read it back with [`local_addr`](Self::local_addr).
    pub fn bind_tcp<A: ToSocketAddrs>(
        addr: A,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        let listener = AnyListener::Tcp(TcpListener::bind(addr)?);
        Self::start(listener, fabric, journal, config)
    }

    /// Binds a unix-domain daemon at `path` (removed first if a stale
    /// socket file is present).
    pub fn bind_unix<P: AsRef<Path>>(
        path: P,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        let path = path.as_ref();
        if path.exists() {
            std::fs::remove_file(path)?;
        }
        let listener = AnyListener::Unix(UnixListener::bind(path)?);
        Self::start(listener, fabric, journal, config)
    }

    fn start(
        listener: AnyListener,
        fabric: Fabric,
        journal: Option<Journal>,
        config: DaemonConfig,
    ) -> io::Result<Self> {
        let local_addr = listener.local_tcp_addr();
        let accepting = listener.try_clone()?;
        let service = Arc::new(Service {
            fabric,
            journal: journal.map(Mutex::new),
            compact_after_records: config.compact_after_records,
            compact_after_bytes: config.compact_after_bytes,
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let connections = Arc::new(AtomicU64::new(0));
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let frames = Arc::clone(&frames);
            let connections = Arc::clone(&connections);
            let workers = Arc::clone(&workers);
            let poll = config.poll_interval;
            thread::spawn(move || loop {
                let accepted = accepting.accept();
                // Shutdown sets the flag before it connects to wake this
                // thread, so the wake connection (or anything else
                // accepted once shutdown has begun) is dropped here,
                // unserved and uncounted.
                if shutdown.load(Ordering::Acquire) {
                    break;
                }
                match accepted {
                    Ok(stream) => {
                        connections.fetch_add(1, Ordering::Relaxed);
                        let service = Arc::clone(&service);
                        let shutdown = Arc::clone(&shutdown);
                        let frames = Arc::clone(&frames);
                        let config = config.clone();
                        let spawned = thread::Builder::new().spawn(move || {
                            match serve_daemon_connection(stream, &service, &config, &shutdown) {
                                Ok(n) => {
                                    frames.fetch_add(n, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    // Deadline expiries and hostile
                                    // streams drop the connection; the
                                    // daemon itself keeps serving.
                                }
                            }
                        });
                        // A thread the OS refuses drops its stream
                        // (closing the connection) with the closure; the
                        // daemon keeps accepting.
                        if let Ok(handle) = spawned {
                            let mut workers =
                                workers.lock().unwrap_or_else(PoisonError::into_inner);
                            workers.retain(|h| !h.is_finished());
                            workers.push(handle);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    // A persistent error (EMFILE, say) fails every accept
                    // at once: pause so it cannot spin a core.
                    Err(_) => thread::sleep(poll),
                }
            })
        };

        Ok(Self {
            service,
            shutdown,
            frames,
            connections,
            accept,
            listener,
            workers,
            local_addr,
        })
    }

    /// The bound TCP address (`None` for unix-domain daemons).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The shared fabric, for in-process inspection and dispatch.
    pub fn fabric(&self) -> &Fabric {
        &self.service.fabric
    }

    /// Graceful shutdown: stop accepting, let in-flight frames finish,
    /// seal every tenant's open interval, journal the advances plus a
    /// compacted checkpoint (when persistence is attached), and join
    /// every thread.
    ///
    /// # Errors
    /// Journal I/O, or a wake connection that could not reach the
    /// listener within its timeout. In that last case the accept thread
    /// is left running unjoined, and the error comes after the fabric is
    /// sealed and journaled.
    pub fn shutdown(self) -> io::Result<ShutdownReport> {
        self.shutdown.store(true, Ordering::Release);
        // The accept thread blocks in `accept`: one connection to its
        // own listener wakes it to see the flag.
        let woken = self.listener.wake();
        if woken.is_ok() {
            let _ = self.accept.join();
        }
        // With the accept thread joined this is the socket's last
        // handle: closing it refuses whatever is still queued.
        drop(self.listener);
        loop {
            let handle = {
                let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
                workers.pop()
            };
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }

        // Every connection is drained: seal open intervals, journal
        // the advances, and write the compacted durable snapshot, under
        // the journal lock like every journaled effect.
        let fabric = &self.service.fabric;
        let sealed = match &self.service.journal {
            None => fabric.quiesce(),
            Some(journal) => {
                let mut journal = journal.lock().unwrap_or_else(PoisonError::into_inner);
                let sealed = fabric.quiesce();
                for &(tenant, _) in &sealed {
                    journal.append(&JournalRecord::IntervalAdvanced(TenantRef { tenant }))?;
                }
                journal.compact(fabric)?;
                sealed
            }
        };

        woken.map_err(|e| {
            io::Error::new(e.kind(), format!("could not wake the accept thread: {e}"))
        })?;
        let connections = self.connections.load(Ordering::Relaxed);
        let frames = self.frames.load(Ordering::Relaxed);
        // All threads are joined, so the only remaining service clone
        // is ours; unwrap the fabric for in-process reuse.
        let service = Arc::try_unwrap(self.service)
            .map_err(|_| io::Error::other("fabric still shared after shutdown"))?;
        Ok(ShutdownReport {
            connections,
            frames,
            sealed,
            fabric: service.fabric,
        })
    }
}
