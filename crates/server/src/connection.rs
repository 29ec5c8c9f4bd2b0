//! The per-connection request loop and its client-side mirror.
//!
//! Transport-agnostic: both ends speak through any `Read`/`Write`
//! pair (a TCP stream, a unix socket, or — as the test planes do — an
//! in-memory byte buffer). The server loop upholds the protocol's
//! one-response-per-request invariant even for malformed input:
//! recoverable wire errors (oversized or corrupt frames) are answered
//! with a `protocol` [`ErrorReply`] frame and the loop continues in
//! sync; only truncation and I/O failures drop the connection.

use crate::fabric::Fabric;
use crate::wire::{
    read_frame, write_frame, ErrorReply, IngestFrame, Request, Response, TenantRef, WireError,
    MAX_INGEST_UPDATES,
};
use std::io::{self, BufReader, Read, Write};
use std::time::Duration;

/// Serves requests from `reader`, writing one response per frame to
/// `writer`, until clean end-of-stream. Returns the number of frames
/// answered (including error replies to recoverable protocol abuse).
///
/// # Errors
/// Only fatal wire errors ([`WireError::Truncated`] /
/// [`WireError::Io`]) — the stream position is unknown, so the
/// connection must drop. Recoverable errors were already answered.
pub fn serve_connection<R: Read, W: Write>(
    fabric: &Fabric,
    reader: &mut R,
    writer: &mut W,
    max_frame_bytes: usize,
) -> Result<u64, WireError> {
    let mut answered = 0u64;
    loop {
        let response = match read_frame::<R, Request>(reader, max_frame_bytes) {
            Ok(None) => return Ok(answered),
            Ok(Some(req)) => fabric.handle(req),
            Err(e) if e.is_recoverable() => {
                Response::Error(ErrorReply::new("protocol", e.to_string()))
            }
            Err(e) => return Err(e),
        };
        write_frame(writer, &response)?;
        answered += 1;
    }
}

/// Client-side call: writes one request frame and reads the matching
/// response frame.
///
/// # Errors
/// Any [`WireError`], including [`WireError::Truncated`] when the
/// server closed the stream without answering.
pub fn call<R: Read, W: Write>(
    reader: &mut R,
    writer: &mut W,
    req: &Request,
    max_frame_bytes: usize,
) -> Result<Response, WireError> {
    write_frame(writer, req)?;
    writer.flush()?;
    read_frame::<R, Response>(reader, max_frame_bytes)?.ok_or(WireError::Truncated {
        expected: 4,
        got: 0,
    })
}

/// Bounded-retry policy for [`Client::call`] /
/// [`call_with_retry`]: exponential backoff with deterministic jitter.
///
/// The backoff before attempt `n` (0-based) is
/// `base_delay · 2ⁿ`, scaled by a jitter factor in `[0.5, 1.5)`
/// derived from [`bas_hash::mix64`] over `(seed, attempt)` — full
/// determinism (no wall-clock entropy) so test runs and incident
/// reproductions see identical schedules — and clamped to
/// `max_delay`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (the first call plus retries); 0 behaves as 1.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Cap on any single backoff.
    pub max_delay: Duration,
    /// Jitter seed (vary per client to de-synchronize herds).
    pub seed: u64,
}

impl RetryPolicy {
    /// Defaults: 4 attempts, 10 ms base, 500 ms cap, seed 0.
    pub fn new() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            seed: 0,
        }
    }

    /// Sets the attempt bound.
    pub fn with_max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts;
        self
    }

    /// Sets the base backoff.
    pub fn with_base_delay(mut self, base_delay: Duration) -> Self {
        self.base_delay = base_delay;
        self
    }

    /// Sets the backoff cap.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the jitter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The backoff before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .base_delay
            .saturating_mul(1u32.checked_shl(attempt.min(20)).unwrap_or(u32::MAX));
        // Jitter factor in [0.5, 1.5): top 53 bits of a mix over
        // (seed, attempt), mapped to [0, 1).
        let bits = bas_hash::mix64(self.seed ^ ((attempt as u64) << 32 | 0x9E37));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let jittered = doubled.mul_f64(0.5 + unit);
        jittered.min(self.max_delay)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a retried call ultimately failed.
#[derive(Debug)]
pub enum RetryError {
    /// Every attempt failed; the last wire error is attached.
    Exhausted {
        /// Attempts made.
        attempts: u32,
        /// The error from the final attempt.
        last: WireError,
    },
    /// (Re)connecting failed fatally.
    Connect(io::Error),
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
            Self::Connect(e) => write!(f, "connect failed: {e}"),
        }
    }
}

impl std::error::Error for RetryError {}

/// A reconnecting wire client: a connector closure that opens a fresh
/// stream, the current stream (if any), and a [`RetryPolicy`].
///
/// [`call`](Client::call) retries **recoverable** wire errors
/// (oversized/corrupt response frames — the stream is still in sync)
/// on the same connection, and **fatal** errors (truncation, abusive
/// declarations, I/O — stream position unknown) by dropping the
/// stream, backing off, reconnecting, and resending. Application-level
/// rejections ([`Response::Busy`], [`Response::Shed`],
/// [`Response::Error`]) are *answers*, not failures: they are returned
/// as-is — only the caller knows whether an ingest batch is safe to
/// resend.
///
/// The client reads through a buffer it owns, so a reply that arrived
/// whole costs one `read`; a reconnect drops the buffer with its
/// stream.
pub struct Client<S, F> {
    connect: F,
    stream: Option<BufReader<S>>,
    policy: RetryPolicy,
    max_frame_bytes: usize,
}

impl<S: Read + Write, F: FnMut() -> io::Result<S>> Client<S, F> {
    /// A client over a connector closure (e.g.
    /// `|| TcpStream::connect(addr)`).
    pub fn new(connect: F, policy: RetryPolicy, max_frame_bytes: usize) -> Self {
        Self {
            connect,
            stream: None,
            policy,
            max_frame_bytes,
        }
    }

    /// Whether a live stream is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// One request/response exchange with bounded retries — see the
    /// type docs for the retry/reconnect split.
    ///
    /// # Errors
    /// [`RetryError::Exhausted`] after `max_attempts` failures, or
    /// [`RetryError::Connect`] if (re)connecting itself fails.
    pub fn call(&mut self, req: &Request) -> Result<Response, RetryError> {
        let attempts = self.policy.max_attempts.max(1);
        let mut last: Option<WireError> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.policy.backoff(attempt - 1));
            }
            if self.stream.is_none() {
                let stream = (self.connect)().map_err(RetryError::Connect)?;
                self.stream = Some(BufReader::new(stream));
            }
            let stream = self.stream.as_mut().expect("just connected");
            match call_split(stream, req, self.max_frame_bytes) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_recoverable() => {
                    // The response stream is still in sync: retry on
                    // the same connection.
                    last = Some(e);
                }
                Err(e) => {
                    // Stream position unknown: reconnect before the
                    // next attempt.
                    self.stream = None;
                    last = Some(e);
                }
            }
        }
        Err(RetryError::Exhausted {
            attempts,
            last: last.expect("at least one attempt ran"),
        })
    }
}

/// [`call`] over a single bidirectional stream behind its read
/// buffer.
fn call_split<S: Read + Write>(
    stream: &mut BufReader<S>,
    req: &Request,
    max_frame_bytes: usize,
) -> Result<Response, WireError> {
    let writer = stream.get_mut();
    write_frame(writer, req)?;
    writer.flush()?;
    read_frame::<_, Response>(stream, max_frame_bytes)?.ok_or(WireError::Truncated {
        expected: 4,
        got: 0,
    })
}

/// One-shot convenience over [`Client`]: builds a throwaway client
/// around `connect` and runs a single retried call.
///
/// # Errors
/// See [`Client::call`].
pub fn call_with_retry<S: Read + Write, F: FnMut() -> io::Result<S>>(
    connect: F,
    req: &Request,
    policy: RetryPolicy,
    max_frame_bytes: usize,
) -> Result<Response, RetryError> {
    Client::new(connect, policy, max_frame_bytes).call(req)
}

/// Client-side ingest batching for one tenant: buffers `(item, delta)`
/// updates and ships them as **one [`Request::Ingest`] frame per
/// `max_batch` updates**, so a live stream pays one request/response
/// round trip per batch instead of per arrival. Bigger frames also
/// reach the server as bigger batches, which its engines apply through
/// the blocked batch kernels — the wire tax and the per-update
/// dispatch tax amortize together.
///
/// Backpressure policy: a [`Response::Busy`] answer (the tenant's
/// ingest queue is full) triggers one [`Request::Flush`] followed by a
/// single resend — the flush drains the queue, so the retry normally
/// lands. A second `Busy`, and any [`Response::Shed`] (interval quota;
/// only the next interval clears it), are returned to the caller
/// unretried: nothing was admitted, and only the caller knows whether
/// waiting or dropping is right.
#[derive(Debug)]
pub struct IngestBatcher {
    tenant: u64,
    max_batch: usize,
    buf: Vec<(u64, f64)>,
}

impl IngestBatcher {
    /// A batcher for `tenant`, shipping a frame every `max_batch`
    /// updates (0 behaves as 1, and anything above
    /// [`MAX_INGEST_UPDATES`] as that cap: a larger frame would exceed
    /// [`MAX_FRAME_BYTES`](crate::wire::MAX_FRAME_BYTES) and be refused
    /// on every retry).
    pub fn new(tenant: u64, max_batch: usize) -> Self {
        let max_batch = max_batch.clamp(1, MAX_INGEST_UPDATES);
        Self {
            tenant,
            max_batch,
            buf: Vec::with_capacity(max_batch),
        }
    }

    /// The tenant this batcher feeds.
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Updates buffered but not yet shipped.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Buffers `updates`, shipping a full frame through `client` each
    /// time the buffer reaches `max_batch`. Returns the server's
    /// answers for the frames shipped (empty while everything is still
    /// buffered); an un-admitted answer ([`Response::Busy`] after the
    /// flush-and-retry, [`Response::Shed`], [`Response::Error`]) stops
    /// the shipping early with the unadmitted updates still buffered.
    ///
    /// # Errors
    /// See [`Client::call`]; the batch that failed to ship stays
    /// buffered.
    pub fn extend<S: Read + Write, F: FnMut() -> io::Result<S>>(
        &mut self,
        client: &mut Client<S, F>,
        updates: &[(u64, f64)],
    ) -> Result<Vec<Response>, RetryError> {
        let mut answers = Vec::new();
        let mut rest = updates;
        while !rest.is_empty() {
            let take = (self.max_batch - self.buf.len()).min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() < self.max_batch {
                break;
            }
            let resp = self.ship(client)?;
            let admitted = matches!(resp, Response::Admitted(_));
            answers.push(resp);
            if !admitted {
                break;
            }
        }
        Ok(answers)
    }

    /// Ships the buffered partial frame, if any. Call at end of stream
    /// (and check the answer) — dropping the batcher discards whatever
    /// is still buffered.
    ///
    /// # Errors
    /// See [`Client::call`]; the updates stay buffered.
    pub fn finish<S: Read + Write, F: FnMut() -> io::Result<S>>(
        &mut self,
        client: &mut Client<S, F>,
    ) -> Result<Option<Response>, RetryError> {
        if self.buf.is_empty() {
            return Ok(None);
        }
        self.ship(client).map(Some)
    }

    /// One frame out of the buffer, with the Busy → flush → resend
    /// step. The buffer moves into the request and comes back on every
    /// outcome, errors included; it is cleared only on admission.
    fn ship<S: Read + Write, F: FnMut() -> io::Result<S>>(
        &mut self,
        client: &mut Client<S, F>,
    ) -> Result<Response, RetryError> {
        let req = Request::Ingest(IngestFrame {
            tenant: self.tenant,
            updates: std::mem::take(&mut self.buf),
        });
        let resp = Self::send(client, self.tenant, &req);
        let Request::Ingest(IngestFrame { updates, .. }) = req else {
            unreachable!("built as an ingest request above")
        };
        self.buf = updates;
        if matches!(resp, Ok(Response::Admitted(_))) {
            self.buf.clear();
        }
        resp
    }

    /// One call of `req`, answering `Busy` with a flush and one resend.
    fn send<S: Read + Write, F: FnMut() -> io::Result<S>>(
        client: &mut Client<S, F>,
        tenant: u64,
        req: &Request,
    ) -> Result<Response, RetryError> {
        let resp = client.call(req)?;
        if !matches!(resp, Response::Busy(_)) {
            return Ok(resp);
        }
        client.call(&Request::Flush(TenantRef { tenant }))?;
        client.call(req)
    }
}
