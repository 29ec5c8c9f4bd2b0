//! The length-prefixed wire protocol.
//!
//! A frame is a `u32` big-endian body length, then the body, written
//! as one buffer in one `write_all`. Each message kind has exactly one
//! body encoding ([`WireBody`]):
//!
//! * a [`Request::Ingest`] body is fixed-width little-endian binary,
//!   `13 + 16·n` bytes: the tag byte [`INGEST_TAG`] (`0x01`), the
//!   tenant (`u64`), the update count `n` (`u32`), then `n` × (item
//!   `u64`, delta `f64`). Deltas travel as their IEEE-754 bits, so
//!   every value arrives exactly as sent — NaN payloads, ±inf, −0.0
//!   and subnormals included — and the fabric's admission check is
//!   the only validator of items and deltas;
//! * every other request, every [`Response`] and every
//!   [`TenantTransfer`] is JSON in the workspace's existing serde wire
//!   format (the same format the distributed protocol and
//!   `tests/serde_roundtrip.rs` already pin down: finite `f64`s print
//!   shortest-round-trip, so counter planes ship **bit-for-bit**).
//!
//! JSON bodies always start with `{` or `"`, so the tag byte alone
//! tells a reader which decoder to run; a JSON body naming `Ingest` is
//! refused as [`WireError::Malformed`]. One [`Request`] frame in, one
//! [`Response`] frame out, strictly alternating per connection.
//!
//! The framing layer owns desync-avoidance **and** resource bounds
//! against hostile peers:
//!
//! * a frame longer than the reader's cap — but within the drain
//!   budget — is **drained** (read and discarded in bounded chunks)
//!   before [`WireError::FrameTooLarge`] is reported, so the stream
//!   stays positioned at the next frame and the connection survives;
//! * a declaration beyond [`DRAIN_BUDGET_MULTIPLE`]`·max_len` is
//!   [`WireError::Abusive`] and **fatal**: draining it would let one
//!   bogus header make the reader consume up to ~4 GiB from the peer,
//!   so the connection drops instead (behavior change vs the original
//!   protocol, which loyally drained any declared length);
//! * body buffers grow **as bytes actually arrive** (in
//!   [`BODY_CHUNK_BYTES`] steps), never by the declared length alone —
//!   a peer declaring a huge frame and trickling bytes holds at most
//!   one chunk beyond what it has already sent (behavior change vs the
//!   original protocol, which allocated the full declared length up
//!   front);
//! * a body that does not decode as the expected type — bad JSON, or
//!   an ingest body whose count disagrees with its length — is fully
//!   consumed before [`WireError::Malformed`] is reported — the stream
//!   stays in sync;
//! * [`WireError::Truncated`] / [`WireError::Io`] are fatal: the
//!   stream position is unknown, so the connection must drop.

use bas_sketch::{CounterMatrix, Dense, SketchParams};
use std::io::{Read, Write};

/// Default per-frame size cap (bytes). Large enough for any plane
/// transfer the test/bench configurations ship, small enough that a
/// hostile length prefix cannot make the server allocate unboundedly.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Hard bound on how much over-declared length the reader will drain,
/// as a multiple of its `max_len` cap: a declaration beyond
/// `max_len · DRAIN_BUDGET_MULTIPLE` is treated as hostile
/// ([`WireError::Abusive`], fatal) rather than read-and-discarded.
pub const DRAIN_BUDGET_MULTIPLE: usize = 4;

/// First byte of a binary [`Request::Ingest`] body. JSON bodies start
/// with `{` or `"`, so this byte alone tells the two encodings apart.
pub const INGEST_TAG: u8 = 0x01;

/// Bytes before the first update of an ingest body: tag, tenant
/// (`u64`) and update count (`u32`).
const INGEST_HEAD_BYTES: usize = 13;

/// Bytes per update in an ingest body: item (`u64`), delta (`f64`).
const INGEST_UPDATE_BYTES: usize = 16;

/// The most updates one ingest frame can carry within
/// [`MAX_FRAME_BYTES`]: `(16 MiB − 13) / 16` = 1,048,575.
pub const MAX_INGEST_UPDATES: usize = (MAX_FRAME_BYTES - INGEST_HEAD_BYTES) / INGEST_UPDATE_BYTES;

/// Step size for incremental body reads: the buffer grows by at most
/// this much beyond the bytes that have actually arrived, so a
/// declared-but-never-sent length cannot reserve memory.
pub const BODY_CHUNK_BYTES: usize = 64 << 10;

/// Framing and codec errors.
#[derive(Debug)]
pub enum WireError {
    /// The stream ended inside a frame (header or body). Fatal: the
    /// next byte's meaning is unknown.
    Truncated {
        /// Bytes the frame declared or the header needs.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A frame declared a body longer than the reader's cap. The body
    /// was drained, so the connection is still in sync.
    FrameTooLarge {
        /// Declared body length.
        len: usize,
        /// The reader's cap.
        max: usize,
    },
    /// A frame declared a body beyond the drain budget
    /// (`max_len ·` [`DRAIN_BUDGET_MULTIPLE`]). Nothing was read past
    /// the header; fatal — a peer declaring lengths this far over the
    /// cap is abusing the drain path, not negotiating a frame size.
    Abusive {
        /// Declared body length.
        len: usize,
        /// The drain budget that was exceeded.
        budget: usize,
    },
    /// The body did not decode as the expected frame type: invalid
    /// JSON, an ingest body whose count disagrees with its length, or
    /// a JSON body naming `Ingest`. The body was fully consumed, so the
    /// connection is still in sync.
    Malformed {
        /// Decoder diagnostic.
        detail: String,
    },
    /// An underlying I/O failure. Fatal.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { expected, got } => {
                write!(f, "truncated frame: expected {expected} bytes, got {got}")
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Abusive { len, budget } => {
                write!(
                    f,
                    "frame declares {len} bytes, beyond the {budget}-byte drain budget"
                )
            }
            WireError::Malformed { detail } => write!(f, "malformed frame: {detail}"),
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl WireError {
    /// Whether the connection state machine survives this error (the
    /// stream is positioned at the next frame boundary).
    pub fn is_recoverable(&self) -> bool {
        matches!(
            self,
            WireError::FrameTooLarge { .. } | WireError::Malformed { .. }
        )
    }
}

/// A message that travels as a frame body: [`Request`], [`Response`]
/// and [`TenantTransfer`]. Ingest requests use the binary layout in
/// the [module docs](self); everything else is JSON.
pub trait WireBody: Sized {
    /// Appends the encoded body to `out`.
    ///
    /// # Errors
    /// [`WireError::Malformed`] if the value fails to encode,
    /// [`WireError::FrameTooLarge`] if its body cannot fit a frame.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError>;

    /// Decodes one complete body.
    ///
    /// # Errors
    /// [`WireError::Malformed`] if `body` is not a valid encoding.
    fn decode_body(body: &[u8]) -> Result<Self, WireError>;
}

impl WireBody for Request {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::Ingest(frame) => encode_ingest(frame, out),
            other => encode_json(other, out),
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        if body.first() == Some(&INGEST_TAG) {
            return decode_ingest(body).map(Request::Ingest);
        }
        match decode_json(body)? {
            Request::Ingest(_) => Err(WireError::Malformed {
                detail: "ingest frames take the binary body, not JSON".into(),
            }),
            req => Ok(req),
        }
    }
}

impl WireBody for Response {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode_json(self, out)
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode_json(body)
    }
}

impl WireBody for TenantTransfer {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode_json(self, out)
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode_json(body)
    }
}

fn encode_json<T: serde::Serialize>(msg: &T, out: &mut Vec<u8>) -> Result<(), WireError> {
    let body = serde_json::to_string(msg).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })?;
    out.extend_from_slice(body.as_bytes());
    Ok(())
}

fn decode_json<T: for<'de> serde::Deserialize<'de>>(body: &[u8]) -> Result<T, WireError> {
    let text = std::str::from_utf8(body).map_err(|e| WireError::Malformed {
        detail: format!("non-UTF-8 body: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        detail: e.to_string(),
    })
}

fn encode_ingest(frame: &IngestFrame, out: &mut Vec<u8>) -> Result<(), WireError> {
    let n = frame.updates.len();
    let len = INGEST_HEAD_BYTES + INGEST_UPDATE_BYTES * n;
    // A body that fits the `u32` length prefix carries fewer than 2^28
    // updates, so the count below fits its `u32` too.
    if u32::try_from(len).is_err() {
        return Err(WireError::FrameTooLarge {
            len,
            max: u32::MAX as usize,
        });
    }
    out.reserve(len);
    out.push(INGEST_TAG);
    out.extend_from_slice(&frame.tenant.to_le_bytes());
    out.extend_from_slice(&(n as u32).to_le_bytes());
    let start = out.len();
    out.resize(start + INGEST_UPDATE_BYTES * n, 0);
    for (slot, &(item, delta)) in out[start..]
        .chunks_exact_mut(INGEST_UPDATE_BYTES)
        .zip(&frame.updates)
    {
        slot[..8].copy_from_slice(&item.to_le_bytes());
        slot[8..].copy_from_slice(&delta.to_le_bytes());
    }
    Ok(())
}

fn decode_ingest(body: &[u8]) -> Result<IngestFrame, WireError> {
    if body.len() < INGEST_HEAD_BYTES {
        return Err(WireError::Malformed {
            detail: format!(
                "ingest body of {} bytes is shorter than its {INGEST_HEAD_BYTES}-byte head",
                body.len()
            ),
        });
    }
    let tenant = u64::from_le_bytes(le_word(&body[1..9]));
    let count = u32::from_le_bytes(le_word(&body[9..INGEST_HEAD_BYTES]));
    let pairs = &body[INGEST_HEAD_BYTES..];
    if pairs.len() as u64 != u64::from(count) * INGEST_UPDATE_BYTES as u64 {
        return Err(WireError::Malformed {
            detail: format!(
                "ingest body declares {count} updates but carries {} update bytes",
                pairs.len()
            ),
        });
    }
    let updates = pairs
        .chunks_exact(INGEST_UPDATE_BYTES)
        .map(|pair| {
            let (item, delta) = pair.split_at(8);
            (
                u64::from_le_bytes(le_word(item)),
                f64::from_le_bytes(le_word(delta)),
            )
        })
        .collect();
    Ok(IngestFrame { tenant, updates })
}

/// A fixed-size array from a slice the caller has already cut to size.
fn le_word<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("caller slices exactly N bytes")
}

/// Writes one frame — `u32` big-endian body length, then the body —
/// as one buffer in one `write_all`. Returns the total bytes written
/// (4 + body).
///
/// # Errors
/// [`WireError::Malformed`] if the value fails to encode,
/// [`WireError::FrameTooLarge`] if the body exceeds `u32::MAX` bytes,
/// [`WireError::Io`] on write failure.
pub fn write_frame<W: Write, T: WireBody>(w: &mut W, msg: &T) -> Result<usize, WireError> {
    let mut frame = vec![0u8; 4];
    msg.encode_body(&mut frame)?;
    let body = frame.len() - 4;
    let len = u32::try_from(body).map_err(|_| WireError::FrameTooLarge {
        len: body,
        max: u32::MAX as usize,
    })?;
    frame[..4].copy_from_slice(&len.to_be_bytes());
    w.write_all(&frame)?;
    Ok(frame.len())
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (EOF exactly
/// at a frame boundary); `Ok(Some(_))` is a decoded frame.
///
/// # Errors
/// See [`WireError`]; [`FrameTooLarge`](WireError::FrameTooLarge) and
/// [`Malformed`](WireError::Malformed) leave the stream in sync.
pub fn read_frame<R: Read, T: WireBody>(r: &mut R, max_len: usize) -> Result<Option<T>, WireError> {
    let mut header = [0u8; 4];
    match read_exact_or_eof(r, &mut header)? {
        0 => return Ok(None),
        4 => {}
        got => return Err(WireError::Truncated { expected: 4, got }),
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_len {
        let budget = max_len.saturating_mul(DRAIN_BUDGET_MULTIPLE);
        if len > budget {
            return Err(WireError::Abusive { len, budget });
        }
        drain(r, len)?;
        return Err(WireError::FrameTooLarge { len, max: max_len });
    }
    T::decode_body(&read_body(r, len)?).map(Some)
}

/// Reads a `len`-byte body incrementally: the buffer grows in
/// [`BODY_CHUNK_BYTES`] steps as bytes actually arrive, so a peer
/// declaring a large length and trickling (or never sending) the body
/// pins at most one chunk beyond what it has delivered.
fn read_body<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::with_capacity(len.min(BODY_CHUNK_BYTES));
    while body.len() < len {
        let take = (len - body.len()).min(BODY_CHUNK_BYTES);
        let old = body.len();
        body.resize(old + take, 0);
        let got = read_exact_or_eof(r, &mut body[old..])?;
        body.truncate(old + got);
        if got < take {
            return Err(WireError::Truncated {
                expected: len,
                got: body.len(),
            });
        }
    }
    Ok(body)
}

/// Fills `buf` as far as the stream allows; returns the bytes read
/// (short only at EOF).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(filled)
}

/// Reads and discards `len` bytes in bounded chunks (never allocating
/// more than one chunk), keeping the stream positioned at the next
/// frame after an oversized declaration.
fn drain<R: Read>(r: &mut R, len: usize) -> Result<(), WireError> {
    let mut rest = len;
    let mut chunk = [0u8; 8192];
    while rest > 0 {
        let take = rest.min(chunk.len());
        let got = read_exact_or_eof(r, &mut chunk[..take])?;
        if got == 0 {
            return Err(WireError::Truncated {
                expected: len,
                got: len - rest,
            });
        }
        rest -= got;
    }
    Ok(())
}

// ---- request frames ----

/// A client request. One frame per request; every request gets exactly
/// one [`Response`] frame.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Batched ingest for one tenant; admission-controlled
    /// (`Admitted` / `Busy` / `Shed`).
    Ingest(IngestFrame),
    /// Apply the tenant's buffered updates now.
    Flush(TenantRef),
    /// Close the tenant's current interval (flush + seal or rotate +
    /// quota reset + audit renewal). A tenant at interval `u64::MAX`
    /// has no next interval and refuses with `unsupported`, changing
    /// nothing.
    AdvanceInterval(TenantRef),
    /// Point estimate over the planes the tenant retains: since boot
    /// for `Unbounded`, `Tumbling` and `Sliding` tenants, the window's
    /// generations for `Rotating` ones. Audited when the tenant's spec
    /// asks for it.
    Point(PointQuery),
    /// Point estimate within the tenant's current window. Audited like
    /// [`Request::Point`], against the same per-key budget.
    WindowPoint(PointQuery),
    /// Heavy hitters at threshold `phi` over the planes the tenant
    /// retains (see [`Request::Point`]).
    HeavyHitters(HeavyHittersQuery),
    /// Heavy hitters within the tenant's current window.
    WindowHeavyHitters(HeavyHittersQuery),
    /// Since-boot range sum (range-sum tenants only).
    RangeSum(RangeQuery),
    /// Range sum within the tenant's current window.
    WindowRangeSum(RangeQuery),
    /// Per-tenant serving statistics.
    Stats(TenantRef),
    /// Seal and export the tenant's planes for a rebalance.
    Export(TenantRef),
    /// Install an exported tenant on this fabric.
    Install(TenantTransfer),
    /// Register a fresh (empty) tenant from its spec; the ring picks
    /// the shard. Answered with [`Response::Installed`].
    Register(TenantSpec),
}

/// Names a tenant.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantRef {
    /// Tenant id.
    pub tenant: u64,
}

/// A batch of `(item, delta)` updates for one tenant.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IngestFrame {
    /// Tenant id.
    pub tenant: u64,
    /// The updates, in stream order.
    pub updates: Vec<(u64, f64)>,
}

/// A point query.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PointQuery {
    /// Tenant id.
    pub tenant: u64,
    /// Item to estimate.
    pub item: u64,
}

/// A heavy-hitters query.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeavyHittersQuery {
    /// Tenant id.
    pub tenant: u64,
    /// Threshold in `(0, 1)`: report items with estimate ≥ `phi·mass`.
    pub phi: f64,
}

/// An inclusive range-sum query.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RangeQuery {
    /// Tenant id.
    pub tenant: u64,
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

// ---- tenant configuration (rides in Install frames) ----

/// Which sketch family serves the tenant's metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum MetricKind {
    /// Point-frequency / heavy-hitter serving (Count-Median).
    Frequency,
    /// Dyadic range-sum serving (the Count-Median stack).
    RangeSum,
}

/// A window length in intervals (payload for the windowed
/// [`ServingMode`]s; a struct because the wire derive supports newtype
/// variants, not struct variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WindowLen {
    /// Window length in intervals (≥ 1).
    pub intervals: u64,
}

/// How much history the tenant's queries cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ServingMode {
    /// Since-boot accumulator.
    Unbounded,
    /// Tumbling buckets of the given length.
    Tumbling(WindowLen),
    /// Sliding window of the given length.
    Sliding(WindowLen),
    /// Seed-rotating robustness plane (frequency metric only): a
    /// sliding window of the given length whose every interval, a
    /// *generation*, runs under its own hasher seed,
    /// `SeedSchedule::new(seed).seed_for(g)` for generation `g`, and
    /// whose answers sum the generations' estimates — the serving
    /// policy `bas_serve::Policy::Rotating`. It keeps only the window's
    /// generations, so its since-boot verbs cover the window. Because
    /// each seed follows from the tenant seed and the interval, the
    /// tenant moves and checkpoints like any other: see
    /// [`TenantTransfer`].
    Rotating(WindowLen),
}

/// Per-tenant serving configuration: identity, sketch seed, serving
/// mode, and the admission-control knobs.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantSpec {
    /// Tenant id (unique per fabric).
    pub tenant: u64,
    /// Sketch master seed — distinct per tenant, so tenants are
    /// hash-isolated even at equal shapes.
    pub seed: u64,
    /// Sketch family.
    pub metric: MetricKind,
    /// History scope.
    pub mode: ServingMode,
    /// Bound on buffered-but-unflushed updates; ingest beyond it gets
    /// [`Response::Busy`] until a flush drains the backlog. Must be
    /// ≥ 1.
    pub queue_capacity: u64,
    /// Updates admitted per interval; beyond it ingest gets
    /// [`Response::Shed`] until the interval advances. Must be ≥ 1.
    pub interval_quota: u64,
    /// Per-key audit budget for point queries (0 = unaudited): the
    /// adaptive-adversary defense from the robustness plane, applied
    /// per tenant. `Point` and `WindowPoint` count against one budget
    /// per item, and every `AdvanceInterval` renews it.
    pub audit_limit: u64,
}

impl TenantSpec {
    /// A frequency tenant with unbounded serving and effectively-open
    /// admission knobs — the base most tests start from.
    pub fn frequency(tenant: u64, seed: u64) -> Self {
        Self {
            tenant,
            seed,
            metric: MetricKind::Frequency,
            mode: ServingMode::Unbounded,
            queue_capacity: 1 << 20,
            interval_quota: u64::MAX,
            audit_limit: 0,
        }
    }

    /// A range-sum tenant with unbounded serving.
    pub fn range_sum(tenant: u64, seed: u64) -> Self {
        Self {
            metric: MetricKind::RangeSum,
            ..Self::frequency(tenant, seed)
        }
    }

    /// Sets the serving mode.
    pub fn with_mode(mut self, mode: ServingMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the ingest-queue bound.
    pub fn with_queue_capacity(mut self, capacity: u64) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the per-interval admission quota.
    pub fn with_interval_quota(mut self, quota: u64) -> Self {
        self.interval_quota = quota;
        self
    }

    /// Sets the per-key audit budget (0 disables auditing).
    pub fn with_audit_limit(mut self, limit: u64) -> Self {
        self.audit_limit = limit;
        self
    }
}

/// A tenant shipped between shards: spec + stream position + the
/// cumulative counter plane(s) + every retained seal. Counters only —
/// the destination rebuilds hashers deterministically from
/// `params.seed`, and linearity makes the rebuilt engine bit-for-bit.
///
/// For a [`ServingMode::Rotating`] tenant the planes are per
/// generation, not cumulative: `cumulative`, `applied` and `mass` are
/// the live generation's, and each seal is one retained generation's,
/// the updates of that interval alone.
/// No seed travels: the destination rebuilds generation `g`'s hashers
/// from `SeedSchedule::new(spec.seed).seed_for(g)` (`g` the seal's
/// interval, or `interval` for the live one) and absorbs its plane, so
/// linearity only has to hold within each plane. `Install` refuses a
/// rotating transfer that does not hold exactly the `min(K − 1,
/// interval)` generations before `interval`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TenantTransfer {
    /// The tenant's serving configuration.
    pub spec: TenantSpec,
    /// Sketch shape + seed the planes were built under (validated
    /// against the destination fabric's template on install).
    pub params: SketchParams,
    /// Interval in progress at export time.
    pub interval: u64,
    /// Updates applied to the cumulative plane.
    pub applied: u64,
    /// Total delta mass applied.
    pub mass: f64,
    /// The cumulative plane: one `depth × width` matrix for a
    /// frequency tenant; for a range-sum tenant one matrix per dyadic
    /// level, finest first, `depth × width` for a grid level and
    /// `1 × ⌈n / 2^ℓ⌉` for an exact one. The shapes record the stack's
    /// layout ([`bas_sketch::RangeSumSketch::grid_levels_of`]), so a
    /// transfer made before exact levels existed, every level a grid,
    /// installs in that layout. `Install` refuses planes that fit no
    /// layout with `incompatible`, before it builds anything.
    pub cumulative: Vec<CounterMatrix<f64, Dense>>,
    /// Retained sealed planes, oldest first.
    pub seals: Vec<SealFrame>,
}

/// One sealed plane with its bookkeeping: a cumulative plane as of the
/// end of `interval`, or for a [`ServingMode::Rotating`] tenant the
/// plane of generation `interval` alone, counted under
/// `SeedSchedule::new(spec.seed).seed_for(interval)`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SealFrame {
    /// Interval this seal closed.
    pub interval: u64,
    /// Updates applied as of the seal.
    pub applied: u64,
    /// Mass applied as of the seal.
    pub mass: f64,
    /// The sealed plane(s), level for level the same shapes as
    /// [`TenantTransfer::cumulative`]. Seals arrive oldest first, with
    /// strictly increasing intervals, all before the transfer's
    /// interval in progress.
    pub planes: Vec<CounterMatrix<f64, Dense>>,
}

// ---- response frames ----

/// A server response; exactly one per [`Request`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// The ingest batch was admitted and buffered.
    Admitted(AdmitReceipt),
    /// **Backpressure**: the batch would overflow the tenant's ingest
    /// queue. Nothing was admitted; flush (or wait for the server to)
    /// and retry.
    Busy(BusyReceipt),
    /// **Load shedding**: the batch would exceed the tenant's
    /// per-interval quota. Nothing was admitted; the quota resets when
    /// the interval advances.
    Shed(ShedReceipt),
    /// Reply to [`Request::Flush`].
    Flushed(FlushReceipt),
    /// Reply to [`Request::AdvanceInterval`].
    Sealed(SealReceipt),
    /// A scalar answer (point / window-point / range-sum queries).
    Value(ValueReply),
    /// A heavy-hitters answer.
    HeavyHitters(HeavyHittersReply),
    /// Reply to [`Request::Stats`].
    Stats(StatsReply),
    /// Reply to [`Request::Export`].
    Exported(TenantTransfer),
    /// Reply to [`Request::Install`].
    Installed(InstallReceipt),
    /// Any rejection: unknown tenant, invalid query parameters, audit
    /// refusal, protocol error.
    Error(ErrorReply),
}

/// Receipt for an admitted ingest batch.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AdmitReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates now buffered (≤ the tenant's queue capacity).
    pub pending: u64,
}

/// Backpressure receipt: retry after a flush.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BusyReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates currently buffered.
    pub pending: u64,
    /// The tenant's queue bound.
    pub capacity: u64,
}

/// Shed receipt: retry next interval.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ShedReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates already admitted this interval.
    pub admitted: u64,
    /// The tenant's per-interval quota.
    pub quota: u64,
}

/// Flush receipt.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FlushReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates applied in completed flushes, over the planes the
    /// tenant retains: since boot for `Unbounded`, `Tumbling` and
    /// `Sliding` tenants, the window's generations for `Rotating` ones.
    pub applied: u64,
}

/// Interval-advance receipt.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SealReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// The interval just closed.
    pub sealed_interval: u64,
}

/// A scalar query answer.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ValueReply {
    /// Tenant id.
    pub tenant: u64,
    /// The estimate; always finite (the fabric answers a non-finite
    /// one with a `non_finite` error).
    pub value: f64,
}

/// A heavy-hitters answer: `(item, estimate)` sorted by decreasing
/// estimate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HeavyHittersReply {
    /// Tenant id.
    pub tenant: u64,
    /// The heavy items with their estimates, every one finite.
    pub items: Vec<(u64, f64)>,
}

/// Per-tenant serving statistics.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct StatsReply {
    /// Tenant id.
    pub tenant: u64,
    /// Shard currently hosting the tenant.
    pub shard: u64,
    /// Updates applied in completed flushes, over the planes the
    /// tenant retains (see [`FlushReceipt::applied`]).
    pub applied: u64,
    /// Total delta mass applied, over the same planes as `applied`.
    pub mass: f64,
    /// Updates buffered but not yet flushed.
    pub pending: u64,
    /// Updates admitted in the current interval (quota bookkeeping).
    pub admitted_in_interval: u64,
    /// Interval currently accepting updates.
    pub interval: u64,
}

/// Install receipt.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct InstallReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Shard the tenant was installed on.
    pub shard: u64,
}

/// A typed rejection.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ErrorReply {
    /// Stable machine-readable code: `unknown_tenant`, `bad_query`,
    /// `bad_update`, `audit_rejected`, `unsupported`, `protocol`,
    /// `tenant_exists`, `incompatible`, `non_finite` (an answer would
    /// carry an infinite or NaN float, which JSON cannot encode).
    pub code: String,
    /// Human-readable diagnostic.
    pub detail: String,
}

impl ErrorReply {
    /// Builds an error reply.
    pub fn new(code: &str, detail: impl Into<String>) -> Self {
        Self {
            code: code.to_string(),
            detail: detail.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireBody>(value: &T) -> T {
        let mut buf = Vec::new();
        write_frame(&mut buf, value).unwrap();
        let mut cursor = &buf[..];
        read_frame::<_, T>(&mut cursor, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap()
    }

    #[test]
    fn request_frames_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Ingest(IngestFrame {
                tenant: 3,
                updates: vec![(1, 2.0), (7, -1.5)],
            }),
            Request::Flush(TenantRef { tenant: 3 }),
            Request::Point(PointQuery { tenant: 3, item: 9 }),
            Request::HeavyHitters(HeavyHittersQuery {
                tenant: 3,
                phi: 0.1,
            }),
            Request::WindowRangeSum(RangeQuery {
                tenant: 4,
                lo: 2,
                hi: 8,
            }),
        ];
        for req in &reqs {
            assert_eq!(&roundtrip(req), req);
        }
    }

    #[test]
    fn transfer_frames_round_trip_bit_for_bit() {
        let mut plane = CounterMatrix::<f64, Dense>::new(4, 2);
        plane.add(0, 1, 3.5);
        plane.add(1, 3, -2.25);
        let transfer = TenantTransfer {
            spec: TenantSpec::frequency(11, 42)
                .with_mode(ServingMode::Sliding(WindowLen { intervals: 3 })),
            params: SketchParams::new(100, 4, 2).with_seed(42),
            interval: 5,
            applied: 17,
            mass: 12.25,
            cumulative: vec![plane.clone()],
            seals: vec![SealFrame {
                interval: 4,
                applied: 10,
                mass: 8.0,
                planes: vec![plane],
            }],
        };
        let back = roundtrip(&Response::Exported(transfer.clone()));
        assert_eq!(back, Response::Exported(transfer));
    }

    #[test]
    fn clean_eof_is_none() {
        let mut empty: &[u8] = &[];
        assert!(read_frame::<_, Request>(&mut empty, 1024)
            .unwrap()
            .is_none());
    }

    #[test]
    fn truncated_header_and_body_are_fatal() {
        let mut short: &[u8] = &[0, 0];
        match read_frame::<_, Request>(&mut short, 1024) {
            Err(WireError::Truncated {
                expected: 4,
                got: 2,
            }) => {}
            other => panic!("{other:?}"),
        }
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap();
        buf.truncate(buf.len() - 1);
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, 1024).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
        assert!(!err.is_recoverable());
    }

    #[test]
    fn oversized_frames_drain_and_stay_in_sync() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ping).unwrap(); // frame 1: tiny cap will reject
        write_frame(&mut buf, &Request::Flush(TenantRef { tenant: 1 })).unwrap();
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, 2).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
        assert!(err.is_recoverable());
        // The next frame reads cleanly: the oversized body was drained.
        let next = read_frame::<_, Request>(&mut cursor, 1024)
            .unwrap()
            .unwrap();
        assert_eq!(next, Request::Flush(TenantRef { tenant: 1 }));
    }

    /// Delivers its inner bytes at most `step` bytes per `read` call —
    /// the trickle pattern a hostile peer (or a congested link) shows.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn trickled_frames_decode_bit_for_bit() {
        let req = Request::Ingest(IngestFrame {
            tenant: 9,
            updates: (0..200).map(|i| (i as u64, i as f64 + 0.5)).collect(),
        });
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        for step in [1, 3, 7] {
            let mut r = Trickle {
                data: &buf,
                pos: 0,
                step,
            };
            let back: Request = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
            assert_eq!(back, req, "step {step}");
        }
    }

    #[test]
    fn declared_but_unsent_bodies_are_truncated_not_preallocated() {
        // A 10 MiB declaration backed by 100 actual bytes: the reader
        // must report exactly how much arrived (the incremental path —
        // the old code allocated all 10 MiB before reading a byte).
        let mut buf = (10_485_760u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0x41; 100]);
        match read_frame::<_, Request>(&mut &buf[..], MAX_FRAME_BYTES) {
            Err(WireError::Truncated { expected, got }) => {
                assert_eq!(expected, 10_485_760);
                assert_eq!(got, 100);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn declarations_beyond_the_drain_budget_are_fatal() {
        let max = 1024usize;
        let budget = max * DRAIN_BUDGET_MULTIPLE;
        // Just past the budget: fatal, and nothing past the header is
        // read (the body bytes are still on the stream).
        let mut buf = ((budget as u32) + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0u8; 32]);
        let mut cursor = &buf[..];
        match read_frame::<_, Request>(&mut cursor, max) {
            Err(e @ WireError::Abusive { len, budget: b }) => {
                assert_eq!(len, budget + 1);
                assert_eq!(b, budget);
                assert!(!e.is_recoverable());
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(cursor.len(), 32, "abusive declarations must not drain");

        // Exactly at the budget: still the recoverable drain path.
        let mut buf = (budget as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&vec![0u8; budget]);
        write_frame(&mut buf, &Request::Ping).unwrap();
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, max).unwrap_err();
        assert!(matches!(err, WireError::FrameTooLarge { .. }));
        assert!(err.is_recoverable());
        let next: Request = read_frame(&mut cursor, max).unwrap().unwrap();
        assert_eq!(next, Request::Ping);
    }

    #[test]
    fn corrupt_bodies_are_recoverable_malformed_errors() {
        let body = b"not json";
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(body);
        write_frame(&mut buf, &Request::Ping).unwrap();
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, 1024).unwrap_err();
        assert!(matches!(err, WireError::Malformed { .. }));
        assert!(err.is_recoverable());
        let next = read_frame::<_, Request>(&mut cursor, 1024)
            .unwrap()
            .unwrap();
        assert_eq!(next, Request::Ping);
    }
}
