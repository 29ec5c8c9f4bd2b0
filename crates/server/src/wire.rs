//! The length-prefixed wire protocol.
//!
//! A frame is a `u32` big-endian body length, then the body, written
//! as one buffer in one `write_all`. Every message kind has one fixed
//! little-endian binary body ([`WireBody`]): a tag byte naming the
//! kind, then its fields in the order the tables below list them. One
//! [`Request`] frame in, one [`Response`] frame out, strictly
//! alternating per connection. The journal
//! ([`persist`](crate::persist)) is a sequence of the same frames, one
//! [`JournalRecord`] each.
//!
//! The layout rules:
//!
//! * an integer travels as a `u64` (8 bytes), and an `f64` as its 8
//!   IEEE-754 bytes, so every float arrives exactly as sent — NaN
//!   payloads, ±inf, −0.0 and subnormals included — and the fabric is
//!   the only validator of the values a peer sends;
//! * an enum is a one-byte discriminant, then the variant's payload;
//! * a string is a `u32` byte count, then UTF-8 bytes; a sequence \[`T`\]
//!   is a `u32` count, then the values;
//! * a *plane* is its width (`u64`), its depth (`u64`), then its
//!   `width · depth` cells (`f64`), row-major; it holds at least one
//!   cell.
//!
//! | Tag | [`Request`] | Fields |
//! |---|---|---|
//! | `0x00` | `Ping` | — |
//! | `0x01` | `Ingest` | tenant, \[item `u64`, delta `f64`\] |
//! | `0x02` | `Flush` | tenant |
//! | `0x03` | `AdvanceInterval` | tenant |
//! | `0x04` | `Point` | tenant, item |
//! | `0x05` | `WindowPoint` | tenant, item |
//! | `0x06` | `HeavyHitters` | tenant, phi `f64` |
//! | `0x07` | `WindowHeavyHitters` | tenant, phi `f64` |
//! | `0x08` | `RangeSum` | tenant, lo, hi |
//! | `0x09` | `WindowRangeSum` | tenant, lo, hi |
//! | `0x0A` | `Stats` | tenant |
//! | `0x0B` | `Export` | tenant |
//! | `0x0C` | `Install` | *transfer* |
//! | `0x0D` | `Register` | *spec* |
//!
//! | Tag | [`Response`] | Fields |
//! |---|---|---|
//! | `0x00` | `Pong` | — |
//! | `0x01` | `Admitted` | tenant, pending |
//! | `0x02` | `Busy` | tenant, pending, capacity |
//! | `0x03` | `Shed` | tenant, admitted, quota |
//! | `0x04` | `Flushed` | tenant, applied |
//! | `0x05` | `Sealed` | tenant, sealed interval |
//! | `0x06` | `Value` | tenant, value `f64` |
//! | `0x07` | `HeavyHitters` | tenant, \[item `u64`, estimate `f64`\] |
//! | `0x08` | `Stats` | tenant, shard, applied, mass `f64`, pending, admitted in interval, interval |
//! | `0x09` | `Exported` | *transfer* |
//! | `0x0A` | `Installed` | tenant, shard |
//! | `0x0B` | `Error` | code string, detail string |
//!
//! | Tag | [`JournalRecord`] | Fields |
//! |---|---|---|
//! | `0x00` | `ShardAdded` | shard, weight `f64` |
//! | `0x01` | `ShardRemoved` | shard, weight `f64` |
//! | `0x02` | `TenantRegistered` | *spec* |
//! | `0x03` | `IntervalAdvanced` | tenant |
//! | `0x04` | `Checkpoint` | *transfer* |
//!
//! A [`TenantTransfer`] framed on its own (a rebalance between shards)
//! is the tag `0x00`, then the *transfer*. The nested layouts:
//!
//! | Part | Fields |
//! |---|---|
//! | *transfer* | *spec*, *params*, interval, applied, mass `f64`, admitted in interval, \[*plane*\] cumulative, \[*seal*\] seals |
//! | *spec* | tenant, seed, metric (`0x00` frequency, `0x01` range sum), *mode*, queue capacity, interval quota, audit limit |
//! | *mode* | `0x00` unbounded; `0x01` tumbling, `0x02` sliding or `0x03` rotating, each then its window length |
//! | *params* | n, width, depth, seed, hash kind (`0x00` Carter–Wegman, `0x01` multiply-shift, `0x02` tabulation, `0x03` one-hash) |
//! | *seal* | interval, applied, mass `f64`, \[*plane*\] |
//!
//! An ingest body is thus `13 + 16·n` bytes for `n` updates. At the
//! benchmark's shape (4,096 × 9 cells) a plane is 294,912 bytes, so a
//! [`MAX_FRAME_BYTES`] frame carries 56 planes: a transfer of a
//! `Sliding` tenant with a window of at most 55 intervals, when it
//! comes from a peer. A rebalance inside one fabric and the journal
//! read their frames at the limit of the `u32` length prefix.
//!
//! A body that ends early, runs past its fields, or carries an unknown
//! tag or discriminant is a recoverable [`WireError::Malformed`]; so
//! is a JSON body, the encoding every kind but `Ingest` had before
//! these layouts. A count is checked against the bytes left before
//! anything is allocated, so no body makes its decoder allocate beyond
//! the body itself.
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
//! * body buffers grow **as bytes actually arrive** (read in
//!   [`BODY_CHUNK_BYTES`] steps, the buffer doubling toward the
//!   declared length and never past it), never by the declared length
//!   alone — a peer declaring a huge frame and trickling bytes holds at
//!   most one chunk, or twice what it has already sent (behavior change
//!   vs the original protocol, which allocated the full declared length
//!   up front);
//! * a body that does not decode as the expected type is fully
//!   consumed before [`WireError::Malformed`] is reported — the stream
//!   stays in sync;
//! * [`WireError::Truncated`] / [`WireError::Io`] are fatal: the
//!   stream position is unknown, so the connection must drop.

use crate::persist::{JournalRecord, ShardRecord};
use bas_hash::HashKind;
use bas_sketch::{CounterMatrix, Dense, SketchParams};
use std::io::{Read, Write};

/// Default per-frame size cap (bytes) on a peer's frames: small enough
/// that a hostile length prefix cannot make the server allocate
/// unboundedly.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Hard bound on how much over-declared length the reader will drain,
/// as a multiple of its `max_len` cap: a declaration beyond
/// `max_len · DRAIN_BUDGET_MULTIPLE` is treated as hostile
/// ([`WireError::Abusive`], fatal) rather than read-and-discarded.
pub const DRAIN_BUDGET_MULTIPLE: usize = 4;

/// First byte of a [`Request::Ingest`] body.
pub const INGEST_TAG: u8 = 0x01;

/// Bytes before the first update of an ingest body: tag, tenant
/// (`u64`) and update count (`u32`).
const INGEST_HEAD_BYTES: usize = 13;

/// Bytes per update in an ingest body: item (`u64`), delta (`f64`).
const INGEST_UPDATE_BYTES: usize = 16;

/// The most updates one ingest frame can carry within
/// [`MAX_FRAME_BYTES`]: `(16 MiB − 13) / 16` = 1,048,575.
pub const MAX_INGEST_UPDATES: usize = (MAX_FRAME_BYTES - INGEST_HEAD_BYTES) / INGEST_UPDATE_BYTES;

/// Step size for incremental body reads: a body buffer holds at most
/// one chunk, or twice the bytes that have actually arrived, so a
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
    /// The body did not decode as the expected frame type: it ends
    /// early, runs past its fields, carries an unknown tag or
    /// discriminant or a count its bytes cannot back, or is JSON. The
    /// body was fully consumed, so the connection is still in sync.
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

/// A message that travels as a frame body: [`Request`], [`Response`],
/// [`TenantTransfer`] and [`JournalRecord`], each in the binary layout
/// the [module docs](self) tabulate.
pub trait WireBody: Sized {
    /// Appends the encoded body to `out`.
    ///
    /// # Errors
    /// [`WireError::FrameTooLarge`] if the body cannot fit a frame; `out`
    /// is left as it was.
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError>;

    /// Decodes one complete body.
    ///
    /// # Errors
    /// [`WireError::Malformed`] if `body` is not a valid encoding.
    fn decode_body(body: &[u8]) -> Result<Self, WireError>;
}

/// Tag byte of a [`TenantTransfer`] framed on its own.
const TRANSFER_TAG: u8 = 0x00;

impl WireBody for Request {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode(out, |out| self.put(out))
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode(body, Request::take)
    }
}

impl WireBody for Response {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode(out, |out| self.put(out))
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode(body, Response::take)
    }
}

impl WireBody for JournalRecord {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode(out, |out| self.put(out))
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode(body, JournalRecord::take)
    }
}

impl WireBody for TenantTransfer {
    fn encode_body(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        encode(out, |out| {
            out.push(TRANSFER_TAG);
            self.put(out);
        })
    }

    fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode(body, |body| match body.u8()? {
            TRANSFER_TAG => TenantTransfer::take(body),
            tag => Err(unknown("transfer tag", tag)),
        })
    }
}

/// Appends the body `put` writes, refused whole if it cannot fit the
/// `u32` length prefix.
fn encode(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) -> Result<(), WireError> {
    let start = out.len();
    put(out);
    let len = out.len() - start;
    if u32::try_from(len).is_err() {
        out.truncate(start);
        return Err(WireError::FrameTooLarge {
            len,
            max: u32::MAX as usize,
        });
    }
    Ok(())
}

/// Decodes one whole body with `take`: every byte must belong to it.
fn decode<T>(
    bytes: &[u8],
    take: impl FnOnce(&mut Body<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    if let Some(&first @ (b'{' | b'"')) = bytes.first() {
        return Err(malformed(format!(
            "a body starting with {:?} is JSON; every frame takes its binary body",
            first as char
        )));
    }
    let mut body = Body(bytes);
    let value = take(&mut body)?;
    match body.0.len() {
        0 => Ok(value),
        extra => Err(malformed(format!("{extra} bytes trail the body"))),
    }
}

fn malformed(detail: String) -> WireError {
    WireError::Malformed { detail }
}

fn unknown(what: &str, byte: u8) -> WireError {
    malformed(format!("unknown {what} 0x{byte:02x}"))
}

/// The unread rest of one frame body. Every read is checked against
/// the bytes left, so a short body is [`WireError::Malformed`], never a
/// panic.
struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.0.len() {
            return Err(malformed(format!(
                "the body ends early: {n} bytes wanted, {} left",
                self.0.len()
            )));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn word(&mut self) -> Result<[u8; 8], WireError> {
        Ok(le_word(self.bytes(8)?))
    }

    /// A sequence's `u32` count, refused unless `min_bytes` per value
    /// fit in the bytes left: nothing is allocated for a count the body
    /// cannot back.
    fn count(&mut self, min_bytes: usize) -> Result<usize, WireError> {
        let n = u32::from_le_bytes(le_word(self.bytes(4)?)) as usize;
        let left = self.0.len();
        if n > left / min_bytes {
            return Err(malformed(format!(
                "a count of {n} needs at least {min_bytes} bytes each, {left} left"
            )));
        }
        Ok(n)
    }
}

/// A fixed-size array from a slice the caller has already cut to size.
fn le_word<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes.try_into().expect("caller slices exactly N bytes")
}

/// A sequence count. A sequence longer than `u32::MAX` makes a body
/// longer than `u32::MAX` bytes, which [`encode`] refuses whole.
fn put_count(n: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

/// A value with a fixed little-endian layout inside a body.
trait Field: Sized {
    /// The fewest bytes any encoding of the type takes: a sequence
    /// count is checked against the bytes left at this many per value.
    const MIN_BYTES: usize;

    /// Appends the encoding to `out`.
    fn put(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `body`.
    fn take(body: &mut Body<'_>) -> Result<Self, WireError>;
}

impl Field for u64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(u64::from_le_bytes(body.word()?))
    }
}

impl Field for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        let v = u64::take(body)?;
        usize::try_from(v).map_err(|_| malformed(format!("{v} overflows this host's usize")))
    }
}

impl Field for f64 {
    const MIN_BYTES: usize = 8;

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(f64::from_le_bytes(body.word()?))
    }
}

impl Field for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_count(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        let n = body.count(1)?;
        let text = std::str::from_utf8(body.bytes(n)?)
            .map_err(|e| malformed(format!("a string is not UTF-8: {e}")))?;
        Ok(text.to_owned())
    }
}

impl<T: Field> Field for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        put_count(self.len(), out);
        for value in self {
            value.put(out);
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        let n = body.count(T::MIN_BYTES)?;
        (0..n).map(|_| T::take(body)).collect()
    }
}

/// `(u64, f64)` pairs — ingest updates and heavy hitters — as one
/// 16-byte slot each, written and read in one pass.
fn put_pairs(pairs: &[(u64, f64)], out: &mut Vec<u8>) {
    put_count(pairs.len(), out);
    let start = out.len();
    out.resize(start + 16 * pairs.len(), 0);
    for (slot, &(item, value)) in out[start..].chunks_exact_mut(16).zip(pairs) {
        slot[..8].copy_from_slice(&item.to_le_bytes());
        slot[8..].copy_from_slice(&value.to_le_bytes());
    }
}

fn take_pairs(body: &mut Body<'_>) -> Result<Vec<(u64, f64)>, WireError> {
    let n = body.count(16)?;
    let pairs = body.bytes(16 * n)?.chunks_exact(16).map(|pair| {
        let (item, value) = pair.split_at(8);
        (
            u64::from_le_bytes(le_word(item)),
            f64::from_le_bytes(le_word(value)),
        )
    });
    Ok(pairs.collect())
}

impl Field for IngestFrame {
    const MIN_BYTES: usize = 12;

    fn put(&self, out: &mut Vec<u8>) {
        self.tenant.put(out);
        put_pairs(&self.updates, out);
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(Self {
            tenant: u64::take(body)?,
            updates: take_pairs(body)?,
        })
    }
}

impl Field for HeavyHittersReply {
    const MIN_BYTES: usize = 12;

    fn put(&self, out: &mut Vec<u8>) {
        self.tenant.put(out);
        put_pairs(&self.items, out);
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(Self {
            tenant: u64::take(body)?,
            items: take_pairs(body)?,
        })
    }
}

/// A plane: width, depth, then the cells row-major.
impl Field for CounterMatrix<f64, Dense> {
    const MIN_BYTES: usize = 24;

    fn put(&self, out: &mut Vec<u8>) {
        self.width().put(out);
        self.depth().put(out);
        out.reserve(8 * self.len());
        for row in 0..self.depth() {
            for cell in self.row(row) {
                cell.put(out);
            }
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        let width = usize::take(body)?;
        let depth = usize::take(body)?;
        let left = body.0.len();
        let cells = width
            .checked_mul(depth)
            .filter(|&cells| cells > 0 && cells <= left / 8)
            .ok_or_else(|| {
                malformed(format!(
                    "a {width} x {depth} plane does not fit the {left} bytes left"
                ))
            })?;
        let cells = body.bytes(8 * cells)?.chunks_exact(8);
        let cells = cells.map(|c| f64::from_le_bytes(le_word(c))).collect();
        Ok(CounterMatrix::from_cells(width, depth, cells))
    }
}

/// Implements [`Field`] for structs as their fields in the order
/// listed, which is the order the [module docs](self) tabulate.
macro_rules! layouts {
    ($($ty:ty { $($field:ident: $fty:ty),* $(,)? })*) => {$(
        impl Field for $ty {
            const MIN_BYTES: usize = 0 $(+ <$fty as Field>::MIN_BYTES)*;

            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }

            fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
                Ok(Self { $($field: <$fty as Field>::take(body)?,)* })
            }
        }
    )*};
}

layouts! {
    TenantRef { tenant: u64 }
    PointQuery { tenant: u64, item: u64 }
    HeavyHittersQuery { tenant: u64, phi: f64 }
    RangeQuery { tenant: u64, lo: u64, hi: u64 }
    WindowLen { intervals: u64 }
    TenantSpec {
        tenant: u64,
        seed: u64,
        metric: MetricKind,
        mode: ServingMode,
        queue_capacity: u64,
        interval_quota: u64,
        audit_limit: u64,
    }
    SketchParams { n: u64, width: usize, depth: usize, seed: u64, hash_kind: HashKind }
    SealFrame { interval: u64, applied: u64, mass: f64, planes: Vec<CounterMatrix<f64, Dense>> }
    TenantTransfer {
        spec: TenantSpec,
        params: SketchParams,
        interval: u64,
        applied: u64,
        mass: f64,
        admitted_in_interval: u64,
        cumulative: Vec<CounterMatrix<f64, Dense>>,
        seals: Vec<SealFrame>,
    }
    AdmitReceipt { tenant: u64, pending: u64 }
    BusyReceipt { tenant: u64, pending: u64, capacity: u64 }
    ShedReceipt { tenant: u64, admitted: u64, quota: u64 }
    FlushReceipt { tenant: u64, applied: u64 }
    SealReceipt { tenant: u64, sealed_interval: u64 }
    ValueReply { tenant: u64, value: f64 }
    StatsReply {
        tenant: u64,
        shard: u64,
        applied: u64,
        mass: f64,
        pending: u64,
        admitted_in_interval: u64,
        interval: u64,
    }
    InstallReceipt { tenant: u64, shard: u64 }
    ErrorReply { code: String, detail: String }
    ShardRecord { shard: u64, weight: f64 }
}

impl Field for MetricKind {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            MetricKind::Frequency => 0x00,
            MetricKind::RangeSum => 0x01,
        });
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        match body.u8()? {
            0x00 => Ok(MetricKind::Frequency),
            0x01 => Ok(MetricKind::RangeSum),
            other => Err(unknown("metric", other)),
        }
    }
}

impl Field for ServingMode {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        let (tag, len) = match self {
            ServingMode::Unbounded => (0x00, None),
            ServingMode::Tumbling(len) => (0x01, Some(len)),
            ServingMode::Sliding(len) => (0x02, Some(len)),
            ServingMode::Rotating(len) => (0x03, Some(len)),
        };
        out.push(tag);
        if let Some(len) = len {
            len.put(out);
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        match body.u8()? {
            0x00 => Ok(ServingMode::Unbounded),
            0x01 => Ok(ServingMode::Tumbling(WindowLen::take(body)?)),
            0x02 => Ok(ServingMode::Sliding(WindowLen::take(body)?)),
            0x03 => Ok(ServingMode::Rotating(WindowLen::take(body)?)),
            other => Err(unknown("serving mode", other)),
        }
    }
}

impl Field for HashKind {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            HashKind::CarterWegman => 0x00,
            HashKind::MultiplyShift => 0x01,
            HashKind::Tabulation => 0x02,
            HashKind::OneHash => 0x03,
        });
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        match body.u8()? {
            0x00 => Ok(HashKind::CarterWegman),
            0x01 => Ok(HashKind::MultiplyShift),
            0x02 => Ok(HashKind::Tabulation),
            0x03 => Ok(HashKind::OneHash),
            other => Err(unknown("hash kind", other)),
        }
    }
}

impl Field for Request {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(0x00),
            Request::Ingest(f) => {
                out.reserve(INGEST_HEAD_BYTES + INGEST_UPDATE_BYTES * f.updates.len());
                out.push(INGEST_TAG);
                f.put(out);
            }
            Request::Flush(r) => tagged(out, 0x02, r),
            Request::AdvanceInterval(r) => tagged(out, 0x03, r),
            Request::Point(q) => tagged(out, 0x04, q),
            Request::WindowPoint(q) => tagged(out, 0x05, q),
            Request::HeavyHitters(q) => tagged(out, 0x06, q),
            Request::WindowHeavyHitters(q) => tagged(out, 0x07, q),
            Request::RangeSum(q) => tagged(out, 0x08, q),
            Request::WindowRangeSum(q) => tagged(out, 0x09, q),
            Request::Stats(r) => tagged(out, 0x0A, r),
            Request::Export(r) => tagged(out, 0x0B, r),
            Request::Install(t) => tagged(out, 0x0C, t),
            Request::Register(spec) => tagged(out, 0x0D, spec),
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(match body.u8()? {
            0x00 => Request::Ping,
            INGEST_TAG => Request::Ingest(Field::take(body)?),
            0x02 => Request::Flush(Field::take(body)?),
            0x03 => Request::AdvanceInterval(Field::take(body)?),
            0x04 => Request::Point(Field::take(body)?),
            0x05 => Request::WindowPoint(Field::take(body)?),
            0x06 => Request::HeavyHitters(Field::take(body)?),
            0x07 => Request::WindowHeavyHitters(Field::take(body)?),
            0x08 => Request::RangeSum(Field::take(body)?),
            0x09 => Request::WindowRangeSum(Field::take(body)?),
            0x0A => Request::Stats(Field::take(body)?),
            0x0B => Request::Export(Field::take(body)?),
            0x0C => Request::Install(Field::take(body)?),
            0x0D => Request::Register(Field::take(body)?),
            other => return Err(unknown("request tag", other)),
        })
    }
}

impl Field for Response {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(0x00),
            Response::Admitted(r) => tagged(out, 0x01, r),
            Response::Busy(r) => tagged(out, 0x02, r),
            Response::Shed(r) => tagged(out, 0x03, r),
            Response::Flushed(r) => tagged(out, 0x04, r),
            Response::Sealed(r) => tagged(out, 0x05, r),
            Response::Value(r) => tagged(out, 0x06, r),
            Response::HeavyHitters(r) => tagged(out, 0x07, r),
            Response::Stats(r) => tagged(out, 0x08, r),
            Response::Exported(t) => tagged(out, 0x09, t),
            Response::Installed(r) => tagged(out, 0x0A, r),
            Response::Error(e) => tagged(out, 0x0B, e),
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(match body.u8()? {
            0x00 => Response::Pong,
            0x01 => Response::Admitted(Field::take(body)?),
            0x02 => Response::Busy(Field::take(body)?),
            0x03 => Response::Shed(Field::take(body)?),
            0x04 => Response::Flushed(Field::take(body)?),
            0x05 => Response::Sealed(Field::take(body)?),
            0x06 => Response::Value(Field::take(body)?),
            0x07 => Response::HeavyHitters(Field::take(body)?),
            0x08 => Response::Stats(Field::take(body)?),
            0x09 => Response::Exported(Field::take(body)?),
            0x0A => Response::Installed(Field::take(body)?),
            0x0B => Response::Error(Field::take(body)?),
            other => return Err(unknown("response tag", other)),
        })
    }
}

impl Field for JournalRecord {
    const MIN_BYTES: usize = 1;

    fn put(&self, out: &mut Vec<u8>) {
        match self {
            JournalRecord::ShardAdded(r) => tagged(out, 0x00, r),
            JournalRecord::ShardRemoved(r) => tagged(out, 0x01, r),
            JournalRecord::TenantRegistered(spec) => tagged(out, 0x02, spec),
            JournalRecord::IntervalAdvanced(r) => tagged(out, 0x03, r),
            JournalRecord::Checkpoint(t) => tagged(out, 0x04, t),
        }
    }

    fn take(body: &mut Body<'_>) -> Result<Self, WireError> {
        Ok(match body.u8()? {
            0x00 => JournalRecord::ShardAdded(Field::take(body)?),
            0x01 => JournalRecord::ShardRemoved(Field::take(body)?),
            0x02 => JournalRecord::TenantRegistered(Field::take(body)?),
            0x03 => JournalRecord::IntervalAdvanced(Field::take(body)?),
            0x04 => JournalRecord::Checkpoint(Field::take(body)?),
            other => return Err(unknown("journal record tag", other)),
        })
    }
}

/// A tag byte, then `payload`.
fn tagged(out: &mut Vec<u8>, tag: u8, payload: &impl Field) {
    out.push(tag);
    payload.put(out);
}

/// Writes one frame — `u32` big-endian body length, then the body —
/// as one buffer in one `write_all`. Returns the total bytes written
/// (4 + body).
///
/// # Errors
/// [`WireError::FrameTooLarge`] if the body exceeds `u32::MAX` bytes,
/// [`WireError::Io`] on write failure.
pub fn write_frame<W: Write, T: WireBody>(w: &mut W, msg: &T) -> Result<usize, WireError> {
    // Room for the prefix and any fixed-size body: a point or a reply
    // costs one allocation.
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&[0; 4]);
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

/// Reads a `len`-byte body incrementally, in [`BODY_CHUNK_BYTES`]
/// reads. The buffer grows only when the next chunk does not fit, and
/// then doubles toward `len` but never past it: a large body costs
/// linear copying, a body just past a chunk boundary is not rounded up
/// to twice its size, and a peer declaring a large length and
/// trickling (or never sending) the body pins at most twice what it
/// has delivered, or one chunk.
fn read_body<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, WireError> {
    let mut body = Vec::with_capacity(len.min(BODY_CHUNK_BYTES));
    while body.len() < len {
        let take = (len - body.len()).min(BODY_CHUNK_BYTES);
        let old = body.len();
        if old + take > body.capacity() {
            let grown = body.capacity().saturating_mul(2).clamp(old + take, len);
            body.reserve_exact(grown - old);
        }
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRef {
    /// Tenant id.
    pub tenant: u64,
}

/// A batch of `(item, delta)` updates for one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestFrame {
    /// Tenant id.
    pub tenant: u64,
    /// The updates, in stream order.
    pub updates: Vec<(u64, f64)>,
}

/// A point query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointQuery {
    /// Tenant id.
    pub tenant: u64,
    /// Item to estimate.
    pub item: u64,
}

/// A heavy-hitters query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeavyHittersQuery {
    /// Tenant id.
    pub tenant: u64,
    /// Threshold in `(0, 1)`: report items with estimate ≥ `phi·mass`.
    pub phi: f64,
}

/// An inclusive range-sum query.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Point-frequency / heavy-hitter serving (Count-Median).
    Frequency,
    /// Dyadic range-sum serving (the Count-Median stack).
    RangeSum,
}

/// A window length in intervals (payload for the windowed
/// [`ServingMode`]s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowLen {
    /// Window length in intervals (≥ 1).
    pub intervals: u64,
}

/// How much history the tenant's queries cover.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Updates admitted in the interval in progress, counted against
    /// the spec's `interval_quota`: the destination resumes the count
    /// where the source left it.
    pub admitted_in_interval: u64,
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmitReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates now buffered (≤ the tenant's queue capacity).
    pub pending: u64,
}

/// Backpressure receipt: retry after a flush.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates currently buffered.
    pub pending: u64,
    /// The tenant's queue bound.
    pub capacity: u64,
}

/// Shed receipt: retry next interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates already admitted this interval.
    pub admitted: u64,
    /// The tenant's per-interval quota.
    pub quota: u64,
}

/// Flush receipt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlushReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Updates applied in completed flushes, over the planes the
    /// tenant retains: since boot for `Unbounded`, `Tumbling` and
    /// `Sliding` tenants, the window's generations for `Rotating` ones.
    pub applied: u64,
}

/// Interval-advance receipt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SealReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// The interval just closed.
    pub sealed_interval: u64,
}

/// A scalar query answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueReply {
    /// Tenant id.
    pub tenant: u64,
    /// The estimate; always finite (the fabric answers a non-finite
    /// one with a `non_finite` error).
    pub value: f64,
}

/// A heavy-hitters answer: `(item, estimate)` sorted by decreasing
/// estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct HeavyHittersReply {
    /// Tenant id.
    pub tenant: u64,
    /// The heavy items with their estimates, every one finite.
    pub items: Vec<(u64, f64)>,
}

/// Per-tenant serving statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstallReceipt {
    /// Tenant id.
    pub tenant: u64,
    /// Shard the tenant was installed on.
    pub shard: u64,
}

/// A typed rejection.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// Stable machine-readable code: `unknown_tenant`, `bad_query`,
    /// `bad_update`, `audit_rejected`, `unsupported`, `protocol`,
    /// `tenant_exists`, `incompatible`, `non_finite` (an answer would
    /// carry an infinite or NaN float; answers are finite by
    /// contract).
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
            admitted_in_interval: 6,
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
        // Frame 1 (a 9-byte body) is over the tiny cap, within its
        // drain budget.
        write_frame(&mut buf, &Request::Stats(TenantRef { tenant: 2 })).unwrap();
        write_frame(&mut buf, &Request::Flush(TenantRef { tenant: 1 })).unwrap();
        let mut cursor = &buf[..];
        let err = read_frame::<_, Request>(&mut cursor, 4).unwrap_err();
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
