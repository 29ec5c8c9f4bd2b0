//! Wire-protocol fuzzing: every frame the protocol can name must
//! survive an encode → frame → deframe → decode round-trip
//! bit-for-bit, and hostile bytes — truncation, corruption, oversized
//! length prefixes — must come back as typed [`WireError`]s, never a
//! panic, and (for the recoverable classes) never a desynced stream.
//! The binary bodies get their own properties: every `f64` field of
//! every request, reply and journal-record kind carries any bit
//! pattern exactly; a truncated body, an unknown tag or discriminant,
//! trailing bytes and a count the body cannot back are `Malformed`,
//! and a count is refused before its decoder allocates; arbitrary bytes
//! after the ingest tag, and a hostile `phi` reaching the fabric, change
//! nothing.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::{
    AdmitReceipt, BusyReceipt, ErrorReply, FlushReceipt, HeavyHittersQuery, HeavyHittersReply,
    IngestFrame, PointQuery, RangeQuery, SealFrame, SealReceipt, ShedReceipt, StatsReply,
    TenantRef, ValueReply, WireBody,
};
use bias_aware_sketches::server::wire::{BODY_CHUNK_BYTES, DRAIN_BUDGET_MULTIPLE};
use bias_aware_sketches::server::{
    read_frame, serve_connection, write_frame, Fabric, FabricConfig, JournalRecord, Request,
    Response, ServingMode, ShardRecord, TenantSpec, TenantTransfer, WindowLen, WireError,
    MAX_FRAME_BYTES,
};
use bias_aware_sketches::sketches::storage::{CounterMatrix, Dense};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread asks the allocator for, so a test can
/// bound what one decode allocates.
struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call forwards to the system allocator unchanged; the
// count is a thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|n| n.set(n.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `f()`'s result and the bytes this thread allocated while it ran.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A small counter plane filled from the drawn cells.
fn plane(cells: &[f64]) -> CounterMatrix<f64, Dense> {
    let mut raw: Vec<f64> = cells.iter().copied().take(8).collect();
    raw.resize(8, 0.0);
    CounterMatrix::from_cells(4, 2, raw)
}

fn spec(sel: u64, tenant: u64, seed: u64) -> TenantSpec {
    let base = match sel % 2 {
        0 => TenantSpec::frequency(tenant, seed),
        _ => TenantSpec::range_sum(tenant, seed),
    };
    let mode = match (sel / 2) % 4 {
        0 => ServingMode::Unbounded,
        1 => ServingMode::Tumbling(WindowLen {
            intervals: 1 + sel % 5,
        }),
        2 => ServingMode::Sliding(WindowLen {
            intervals: 1 + sel % 5,
        }),
        _ => ServingMode::Rotating(WindowLen {
            intervals: 1 + sel % 5,
        }),
    };
    base.with_mode(mode)
        .with_queue_capacity(1 + sel % 1_000)
        .with_interval_quota(1 + sel * 3 % 10_000)
        .with_audit_limit(sel % 4)
}

fn transfer(sel: u64, tenant: u64, cells: &[f64]) -> TenantTransfer {
    TenantTransfer {
        spec: spec(sel, tenant, sel ^ 0xABCD),
        params: SketchParams::new(1_000, 4, 2).with_seed(sel ^ 0xABCD),
        interval: sel % 40,
        applied: sel.wrapping_mul(13) % 1_000,
        mass: cells.first().copied().unwrap_or(0.0),
        admitted_in_interval: sel % 1_000,
        cumulative: vec![plane(cells)],
        seals: vec![SealFrame {
            interval: sel % 7,
            applied: sel % 100,
            mass: cells.last().copied().unwrap_or(0.0),
            planes: vec![plane(cells)],
        }],
    }
}

/// One of every request variant, driven by the drawn selector.
fn request(sel: u64, tenant: u64, updates: &[(u64, f64)], cells: &[f64]) -> Request {
    let phi = cells.last().copied().unwrap_or(0.5);
    match sel % 14 {
        0 => Request::Ping,
        1 => Request::Ingest(IngestFrame {
            tenant,
            updates: updates.to_vec(),
        }),
        2 => Request::Flush(TenantRef { tenant }),
        3 => Request::AdvanceInterval(TenantRef { tenant }),
        4 => Request::Point(PointQuery { tenant, item: sel }),
        5 => Request::WindowPoint(PointQuery { tenant, item: sel }),
        6 => Request::HeavyHitters(HeavyHittersQuery { tenant, phi }),
        7 => Request::WindowHeavyHitters(HeavyHittersQuery { tenant, phi }),
        8 => Request::RangeSum(RangeQuery {
            tenant,
            lo: sel % 50,
            hi: 50 + sel % 50,
        }),
        9 => Request::WindowRangeSum(RangeQuery {
            tenant,
            lo: sel % 50,
            hi: 50 + sel % 50,
        }),
        10 => Request::Stats(TenantRef { tenant }),
        11 => Request::Export(TenantRef { tenant }),
        12 => Request::Install(transfer(sel, tenant, cells)),
        _ => Request::Register(spec(sel, tenant, sel ^ 0x5EED)),
    }
}

/// One of every response variant.
fn response(sel: u64, tenant: u64, updates: &[(u64, f64)], cells: &[f64]) -> Response {
    match sel % 12 {
        0 => Response::Pong,
        1 => Response::Admitted(AdmitReceipt {
            tenant,
            pending: sel % 512,
        }),
        2 => Response::Busy(BusyReceipt {
            tenant,
            pending: sel % 512,
            capacity: 512,
        }),
        3 => Response::Shed(ShedReceipt {
            tenant,
            admitted: sel % 99,
            quota: 99,
        }),
        4 => Response::Flushed(FlushReceipt {
            tenant,
            applied: sel,
        }),
        5 => Response::Sealed(SealReceipt {
            tenant,
            sealed_interval: sel % 64,
        }),
        6 => Response::Value(ValueReply {
            tenant,
            value: cells.first().copied().unwrap_or(1.5),
        }),
        7 => Response::HeavyHitters(HeavyHittersReply {
            tenant,
            items: updates.to_vec(),
        }),
        8 => Response::Stats(StatsReply {
            tenant,
            shard: sel % 8,
            applied: sel,
            mass: cells.last().copied().unwrap_or(-2.5),
            pending: sel % 7,
            admitted_in_interval: sel % 11,
            interval: sel % 64,
        }),
        9 => Response::Exported(transfer(sel, tenant, cells)),
        10 => Response::Installed(bias_aware_sketches::server::wire::InstallReceipt {
            tenant,
            shard: sel % 8,
        }),
        _ => Response::Error(ErrorReply::new("bad_query", format!("fuzzed {sel} ✓"))),
    }
}

/// One of every journal-record variant.
fn record(sel: u64, tenant: u64, cells: &[f64]) -> JournalRecord {
    let shard = ShardRecord {
        shard: sel % 8,
        weight: cells.first().copied().unwrap_or(1.0),
    };
    match sel % 5 {
        0 => JournalRecord::ShardAdded(shard),
        1 => JournalRecord::ShardRemoved(shard),
        2 => JournalRecord::TenantRegistered(spec(sel, tenant, sel ^ 0x5EED)),
        3 => JournalRecord::IntervalAdvanced(TenantRef { tenant }),
        _ => JournalRecord::Checkpoint(transfer(sel, tenant, cells)),
    }
}

/// Drawn `(bits, class)` pairs as `f64`s: raw bits, bits forced to
/// ±inf or a NaN with a payload, or forced to ±0.0 or a subnormal —
/// then every special value by name.
fn hostile_floats(drawn: &[(u64, u8)]) -> Vec<f64> {
    const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
    let drawn = drawn.iter().map(|&(bits, class)| match class {
        0 => bits,
        1 => bits | EXPONENT,
        _ => bits & !EXPONENT,
    });
    let named = [
        0x7FF0_0000_0000_0000, // +inf
        0xFFF0_0000_0000_0000, // -inf
        0x8000_0000_0000_0000, // -0.0
        0x7FF8_0000_0000_0001, // quiet NaN with a payload
        0x7FF0_0000_0000_0001, // signalling NaN
        0xFFFF_FFFF_FFFF_FFFF, // negative NaN, every payload bit set
        0x0000_0000_0000_0001, // smallest subnormal
        0x000F_FFFF_FFFF_FFFF, // largest subnormal
    ];
    drawn.chain(named).map(f64::from_bits).collect()
}

/// `value`'s body, as a frame would carry it.
fn body<T: WireBody>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_body(&mut out).unwrap();
    out
}

/// The bits of every `f64` a message carries, in field order.
trait Floats {
    fn floats(&self) -> Vec<u64>;
}

fn pair_bits(pairs: &[(u64, f64)]) -> Vec<u64> {
    pairs.iter().map(|&(_, f)| f.to_bits()).collect()
}

fn plane_bits(planes: &[CounterMatrix<f64, Dense>], out: &mut Vec<u64>) {
    for plane in planes {
        for row in 0..plane.depth() {
            out.extend(plane.row(row).iter().map(|c| c.to_bits()));
        }
    }
}

impl Floats for TenantTransfer {
    fn floats(&self) -> Vec<u64> {
        let mut out = vec![self.mass.to_bits()];
        plane_bits(&self.cumulative, &mut out);
        for seal in &self.seals {
            out.push(seal.mass.to_bits());
            plane_bits(&seal.planes, &mut out);
        }
        out
    }
}

impl Floats for Request {
    fn floats(&self) -> Vec<u64> {
        match self {
            Request::Ingest(f) => pair_bits(&f.updates),
            Request::HeavyHitters(q) | Request::WindowHeavyHitters(q) => vec![q.phi.to_bits()],
            Request::Install(t) => t.floats(),
            _ => Vec::new(),
        }
    }
}

impl Floats for Response {
    fn floats(&self) -> Vec<u64> {
        match self {
            Response::Value(v) => vec![v.value.to_bits()],
            Response::HeavyHitters(h) => pair_bits(&h.items),
            Response::Stats(s) => vec![s.mass.to_bits()],
            Response::Exported(t) => t.floats(),
            _ => Vec::new(),
        }
    }
}

impl Floats for JournalRecord {
    fn floats(&self) -> Vec<u64> {
        match self {
            JournalRecord::ShardAdded(r) | JournalRecord::ShardRemoved(r) => {
                vec![r.weight.to_bits()]
            }
            JournalRecord::Checkpoint(t) => t.floats(),
            _ => Vec::new(),
        }
    }
}

/// A frame decodes back to a value whose every `f64` has the bits it
/// was sent with (`PartialEq` would fail on NaN and pass -0.0 for
/// 0.0), and whose body is the same bytes.
fn round_trips_by_bits<T: WireBody + Floats>(value: &T) -> Result<(), TestCaseError> {
    let mut frame = Vec::new();
    write_frame(&mut frame, value).unwrap();
    let back: T = read_frame(&mut &frame[..], MAX_FRAME_BYTES)
        .unwrap()
        .unwrap();
    prop_assert_eq!(back.floats(), value.floats());
    prop_assert_eq!(body(&back), &frame[4..]);
    Ok(())
}

/// `bytes` decode as a `T` to a recoverable `Malformed`, framed and
/// followed by another frame that still decodes exactly.
fn is_malformed<T: WireBody + std::fmt::Debug>(bytes: &[u8]) -> Result<(), TestCaseError> {
    let mut buf = (bytes.len() as u32).to_be_bytes().to_vec();
    buf.extend_from_slice(bytes);
    write_frame(&mut buf, &Request::Ping).unwrap();
    let mut cursor = &buf[..];
    match read_frame::<_, T>(&mut cursor, MAX_FRAME_BYTES) {
        Err(e @ WireError::Malformed { .. }) => prop_assert!(e.is_recoverable()),
        other => prop_assert!(
            false,
            "{} bytes: expected Malformed, got {other:?}",
            bytes.len()
        ),
    }
    let next: Request = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap();
    prop_assert_eq!(next, Request::Ping);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every request and response frame round-trips bit-for-bit.
    #[test]
    fn every_frame_round_trips(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 0..16),
        cells in prop::collection::vec(-1e12f64..1e12, 1..9),
    ) {
        let req = request(sel, tenant, &updates, &cells);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let back: Request = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, req);

        let resp = response(sel, tenant, &updates, &cells);
        let mut buf = Vec::new();
        write_frame(&mut buf, &resp).unwrap();
        let back: Response = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, resp);
    }

    /// Truncating a frame anywhere yields `Truncated` (fatal, typed) —
    /// or a clean EOF at the zero cut — and never panics.
    #[test]
    fn truncation_is_a_typed_fatal_error(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 0..8),
        cut_frac in 0.0f64..1.0,
    ) {
        let req = request(sel, tenant, &updates, &[1.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        buf.truncate(cut);
        match read_frame::<_, Request>(&mut &buf[..], MAX_FRAME_BYTES) {
            Ok(None) => prop_assert!(cut == 0, "mid-frame EOF must not read as clean"),
            Ok(Some(_)) => prop_assert!(false, "decoded a truncated frame"),
            Err(e) => {
                prop_assert!(matches!(e, WireError::Truncated { .. }), "{e}");
                prop_assert!(!e.is_recoverable());
            }
        }
    }

    /// Corrupting any **body** byte never panics and never desyncs:
    /// the next frame on the stream still decodes exactly.
    #[test]
    fn body_corruption_cannot_desync_the_stream(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 0..8),
        pos_frac in 0.0f64..1.0,
        flip_bits in 1u64..256,
    ) {
        let flip = flip_bits as u8;
        let first = request(sel, tenant, &updates, &[2.0, -3.0]);
        let second = request(sel.wrapping_add(7), tenant ^ 1, &updates, &[4.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &first).unwrap();
        let first_len = buf.len();
        write_frame(&mut buf, &second).unwrap();

        // Flip one byte inside the first frame's body (offset ≥ 4: the
        // length prefix is the framing contract; body bytes are the
        // attacker-controlled payload).
        let body_span = first_len - 4;
        let pos = 4 + ((body_span - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= flip;

        let mut cursor = &buf[..];
        match read_frame::<_, Request>(&mut cursor, MAX_FRAME_BYTES) {
            Ok(Some(_)) => {} // mutated into a different valid body: fine
            Ok(None) => prop_assert!(false, "corrupt frame read as clean EOF"),
            Err(e) => prop_assert!(e.is_recoverable(), "body corruption must be recoverable: {e}"),
        }
        // In sync either way: the second frame decodes bit-for-bit.
        let back: Request = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, second);
    }

    /// Corrupting *any* byte — length prefix included — never panics;
    /// draining the stream terminates with frames or typed errors.
    #[test]
    fn arbitrary_corruption_never_panics(
        sel in 0u64..10_000,
        pos_frac in 0.0f64..1.0,
        flip_bits in 1u64..256,
    ) {
        let flip = flip_bits as u8;
        let mut buf = Vec::new();
        write_frame(&mut buf, &request(sel, 42, &[(1, 2.0)], &[1.0])).unwrap();
        write_frame(&mut buf, &Request::Ping).unwrap();
        let pos = ((buf.len() - 1) as f64 * pos_frac) as usize;
        buf[pos] ^= flip;
        let mut cursor = &buf[..];
        // A bounded number of reads must consume the stream without
        // panicking; every outcome is a value, a typed error, or EOF.
        for _ in 0..4 {
            match read_frame::<_, Request>(&mut cursor, 1 << 16) {
                Ok(None) => break,
                Ok(Some(_)) => {}
                Err(e) => {
                    if !e.is_recoverable() {
                        break;
                    }
                }
            }
        }
    }

    /// A frame beyond the reader's cap but within the drain budget is
    /// a recoverable `FrameTooLarge`: the oversized body is drained and
    /// the next frame decodes exactly. Beyond the budget
    /// (`cap · DRAIN_BUDGET_MULTIPLE`) the declaration is `Abusive`
    /// and fatal — the reader refuses to pay for the drain.
    #[test]
    fn oversized_frames_drain_and_recover(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 4..16),
        cap_frac in 0.01f64..0.99,
    ) {
        let big = request(1, tenant, &updates, &[1.0]); // Ingest: sizable body
        let small = request(sel, tenant, &[], &[1.0]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &big).unwrap();
        let big_len = buf.len() - 4;
        write_frame(&mut buf, &small).unwrap();

        let cap = 1.max((big_len as f64 * cap_frac) as usize);
        let mut cursor = &buf[..];
        if big_len > cap * DRAIN_BUDGET_MULTIPLE {
            match read_frame::<_, Request>(&mut cursor, cap) {
                Err(e @ WireError::Abusive { .. }) => prop_assert!(!e.is_recoverable()),
                other => prop_assert!(false, "expected Abusive, got ok={:?}", other.is_ok()),
            }
        } else {
            match read_frame::<_, Request>(&mut cursor, cap) {
                Err(e @ WireError::FrameTooLarge { .. }) => prop_assert!(e.is_recoverable()),
                other => prop_assert!(false, "expected FrameTooLarge, got ok={:?}", other.is_ok()),
            }
            let back: Request = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap();
            prop_assert_eq!(back, small);
        }
    }

    /// The trickle pattern: a peer delivering a frame a few bytes per
    /// read must cost the reader only the bytes actually delivered —
    /// and the frame must still decode bit-for-bit once complete.
    #[test]
    fn trickled_frames_decode_bit_for_bit(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 0..16),
        step in 1usize..13,
    ) {
        struct Trickle<'a> { data: &'a [u8], pos: usize, step: usize }
        impl std::io::Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.step.min(buf.len()).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let req = request(sel, tenant, &updates, &[1.5, -2.5]);
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut r = Trickle { data: &buf, pos: 0, step };
        let back: Request = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, req);

        // The same trickle cut short mid-body reports exactly the
        // bytes that arrived, not the declared length.
        let cut = buf.len() - 1;
        let mut r = Trickle { data: &buf[..cut], pos: 0, step };
        match read_frame::<_, Request>(&mut r, MAX_FRAME_BYTES) {
            Err(WireError::Truncated { expected, got }) => {
                prop_assert_eq!(expected, buf.len() - 4);
                prop_assert_eq!(got, cut - 4);
            }
            other => prop_assert!(false, "expected Truncated, got ok={:?}", other.is_ok()),
        }
    }

    /// Arbitrary bytes after the ingest tag never panic: the body
    /// decodes as an `Ingest` frame that re-encodes to the same bytes,
    /// or is a recoverable `Malformed`, and the next frame on the
    /// stream still decodes exactly.
    #[test]
    fn arbitrary_ingest_bodies_decode_or_are_malformed(
        sel in 0u64..10_000,
        tail in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..96),
        fix_count in prop::bool::ANY,
    ) {
        let mut body = vec![0x01];
        body.extend_from_slice(&tail);
        if fix_count && body.len() >= 13 {
            // Half the cases carry a count that matches the length, so
            // the decoding branch is exercised too.
            let n = (body.len() - 13) / 16;
            body.truncate(13 + 16 * n);
            body[9..13].copy_from_slice(&(n as u32).to_le_bytes());
        }
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        let next = request(sel, 7, &[(3, 1.5)], &[1.0]);
        write_frame(&mut buf, &next).unwrap();

        let mut cursor = &buf[..];
        match read_frame::<_, Request>(&mut cursor, MAX_FRAME_BYTES) {
            Ok(Some(req @ Request::Ingest(_))) => {
                let mut again = Vec::new();
                write_frame(&mut again, &req).unwrap();
                prop_assert_eq!(&again[4..], &body[..]);
            }
            Ok(other) => prop_assert!(false, "tagged body decoded as {other:?}"),
            Err(e) => prop_assert!(
                matches!(e, WireError::Malformed { .. }),
                "expected Malformed, got {e}"
            ),
        }
        let back: Request = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, next);
    }

    /// An ingest body whose count disagrees with its length is a
    /// recoverable `Malformed` — one byte short, one byte extra, a
    /// count of `u32::MAX`, or a body cut inside its 13-byte head —
    /// and the stream stays in sync.
    #[test]
    fn ingest_count_must_match_body_length(
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..u64::MAX, -1e9f64..1e9), 0..16),
        case in 0u8..4,
        head_cut in 1usize..13,
    ) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Ingest(IngestFrame { tenant, updates })).unwrap();
        let mut body = buf.split_off(4);
        match case {
            0 => {
                body.pop();
            }
            1 => body.push(0),
            2 => body[9..13].copy_from_slice(&u32::MAX.to_le_bytes()),
            _ => body.truncate(head_cut),
        }
        let mut buf = (body.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        write_frame(&mut buf, &Request::Ping).unwrap();

        let mut cursor = &buf[..];
        match read_frame::<_, Request>(&mut cursor, MAX_FRAME_BYTES) {
            Err(e @ WireError::Malformed { .. }) => prop_assert!(e.is_recoverable()),
            other => prop_assert!(false, "case {case}: expected Malformed, got {other:?}"),
        }
        let back: Request = read_frame(&mut cursor, MAX_FRAME_BYTES).unwrap().unwrap();
        prop_assert_eq!(back, Request::Ping);
    }

    /// Every `f64` bit pattern in a delta round-trips bit for bit:
    /// NaN payloads, ±inf, −0.0 and subnormals included. Compared with
    /// `to_bits`, since `PartialEq` fails on NaN.
    #[test]
    fn every_delta_bit_pattern_round_trips(
        tenant in 0u64..u64::MAX,
        drawn in prop::collection::vec((0u64..u64::MAX, 0u64..u64::MAX, 0u8..3), 0..24),
    ) {
        const EXPONENT: u64 = 0x7FF0_0000_0000_0000;
        let mut updates: Vec<(u64, f64)> = drawn
            .iter()
            .map(|&(item, bits, class)| {
                let bits = match class {
                    0 => bits,
                    1 => bits | EXPONENT,  // ±inf or a NaN with a payload
                    _ => bits & !EXPONENT, // ±0.0 or a subnormal
                };
                (item, f64::from_bits(bits))
            })
            .collect();
        for bits in [
            0x7FF0_0000_0000_0000, // +inf
            0xFFF0_0000_0000_0000, // -inf
            0x8000_0000_0000_0000, // -0.0
            0x7FF8_0000_0000_0001, // quiet NaN with a payload
            0x7FF0_0000_0000_0001, // signalling NaN
            0xFFFF_FFFF_FFFF_FFFF, // negative NaN, every payload bit set
            0x0000_0000_0000_0001, // smallest subnormal
            0x000F_FFFF_FFFF_FFFF, // largest subnormal
        ] {
            updates.push((bits, f64::from_bits(bits)));
        }
        let req = Request::Ingest(IngestFrame { tenant, updates: updates.clone() });
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        prop_assert_eq!(buf.len(), 4 + 13 + 16 * updates.len());
        let back: Request = read_frame(&mut &buf[..], MAX_FRAME_BYTES).unwrap().unwrap();
        let Request::Ingest(frame) = back else {
            return Err(TestCaseError::fail("expected an ingest frame"));
        };
        prop_assert_eq!(frame.tenant, tenant);
        prop_assert_eq!(frame.updates.len(), updates.len());
        for (got, want) in frame.updates.iter().zip(&updates) {
            prop_assert_eq!(got.0, want.0);
            prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request, reply and journal-record kind carries any `f64`
    /// bit pattern in every float field — `phi`, `value`, `mass`,
    /// heavy-hitter estimates, plane cells, seal masses, shard weights
    /// and ingest deltas — and comes back bit for bit: each drawn float
    /// takes every field's slot in turn.
    #[test]
    fn every_kind_carries_every_f64_bit_pattern(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        drawn in prop::collection::vec((0u64..u64::MAX, 0u8..3), 0..6),
    ) {
        let floats = hostile_floats(&drawn);
        for turn in 0..floats.len() {
            let mut cells = floats.clone();
            cells.rotate_left(turn);
            let pairs: Vec<(u64, f64)> =
                cells.iter().enumerate().map(|(i, &f)| (sel ^ i as u64, f)).collect();
            for kind in 0..14 {
                round_trips_by_bits(&request(sel * 14 + kind, tenant, &pairs, &cells))?;
            }
            for kind in 0..12 {
                round_trips_by_bits(&response(sel * 12 + kind, tenant, &pairs, &cells))?;
            }
            for kind in 0..5 {
                round_trips_by_bits(&record(sel * 5 + kind, tenant, &cells))?;
            }
        }
    }

    /// Every proper prefix of every body is `Malformed`, and so is every
    /// body with bytes after its last field; neither panics or desyncs.
    #[test]
    fn truncated_and_overlong_bodies_are_malformed(
        sel in 0u64..10_000,
        tenant in 0u64..u64::MAX,
        updates in prop::collection::vec((0u64..1_000, -1e9f64..1e9), 0..4),
        cells in prop::collection::vec(-1e12f64..1e12, 1..9),
        extra in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 1..9),
    ) {
        fn check<T: WireBody + std::fmt::Debug>(body: Vec<u8>, extra: &[u8]) -> Result<(), TestCaseError> {
            for cut in 0..body.len() {
                is_malformed::<T>(&body[..cut])?;
            }
            let mut long = body;
            long.extend_from_slice(extra);
            is_malformed::<T>(&long)
        }
        check::<Request>(body(&request(sel, tenant, &updates, &cells)), &extra)?;
        check::<Response>(body(&response(sel, tenant, &updates, &cells)), &extra)?;
        check::<JournalRecord>(body(&record(sel, tenant, &cells)), &extra)?;
    }
}

/// Every tag byte no kind names, and every discriminant no metric,
/// serving mode or hash kind names, is `Malformed`, with the stream
/// still in sync. JSON bodies — what every kind but `Ingest` sent
/// before the binary layouts — are refused the same way.
#[test]
fn unknown_tags_and_discriminants_are_malformed() {
    fn each_byte<T: WireBody + std::fmt::Debug>(
        valid: &[u8],
        at: usize,
        unknown: std::ops::RangeInclusive<u8>,
    ) {
        for byte in unknown {
            let mut flipped = valid.to_vec();
            flipped[at] = byte;
            is_malformed::<T>(&flipped)
                .unwrap_or_else(|e| panic!("byte {byte:#04x} at {at}: {e:?}"));
        }
    }
    each_byte::<Request>(&body(&Request::Ping), 0, 0x0E..=0xFF);
    each_byte::<Response>(&body(&Response::Pong), 0, 0x0C..=0xFF);
    let shard = ShardRecord {
        shard: 1,
        weight: 1.0,
    };
    each_byte::<JournalRecord>(&body(&JournalRecord::ShardAdded(shard)), 0, 0x05..=0xFF);
    let transfer = transfer(0, 3, &[1.0]);

    // Register: tag, tenant and seed, then the metric (offset 17) and
    // the serving mode (offset 18). Install of an unbounded tenant:
    // tag, a 42-byte spec, then n, width, depth and seed before the
    // hash kind (offset 75).
    let register = body(&Request::Register(TenantSpec::frequency(3, 33)));
    assert_eq!(register.len(), 43);
    each_byte::<Request>(&register, 17, 0x02..=0xFF);
    each_byte::<Request>(&register, 18, 0x04..=0xFF);
    let install = body(&Request::Install(TenantTransfer {
        spec: TenantSpec::frequency(3, 33),
        ..transfer
    }));
    assert_eq!(install[75], 0x00, "Carter-Wegman");
    each_byte::<Request>(&install, 75, 0x04..=0xFF);

    let json = br#"{"Point":{"tenant":1,"item":2}}"#;
    for bytes in [&json[..], b"\"Ping\""] {
        let mut buf = (bytes.len() as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(bytes);
        match read_frame::<_, Request>(&mut &buf[..], MAX_FRAME_BYTES) {
            Err(e @ WireError::Malformed { .. }) => {
                assert!(e.to_string().contains("binary body"), "{e}")
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}

/// A count the rest of the body cannot back is `Malformed` before the
/// decoder allocates for it: a `u32::MAX` count of updates, heavy
/// hitters or string bytes in a 20-byte body, and a transfer whose
/// plane or seal count, or whose plane shape, runs past its body. Each
/// decode allocates no more than the body and its error message.
#[test]
fn counts_beyond_the_body_are_refused_before_allocating() {
    fn refused<T: WireBody + std::fmt::Debug>(bytes: &[u8]) {
        let mut frame = (bytes.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(bytes);
        let (got, allocated) =
            allocated_by(|| read_frame::<_, T>(&mut &frame[..], MAX_FRAME_BYTES));
        match got {
            Err(WireError::Malformed { .. }) => {}
            other => panic!("expected Malformed, got {other:?}"),
        }
        assert!(
            allocated <= bytes.len() + 1_024,
            "{allocated} bytes allocated for a {}-byte body",
            bytes.len()
        );
    }
    let max = u32::MAX.to_le_bytes();
    // Ingest and HeavyHitters: tag, tenant, count, then 7 stray bytes.
    for tag in [0x01u8, 0x07] {
        let mut bytes = vec![tag];
        bytes.extend_from_slice(&9u64.to_le_bytes());
        bytes.extend_from_slice(&max);
        bytes.extend_from_slice(&[0xAB; 7]);
        assert_eq!(bytes.len(), 20);
        if tag == 0x01 {
            refused::<Request>(&bytes);
        } else {
            refused::<Response>(&bytes);
        }
    }
    // Error: tag, then the code's byte count and 15 stray bytes.
    let mut bytes = vec![0x0B];
    bytes.extend_from_slice(&max);
    bytes.extend_from_slice(&[b'x'; 15]);
    assert_eq!(bytes.len(), 20);
    refused::<Response>(&bytes);

    // A transfer: tag, 42-byte spec, 33-byte params, four words, then
    // the cumulative's plane count (offset 108) and its first plane's
    // width and depth; one count or dimension past the body at a time.
    let transfer = transfer(0, 3, &[1.0; 8]);
    let valid = body(&Response::Exported(TenantTransfer {
        spec: TenantSpec::frequency(3, 33),
        ..transfer
    }));
    let planes = 1 + 42 + 33 + 32;
    assert_eq!(valid[planes..planes + 4], 1u32.to_le_bytes());
    let seals_at = planes + 4 + 16 + 64;
    assert_eq!(valid[seals_at..seals_at + 4], 1u32.to_le_bytes());
    for (at, patch) in [
        (planes, max.to_vec()),
        (planes, 2u32.to_le_bytes().to_vec()),
        (seals_at, max.to_vec()),
        (planes + 4, u64::MAX.to_le_bytes().to_vec()),
        (planes + 12, (1u64 << 40).to_le_bytes().to_vec()),
        (planes + 4, 0u64.to_le_bytes().to_vec()),
    ] {
        let mut bytes = valid.clone();
        bytes[at..at + patch.len()].copy_from_slice(&patch);
        refused::<Response>(&bytes);
    }
}

/// A body just past one read chunk grows to its declared length, not to
/// twice the chunk: a 4,096-update ingest frame (a 65,549-byte body, 13
/// bytes past 64 KiB, the benchmark's ingest frame) decodes bit for bit
/// while its read allocates at most twice its body plus the decoded
/// updates.
#[test]
fn a_body_just_past_one_read_chunk_is_not_doubled() {
    let updates: Vec<(u64, f64)> = (0..4_096u64).map(|i| (i * 7, i as f64 - 0.5)).collect();
    let request = Request::Ingest(IngestFrame { tenant: 5, updates });
    let mut raw = Vec::new();
    write_frame(&mut raw, &request).unwrap();
    let body = raw.len() - 4;
    assert_eq!(body, 13 + 16 * 4_096);
    assert!(body > BODY_CHUNK_BYTES);
    let (got, allocated) =
        allocated_by(|| read_frame::<_, Request>(&mut &raw[..], MAX_FRAME_BYTES));
    assert_eq!(got.unwrap(), Some(request));
    let decoded = 16 * 4_096;
    assert!(
        allocated <= 2 * body + decoded,
        "{allocated} bytes allocated for a {body}-byte body"
    );
}

/// A heavy-hitters query whose `phi` arrives as NaN (any payload) or
/// ±inf is answered `bad_query`, through the wire, on both verbs, and
/// changes nothing: the tenant's stats and answers stay as they were.
#[test]
fn hostile_phi_is_a_bad_query_and_changes_nothing() {
    let mut fabric = Fabric::new(FabricConfig::new(SketchParams::new(1_024, 64, 5)));
    fabric.add_shard(0, 1.0).unwrap();
    let spec =
        TenantSpec::frequency(1, 11).with_mode(ServingMode::Sliding(WindowLen { intervals: 2 }));
    fabric.register_tenant(spec).unwrap();
    let updates: Vec<(u64, f64)> = (0..400u64)
        .map(|i| (i * 7 % 1_024, 1.0 + (i % 3) as f64))
        .collect();
    fabric.handle(Request::Ingest(IngestFrame { tenant: 1, updates }));
    fabric.handle(Request::Flush(TenantRef { tenant: 1 }));
    let state = |fabric: &Fabric| {
        let mut out = vec![format!(
            "{:?}",
            fabric.handle(Request::Stats(TenantRef { tenant: 1 }))
        )];
        for phi in [0.01, 0.1] {
            out.push(format!(
                "{:?}",
                fabric.handle(Request::HeavyHitters(HeavyHittersQuery { tenant: 1, phi }))
            ));
        }
        for item in (0..1_024).step_by(97) {
            out.push(format!(
                "{:?}",
                fabric.handle(Request::Point(PointQuery { tenant: 1, item }))
            ));
        }
        out
    };
    let before = state(&fabric);
    for bits in [
        0x7FF8_0000_0000_0000u64, // NaN
        0x7FF8_0000_0000_0001,    // NaN with a payload
        0xFFF0_0000_0000_0001,    // negative signalling NaN
        0x7FF0_0000_0000_0000,    // +inf
        0xFFF0_0000_0000_0000,    // -inf
    ] {
        let phi = f64::from_bits(bits);
        for req in [
            Request::HeavyHitters(HeavyHittersQuery { tenant: 1, phi }),
            Request::WindowHeavyHitters(HeavyHittersQuery { tenant: 1, phi }),
        ] {
            let mut frames = Vec::new();
            write_frame(&mut frames, &req).unwrap();
            assert_eq!(
                frames[4 + 9..4 + 17],
                bits.to_le_bytes(),
                "phi travels as its bits"
            );
            let mut replies = Vec::new();
            serve_connection(&fabric, &mut &frames[..], &mut replies, MAX_FRAME_BYTES).unwrap();
            match read_frame::<_, Response>(&mut &replies[..], MAX_FRAME_BYTES) {
                Ok(Some(Response::Error(e))) => assert_eq!(e.code, "bad_query", "{bits:#x}: {e:?}"),
                other => panic!("{bits:#x}: expected bad_query, got {other:?}"),
            }
        }
        assert_eq!(state(&fabric), before, "{bits:#x}");
    }
}
