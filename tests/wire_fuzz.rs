//! Wire-protocol fuzzing: every frame the protocol can name must
//! survive a serialize → frame → deframe → deserialize round-trip
//! bit-for-bit, and hostile bytes — truncation, corruption, oversized
//! length prefixes — must come back as typed [`WireError`]s, never a
//! panic, and (for the recoverable classes) never a desynced stream.
//! The binary ingest body gets its own properties: arbitrary bytes
//! after the tag, counts that disagree with the body length, and every
//! `f64` bit pattern as a delta.

use bias_aware_sketches::prelude::*;
use bias_aware_sketches::server::wire::DRAIN_BUDGET_MULTIPLE;
use bias_aware_sketches::server::wire::{
    AdmitReceipt, BusyReceipt, ErrorReply, FlushReceipt, HeavyHittersQuery, HeavyHittersReply,
    IngestFrame, PointQuery, RangeQuery, SealFrame, SealReceipt, ShedReceipt, StatsReply,
    TenantRef, ValueReply,
};
use bias_aware_sketches::server::{
    read_frame, write_frame, Request, Response, ServingMode, TenantSpec, TenantTransfer, WindowLen,
    WireError, MAX_FRAME_BYTES,
};
use bias_aware_sketches::sketches::storage::{CounterMatrix, Dense};
use proptest::prelude::*;

/// A small counter plane filled from the drawn cells (finite `f64`s
/// round-trip exactly through the JSON wire format).
fn plane(cells: &[f64]) -> CounterMatrix<f64, Dense> {
    let mut m = CounterMatrix::<f64, Dense>::new(4, 2);
    for (i, &v) in cells.iter().take(8).enumerate() {
        m.add(i / 4, i % 4, v);
    }
    m
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
    let phi = 0.001 + (sel % 100) as f64 / 200.0;
    match sel % 13 {
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
        _ => Request::Install(transfer(sel, tenant, cells)),
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
        _ => Response::Error(ErrorReply::new("bad_query", format!("fuzzed {sel}"))),
    }
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
            Ok(Some(_)) => {} // mutated into different-but-valid JSON: fine
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
