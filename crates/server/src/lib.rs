//! # bas-server — the multi-tenant serving fabric
//!
//! `bas-serve` serves **one** sketch to live queries; this crate
//! serves **many** — a long-running fabric hosting one `QueryEngine`
//! per tenant, a frequency or a range-sum engine under the tenant's
//! serving policy, behind a wire protocol. Four planes:
//!
//! * **Placement** ([`placement`]) — tenants map to engine shards by
//!   weighted rendezvous hashing ([`PlacementRing`]), with Lamport &
//!   Veach's [`jump_hash`] as the unweighted baseline. Placement is a
//!   pure function of `(tenant, ring)`: every node computes the same
//!   answer, load is proportional to shard weight, and membership
//!   changes move only the tenants they must.
//! * **Wire protocol** ([`wire`]) — `u32` length-prefixed frames, each
//!   written in one `write_all`. Every body is fixed little-endian
//!   binary behind one tag byte (an ingest batch costs 16 bytes per
//!   update, a point query 17 bytes), every `f64` travels as its bits,
//!   and the journal ([`persist`]) is a sequence of the same frames.
//!   One [`Request`] in, one [`Response`] out; oversized and corrupt
//!   frames are drained and answered with typed errors, so a hostile
//!   client can neither desync nor crash the connection loop
//!   ([`connection`]).
//! * **Admission control** ([`Fabric::handle`]) — each tenant's spec
//!   carries a queue bound and a per-interval quota. Ingest beyond the
//!   bound gets [`Response::Busy`] (retry after flush); beyond the
//!   quota gets [`Response::Shed`] (retry next interval). A rejected
//!   batch admits nothing, and one tenant's saturation never touches
//!   its neighbors' answers — the isolation the conformance suite
//!   pins down.
//! * **Moves by linearity** — a shard add or remove relabels tenants
//!   and moves no state. Moving a tenant between fabrics
//!   (`Export`/`Install`) ships only its counter planes; the
//!   destination rebuilds hashers from the tenant's seed and absorbs
//!   the planes by sketch linearity. An installed tenant answers
//!   **bit-for-bit** like the one exported — the paper's linearity
//!   property doing operational work.
//!
//! The fabric is deliberately transport-agnostic: [`serve_connection`]
//! speaks through any `Read`/`Write` pair, so the same loop runs over
//! TCP, unix sockets, or the in-memory buffers the test planes use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;

pub mod connection;
pub mod fabric;
pub mod listener;
pub mod persist;
pub mod placement;
pub mod wire;

pub use connection::{
    call, call_with_retry, serve_connection, Client, IngestBatcher, RetryError, RetryPolicy,
};
pub use fabric::{Fabric, FabricConfig, RebalanceReport, TenantMove};
pub use listener::{ConnectionError, Daemon, DaemonConfig, Deadlines, ShutdownReport};
pub use persist::{read_journal, recover, Journal, JournalRecord, ShardRecord};
pub use placement::{jump_hash, PlacementRing, ShardWeight};
pub use wire::{
    read_frame, write_frame, ErrorReply, IngestFrame, MetricKind, Request, Response, ServingMode,
    TenantRef, TenantSpec, TenantTransfer, WindowLen, WireError, MAX_FRAME_BYTES,
};
