//! Tenant-spec durability: a journal of the fabric's durable state,
//! and recovery from it.
//!
//! The daemon journals every **topology** effect the moment the fabric
//! acknowledges it — shard membership, tenant registrations, interval
//! advances, and full counter-plane checkpoints ([`TenantTransfer`]) —
//! one [`JournalRecord`] per wire frame, in the binary layouts the
//! [`wire`](crate::wire) module docs tabulate, written with
//! [`write_frame`] and flushed per append. Counters admitted between
//! checkpoints are deliberately *not* journaled: sketches are lossy
//! summaries, and write-amplifying every ingest batch to disk would
//! cost more than the estimates are worth. The recovery contract is
//! therefore:
//!
//! * **Crash (kill -9):** [`recover`] replays each record through the
//!   call that journaled it, so it rebuilds the shard ring, every
//!   tenant's spec and placement, and its interval position. Tenants
//!   checkpointed at the last compaction also get their counter
//!   planes and their interval's quota count back through `Install`:
//!   a range-sum tenant in the dyadic layout its planes record (a
//!   checkpoint written before exact coarse levels existed comes back
//!   all grids), a rotating tenant with every retained generation
//!   under its own seed. Counters admitted after the last checkpoint
//!   are lost (the estimates restart from the checkpoint).
//! * **Graceful shutdown:** [`Daemon::shutdown`](crate::Daemon::shutdown)
//!   quiesces (seals open intervals) and calls [`Journal::compact`],
//!   which rewrites the journal as shards + one checkpoint per tenant,
//!   whatever its serving mode — so a restart serves **bit-for-bit**
//!   what the old process served. A tenant that cannot be exported
//!   fails the compaction, and the old journal stays in place.
//! * **Older journals:** a journal written before the binary layouts
//!   is JSON lines; its first byte is `{`, which no frame of under
//!   1.9 GiB starts with. [`recover`], [`read_journal`] and
//!   [`Journal::open`] refuse it with a typed `InvalidData` error that
//!   names the format, before reading a record, and leave the file and
//!   its directory as found (read as frames, the whole file would pass
//!   for one torn frame). To convert one, open it once with a build of
//!   `f66ee0e` or earlier, which rewrites it as frames. A tenant
//!   journaled as its registration plus one `IntervalAdvanced` per
//!   interval (how rotating tenants were compacted before they could
//!   be exported) still recovers, empty, at that interval.
//!
//! * **Torn tail:** a kill or a full disk during an append can leave
//!   the journal ending inside its last frame. A frame that runs past
//!   the end of the file is a *torn tail*, not corruption: [`recover`]
//!   skips it, and [`Journal::open`] moves its bytes to the end of the
//!   sidecar [`Journal::torn_path`] (`<journal>.torn`), syncs that,
//!   then cuts the journal back to its last whole frame and syncs it,
//!   before the first append ([`Journal::torn_bytes`] counts the bytes
//!   moved). A frame has no checksum, so a length prefix damaged in the
//!   middle of the file, claiming more bytes than remain, reads the
//!   same way: the frames after it are moved to the sidecar too, where
//!   they can be put back by hand, never discarded. A whole frame that
//!   does not decode stays a typed corruption error.
//!
//! A compaction is written to a temp file, synced, renamed over the
//! journal, and the journal's directory is synced after the rename, as
//! it is after [`Journal::open`] creates the file: a power loss leaves
//! the old journal or the new one, never a rename undone under records
//! appended since.
//!
//! Placement needs no records of its own: it is a pure function of
//! `(tenant, ring)`, so replaying shard membership in order puts every
//! recovered tenant back on the shard it was on.

use crate::fabric::{Fabric, FabricConfig};
use crate::wire::{
    read_frame, write_frame, ErrorReply, Request, Response, TenantRef, TenantSpec, TenantTransfer,
    WireError,
};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A shard-membership journal entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRecord {
    /// Shard id.
    pub shard: u64,
    /// Capacity weight (meaningful for `ShardAdded` only).
    pub weight: f64,
}

/// One journal record: a durable effect on the fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A shard joined the ring with the given weight.
    ShardAdded(ShardRecord),
    /// A shard left the ring.
    ShardRemoved(ShardRecord),
    /// A fresh tenant was registered from its spec.
    TenantRegistered(TenantSpec),
    /// A tenant's interval advanced (its open interval was sealed).
    IntervalAdvanced(TenantRef),
    /// A full counter-plane checkpoint: spec, planes, interval
    /// position and quota count. Compaction writes one per tenant, and
    /// the daemon journals each `Install` as one.
    Checkpoint(TenantTransfer),
}

/// An append-only journal of frames, flushed per record.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
    /// Records on disk since the last [`compact`](Self::compact)
    /// (seeded from the existing file on open, so a restarted daemon
    /// with a long journal compacts promptly).
    records: u64,
    /// Bytes on disk since the last compaction (same seeding rule).
    bytes: u64,
    /// Bytes of a torn last frame that [`open`](Self::open) moved to
    /// the sidecar.
    torn_bytes: u64,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    /// The journal is walked by its frames' length prefixes, not
    /// decoded ([`recover`] decodes it); if its last frame runs past the
    /// end of the file, those bytes are appended to the sidecar
    /// [`torn_path`](Self::torn_path) and synced, and only then is the
    /// journal cut back to its last whole frame and synced.
    /// [`torn_bytes`](Self::torn_bytes) reports how many bytes moved.
    ///
    /// # Errors
    /// I/O failures, and an older JSON-lines journal (a typed
    /// `InvalidData` error; the file is left as it is).
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        // Seed the growth counters from whatever is already on disk:
        // the thresholds measure distance from the last compaction,
        // and an uncompacted pre-existing file is all distance.
        let existing = Records::open(&path)?;
        let created = existing.is_none();
        let (records, bytes, torn_bytes) = match existing {
            None => (0, 0, 0),
            Some(mut reader) => {
                let len = reader.reader.get_ref().metadata()?.len();
                let (records, whole) = whole_frames(&mut reader.reader, len)?;
                if whole < len {
                    move_torn_tail(&path, whole)?;
                }
                (records, whole, len - whole)
            }
        };
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if created {
            sync_dir(&path)?;
        }
        Ok(Self {
            path,
            writer: BufWriter::new(file),
            records,
            bytes,
            torn_bytes,
        })
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended since the last compaction (seeded from the
    /// file's record count on open).
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Bytes appended since the last compaction (seeded from the
    /// file's length on open).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Bytes of a torn last frame that [`open`](Self::open) cut off the
    /// journal and moved to [`torn_path`](Self::torn_path): 0 if the
    /// journal ended on a frame boundary.
    pub fn torn_bytes(&self) -> u64 {
        self.torn_bytes
    }

    /// The sidecar that keeps every torn tail [`open`](Self::open) cut
    /// off this journal, oldest first: the journal's path with `.torn`
    /// appended.
    pub fn torn_path(&self) -> PathBuf {
        torn_path(&self.path)
    }

    /// Appends one record as a frame and flushes it to the OS.
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let written = write_frame(&mut self.writer, record).map_err(io_error)?;
        self.writer.flush()?;
        self.records += 1;
        self.bytes += written as u64;
        Ok(())
    }

    /// Rewrites the journal as the **current** fabric state: shard
    /// membership, then one [`JournalRecord::Checkpoint`] per tenant
    /// (full counter planes). Atomic via write-to-temp + rename, so a
    /// crash mid-compaction leaves the old journal intact.
    ///
    /// Each tenant is exported under its own write lock, one at a time;
    /// the records are then encoded, written and fsynced outside every
    /// fabric lock, so a compaction holds up no tenant for longer than
    /// its export. The caller keeps journaled effects out while this
    /// runs (the daemon holds the journal lock).
    ///
    /// # Errors
    /// I/O failures, and a tenant whose export fails; either leaves
    /// the old journal in place.
    pub fn compact(&mut self, fabric: &Fabric) -> io::Result<()> {
        let records = snapshot_records(fabric)?;
        write_atomically(&self.path, &records)?;
        let file = OpenOptions::new().append(true).open(&self.path)?;
        self.writer = BufWriter::new(file);
        // The compacted snapshot is the new baseline: the growth
        // counters measure appends since this point.
        self.records = 0;
        self.bytes = 0;
        Ok(())
    }
}

/// Replaces the journal at `path` with `records` as frames: written to
/// a temp file and synced, renamed over the journal, then the
/// directory synced so the rename survives a power loss.
fn write_atomically(path: &Path, records: &[JournalRecord]) -> io::Result<()> {
    let tmp = path.with_extension("journal.tmp");
    {
        let mut out = BufWriter::new(File::create(&tmp)?);
        for record in records {
            write_frame(&mut out, record).map_err(io_error)?;
        }
        out.flush()?;
        out.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path)
}

/// Walks a journal of frames from the reader's start by the frames'
/// length prefixes alone, no body decoded: the number of whole frames
/// in the file's `len` bytes, and where the last of them ends.
fn whole_frames(reader: &mut BufReader<File>, len: u64) -> io::Result<(u64, u64)> {
    let (mut frames, mut end) = (0, 0);
    let mut prefix = [0u8; 4];
    while len - end >= 4 {
        reader.read_exact(&mut prefix)?;
        let body = u64::from(u32::from_be_bytes(prefix));
        if body > len - end - 4 {
            break;
        }
        reader.seek_relative(body as i64)?;
        (frames, end) = (frames + 1, end + 4 + body);
    }
    Ok((frames, end))
}

/// Moves the bytes of the journal at `path` from `whole` on to the end
/// of its sidecar ([`Journal::torn_path`]) and syncs the sidecar and
/// its directory; only then cuts the journal back to `whole` and syncs
/// it. A crash in between leaves the tail in both files, never in
/// neither.
fn move_torn_tail(path: &Path, whole: u64) -> io::Result<()> {
    let mut journal = OpenOptions::new().read(true).write(true).open(path)?;
    let sidecar_path = torn_path(path);
    let mut sidecar = OpenOptions::new()
        .create(true)
        .append(true)
        .open(&sidecar_path)?;
    journal.seek(SeekFrom::Start(whole))?;
    io::copy(&mut journal, &mut sidecar)?;
    sidecar.sync_all()?;
    sync_dir(&sidecar_path)?;
    journal.set_len(whole)?;
    journal.sync_all()
}

/// `path` with `.torn` appended.
fn torn_path(path: &Path) -> PathBuf {
    let mut torn = path.as_os_str().to_owned();
    torn.push(".torn");
    torn.into()
}

/// Syncs the directory that holds `path`, so a file created in it or
/// renamed into it is still there after a power loss.
fn sync_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// A wire error met while writing the journal, as an I/O error.
fn io_error(e: WireError) -> io::Error {
    match e {
        WireError::Io(e) => e,
        other => io::Error::other(other),
    }
}

/// The fabric's durable state as an ordered record list: the shards,
/// then one checkpoint per tenant.
fn snapshot_records(fabric: &Fabric) -> io::Result<Vec<JournalRecord>> {
    let mut records: Vec<JournalRecord> = fabric
        .ring()
        .shards()
        .iter()
        .map(|s| {
            JournalRecord::ShardAdded(ShardRecord {
                shard: s.id,
                weight: s.weight,
            })
        })
        .collect();
    for tenant in fabric.tenant_ids() {
        match fabric.handle(Request::Export(TenantRef { tenant })) {
            Response::Exported(transfer) => records.push(JournalRecord::Checkpoint(transfer)),
            other => {
                return Err(io::Error::other(format!(
                    "tenant {tenant} did not export: {other:?}"
                )))
            }
        }
    }
    Ok(records)
}

/// Reads every record of the journal at `path`, oldest first. No file
/// reads as no records, and a torn last frame is skipped.
///
/// # Errors
/// I/O failures, a corrupt record (a typed `InvalidData` error naming
/// its position, `journal record N`), and an older JSON-lines journal
/// (a typed `InvalidData` error naming the format).
pub fn read_journal<P: AsRef<Path>>(path: P) -> io::Result<Vec<JournalRecord>> {
    match Records::open(path)? {
        Some(records) => records.collect(),
        None => Ok(Vec::new()),
    }
}

/// The records of a journal file, read one at a time.
struct Records {
    reader: BufReader<File>,
    /// Frames read so far.
    read: usize,
}

impl Records {
    /// Opens the journal at `path` for reading; `Ok(None)` if there is
    /// no file.
    ///
    /// # Errors
    /// I/O failures, and a file whose first byte is `{`: an older
    /// JSON-lines journal, refused before anything is read as a frame.
    fn open<P: AsRef<Path>>(path: P) -> io::Result<Option<Self>> {
        let file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut reader = BufReader::new(file);
        if reader.fill_buf()?.first() == Some(&b'{') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "journal {}: a JSON-lines journal, the format before binary frames; \
                     open it once with a build of f66ee0e or earlier to rewrite it as frames",
                    path.as_ref().display()
                ),
            ));
        }
        Ok(Some(Self { reader, read: 0 }))
    }

    /// A failure at the record read last.
    fn corrupt(&self, err: impl std::fmt::Display) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("journal record {}: {err}", self.read),
        )
    }
}

impl Iterator for Records {
    type Item = io::Result<JournalRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read += 1;
        // A journal's frames are bounded only by their `u32` prefix.
        match read_frame(&mut self.reader, u32::MAX as usize) {
            Ok(record) => record.map(Ok),
            // The file ends inside this frame, a torn tail: the records
            // end before it.
            Err(WireError::Truncated { .. }) => None,
            Err(WireError::Io(e)) => Some(Err(e)),
            Err(e) => Some(Err(self.corrupt(e))),
        }
    }
}

/// Replays a journal into a fresh [`Fabric`] built from `config`.
///
/// One pass in file order, each record through the call the daemon
/// made when it journaled the record: [`Fabric::add_shard`] and
/// [`Fabric::remove_shard`] for shard records, and `Register`, `Install`
/// (a checkpoint) or `AdvanceInterval` through [`Fabric::handle`] for
/// the rest. Placement falls out for free — it is a pure function of
/// `(tenant, ring)`.
///
/// A missing journal file recovers an **empty** fabric (first boot).
/// A torn last frame is skipped, and the file left as it is
/// ([`Journal::open`] moves it aside).
///
/// # Errors
/// I/O failures, corrupt records, an older JSON-lines journal (a typed
/// `InvalidData` error naming the format; the file is left as it is),
/// and a record the fabric refuses (an `InvalidData` error naming
/// `journal record N` and the fabric's code — a shard added twice, a
/// tenant registered twice, an advance for an unknown tenant, a spec
/// or checkpoint that does not fit `config`).
pub fn recover<P: AsRef<Path>>(path: P, config: FabricConfig) -> io::Result<Fabric> {
    let mut fabric = Fabric::new(config);
    let Some(mut records) = Records::open(path)? else {
        return Ok(fabric);
    };
    while let Some(record) = records.next() {
        let replayed = match record? {
            JournalRecord::ShardAdded(s) => fabric.add_shard(s.shard, s.weight).map(drop),
            JournalRecord::ShardRemoved(s) => fabric.remove_shard(s.shard).map(drop),
            JournalRecord::TenantRegistered(spec) => replay(&fabric, Request::Register(spec)),
            JournalRecord::IntervalAdvanced(r) => replay(&fabric, Request::AdvanceInterval(r)),
            JournalRecord::Checkpoint(t) => replay(&fabric, Request::Install(t)),
        };
        replayed.map_err(|e| records.corrupt(format_args!("{}: {}", e.code, e.detail)))?;
    }
    Ok(fabric)
}

/// Dispatches a replayed request; `Err` is the fabric's refusal.
fn replay(fabric: &Fabric, request: Request) -> Result<(), ErrorReply> {
    match fabric.handle(request) {
        Response::Error(e) => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{IngestFrame, PointQuery};
    use bas_sketch::SketchParams;

    fn config() -> FabricConfig {
        FabricConfig::new(SketchParams::new(1_024, 64, 5))
    }

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bas-journal-{tag}-{}.journal", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn missing_journal_recovers_an_empty_fabric() {
        let p = temp_path("absent");
        let fabric = recover(&p, config()).unwrap();
        assert_eq!(fabric.tenant_count(), 0);
        assert!(fabric.ring().is_empty());
    }

    #[test]
    fn journal_replay_restores_topology_and_interval_position() {
        let p = temp_path("topology");
        let mut journal = Journal::open(&p).unwrap();
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }))
            .unwrap();
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 1,
                weight: 2.0,
            }))
            .unwrap();
        let spec = TenantSpec::frequency(7, 77);
        journal
            .append(&JournalRecord::TenantRegistered(spec))
            .unwrap();
        journal
            .append(&JournalRecord::IntervalAdvanced(TenantRef { tenant: 7 }))
            .unwrap();
        journal
            .append(&JournalRecord::IntervalAdvanced(TenantRef { tenant: 7 }))
            .unwrap();
        drop(journal);

        let recovered = recover(&p, config()).unwrap();
        assert_eq!(recovered.tenant_count(), 1);
        assert_eq!(recovered.tenant_spec(7), Some(spec));
        let mut reference = Fabric::new(config());
        reference.add_shard(0, 1.0).unwrap();
        reference.add_shard(1, 2.0).unwrap();
        reference.register_tenant(spec).unwrap();
        assert_eq!(recovered.shard_of(7), reference.shard_of(7));
        match recovered.handle(Request::Stats(TenantRef { tenant: 7 })) {
            Response::Stats(s) => assert_eq!(s.interval, 2),
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// The journal a restart with a new `--shard` writes: `ShardAdded(1)`
    /// after registrations, checkpoints and advances. Recovered, every
    /// tenant sits where the ring places it, and its `Stats` and answers
    /// equal, bit for bit, those of a fabric built with both shards
    /// first.
    #[test]
    fn a_shard_added_after_its_tenants_recovers_them_where_the_ring_places_them() {
        use crate::wire::{HeavyHittersQuery, ServingMode, WindowLen};
        let sliding = ServingMode::Sliding(WindowLen { intervals: 2 });
        let spec = |tenant: u64| TenantSpec::frequency(tenant, tenant * 10 + 1).with_mode(sliding);
        let shard = |shard| JournalRecord::ShardAdded(ShardRecord { shard, weight: 1.0 });
        // Shard 1 takes tenants 10, 11 and 14 of these.
        let (registered, checkpointed) = ([1, 2, 10], [3, 11, 14]);
        let mut records = vec![shard(0)];
        records.extend(registered.map(|t| JournalRecord::TenantRegistered(spec(t))));
        let mut source = Fabric::new(config());
        source.add_shard(0, 1.0).unwrap();
        for tenant in checkpointed {
            source.register_tenant(spec(tenant)).unwrap();
            for round in 0..3 {
                let updates = (0..200u64)
                    .map(|i| ((i * 7 + tenant * round) % 1_024, 1.0 + (i % 4) as f64))
                    .collect();
                source.handle(Request::Ingest(IngestFrame { tenant, updates }));
                source.handle(Request::AdvanceInterval(TenantRef { tenant }));
            }
            let Response::Exported(transfer) = source.handle(Request::Export(TenantRef { tenant }))
            else {
                panic!("tenant {tenant} did not export");
            };
            records.push(JournalRecord::Checkpoint(transfer));
        }
        let advance = |tenant| JournalRecord::IntervalAdvanced(TenantRef { tenant });
        records.extend([1, 10, 11, 11, 14].map(advance));
        records.push(shard(1));
        let p = temp_path("shard-after-tenants");
        write_atomically(&p, &records).unwrap();
        let recovered = recover(&p, config()).unwrap();
        std::fs::remove_file(&p).unwrap();

        let mut reference = Fabric::new(config());
        reference.add_shard(0, 1.0).unwrap();
        reference.add_shard(1, 1.0).unwrap();
        for record in &records[1..records.len() - 1] {
            let request = match record.clone() {
                JournalRecord::TenantRegistered(spec) => Request::Register(spec),
                JournalRecord::Checkpoint(transfer) => Request::Install(transfer),
                JournalRecord::IntervalAdvanced(r) => Request::AdvanceInterval(r),
                other => panic!("{other:?}"),
            };
            let response = reference.handle(request);
            assert!(!matches!(response, Response::Error(_)), "{response:?}");
        }
        let answers = |fabric: &Fabric| {
            let mut out = Vec::new();
            for tenant in registered.into_iter().chain(checkpointed) {
                let mut requests = vec![
                    Request::Stats(TenantRef { tenant }),
                    Request::WindowHeavyHitters(HeavyHittersQuery { tenant, phi: 0.01 }),
                ];
                for item in (0..1_024).step_by(97) {
                    requests.push(Request::Point(PointQuery { tenant, item }));
                    requests.push(Request::WindowPoint(PointQuery { tenant, item }));
                }
                let responses = requests.into_iter().map(|r| fabric.handle(r));
                out.extend(responses.map(|r| format!("{r:?}")));
            }
            out
        };
        assert_eq!(answers(&recovered), answers(&reference));
        assert_eq!(recovered.tenants_on(1), [10, 11, 14]);
    }

    /// A record the fabric refuses fails recovery with the fabric's own
    /// refusal: an `InvalidData` error naming the record and the code.
    #[test]
    fn refused_records_fail_recovery_with_the_fabrics_code() {
        let shard = |shard| JournalRecord::ShardAdded(ShardRecord { shard, weight: 1.0 });
        let spec = TenantSpec::frequency(7, 77);
        let registered = JournalRecord::TenantRegistered(spec);
        let mut narrow = Fabric::new(FabricConfig::new(SketchParams::new(1_024, 32, 5)));
        narrow.add_shard(0, 1.0).unwrap();
        narrow.register_tenant(spec).unwrap();
        let Response::Exported(transfer) = narrow.handle(Request::Export(TenantRef { tenant: 7 }))
        else {
            panic!("tenant 7 did not export");
        };
        let unknown = JournalRecord::IntervalAdvanced(TenantRef { tenant: 9 });
        let cases = [
            (vec![shard(0), shard(0)], "journal record 2: protocol"),
            (
                vec![shard(0), registered.clone(), registered],
                "journal record 3: tenant_exists",
            ),
            (vec![shard(0), unknown], "journal record 2: unknown_tenant"),
            (
                vec![shard(0), JournalRecord::Checkpoint(transfer)],
                "journal record 2: incompatible",
            ),
        ];
        let p = temp_path("refused");
        for (records, want) in cases {
            write_atomically(&p, &records).unwrap();
            let err = recover(&p, config()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{want}");
            assert!(err.to_string().contains(want), "{err}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn compaction_checkpoints_counters_bit_for_bit() {
        let p = temp_path("compact");
        let mut fabric = Fabric::new(config());
        fabric.add_shard(0, 1.0).unwrap();
        fabric
            .register_tenant(TenantSpec::frequency(3, 33))
            .unwrap();
        let updates: Vec<(u64, f64)> = (0..500u64).map(|i| (i % 1_024, 2.0)).collect();
        fabric.handle(Request::Ingest(IngestFrame {
            tenant: 3,
            updates: updates.clone(),
        }));
        fabric.handle(Request::Flush(TenantRef { tenant: 3 }));

        let mut journal = Journal::open(&p).unwrap();
        journal.compact(&fabric).unwrap();
        drop(journal);

        let recovered = recover(&p, config()).unwrap();
        for item in (0..1_024u64).step_by(37) {
            let a = match fabric.handle(Request::Point(PointQuery { tenant: 3, item })) {
                Response::Value(v) => v.value,
                other => panic!("{other:?}"),
            };
            let b = match recovered.handle(Request::Point(PointQuery { tenant: 3, item })) {
                Response::Value(v) => v.value,
                other => panic!("{other:?}"),
            };
            assert_eq!(a.to_bits(), b.to_bits(), "item {item}");
        }
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn growth_counters_track_appends_and_reset_on_compact() {
        let p = temp_path("counters");
        let mut journal = Journal::open(&p).unwrap();
        assert_eq!((journal.records(), journal.bytes()), (0, 0));
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }))
            .unwrap();
        journal
            .append(&JournalRecord::TenantRegistered(TenantSpec::frequency(
                1, 11,
            )))
            .unwrap();
        assert_eq!(journal.records(), 2);
        assert_eq!(journal.bytes(), std::fs::metadata(&p).unwrap().len());
        drop(journal);

        // Reopening seeds the counters from what is on disk.
        let mut journal = Journal::open(&p).unwrap();
        assert_eq!(journal.records(), 2);
        assert_eq!(journal.bytes(), std::fs::metadata(&p).unwrap().len());

        // Compaction resets them: the snapshot is the new baseline.
        let fabric = recover(&p, config()).unwrap();
        journal.compact(&fabric).unwrap();
        assert_eq!((journal.records(), journal.bytes()), (0, 0));
        std::fs::remove_file(&p).unwrap();
    }

    /// Kill-during-compaction: a crash after the temp snapshot was
    /// started but before the rename leaves a stale `.journal.tmp`
    /// next to an intact journal. Recovery must read the old journal
    /// untouched, and the next compaction must overwrite the stale
    /// temp and succeed.
    #[test]
    fn stale_compaction_temp_never_corrupts_recovery() {
        let p = temp_path("kill-mid-compact");
        let mut journal = Journal::open(&p).unwrap();
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }))
            .unwrap();
        let spec = TenantSpec::frequency(4, 44);
        journal
            .append(&JournalRecord::TenantRegistered(spec))
            .unwrap();
        journal
            .append(&JournalRecord::IntervalAdvanced(TenantRef { tenant: 4 }))
            .unwrap();
        drop(journal);

        // Simulate the kill: a half-written snapshot temp on disk.
        let tmp = p.with_extension("journal.tmp");
        std::fs::write(&tmp, "{\"ShardAdded\":{\"shard\":9,\"wei").unwrap();

        let recovered = recover(&p, config()).unwrap();
        assert_eq!(recovered.tenant_spec(4), Some(spec));
        match recovered.handle(Request::Stats(TenantRef { tenant: 4 })) {
            Response::Stats(s) => assert_eq!(s.interval, 1),
            other => panic!("{other:?}"),
        }

        // The stale temp does not block the next compaction cycle.
        let mut journal = Journal::open(&p).unwrap();
        journal.compact(&recovered).unwrap();
        assert!(!tmp.exists(), "compaction must consume the temp file");
        let after = recover(&p, config()).unwrap();
        assert_eq!(after.tenant_spec(4), Some(spec));
        std::fs::remove_file(&p).unwrap();
    }

    /// A whole frame that does not decode (an unknown tag, a body too
    /// short for its fields) is a typed `InvalidData` error naming the
    /// record, at the end of the file or with frames after it.
    #[test]
    fn corrupt_frames_are_typed_errors_with_record_numbers() {
        let p = temp_path("corrupt-frame");
        let mut journal = Journal::open(&p).unwrap();
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }))
            .unwrap();
        drop(journal);
        let good = std::fs::read(&p).unwrap();
        for bad in [&[0, 0, 0, 2, 0xEE, 0xEE][..], &[0, 0, 0, 2, 0x03, 7]] {
            for after in [&[][..], &good] {
                let bytes = [&good[..], bad, after].concat();
                std::fs::write(&p, &bytes).unwrap();
                let err = recover(&p, config()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains("journal record 2"), "{err}");
            }
        }
        std::fs::remove_file(&p).unwrap();
    }

    /// A journal of a shard, a registration, a checkpoint and an advance
    /// is cut at every byte. Each cut recovers, bit for bit, to the
    /// fabric that its whole frames give. Reopened, the journal is cut
    /// back to those frames, the bytes past them are in the sidecar and
    /// counted as torn, and the next append lands right after them.
    #[test]
    fn a_journal_cut_at_any_byte_recovers_its_whole_frames() {
        use crate::wire::{ServingMode, WindowLen};
        let config = || FabricConfig::new(SketchParams::new(64, 8, 3));
        let mut source = Fabric::new(config());
        source.add_shard(0, 1.0).unwrap();
        source
            .register_tenant(TenantSpec::frequency(3, 33))
            .unwrap();
        source.handle(Request::Ingest(IngestFrame {
            tenant: 3,
            updates: (0..40u64).map(|i| (i % 64, 1.0 + (i % 3) as f64)).collect(),
        }));
        source.handle(Request::Flush(TenantRef { tenant: 3 }));
        let Response::Exported(transfer) = source.handle(Request::Export(TenantRef { tenant: 3 }))
        else {
            panic!("tenant 3 did not export");
        };
        let sliding = ServingMode::Sliding(WindowLen { intervals: 2 });
        let records = [
            JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }),
            JournalRecord::TenantRegistered(TenantSpec::frequency(7, 77).with_mode(sliding)),
            JournalRecord::Checkpoint(transfer),
            JournalRecord::IntervalAdvanced(TenantRef { tenant: 7 }),
        ];
        let frame = |record: &JournalRecord| {
            let mut out = Vec::new();
            write_frame(&mut out, record).unwrap();
            out
        };
        let frames: Vec<Vec<u8>> = records.iter().map(frame).collect();
        let bytes = frames.concat();
        // ends[k]: the length of the first k frames.
        let mut ends = vec![0];
        for f in &frames {
            ends.push(ends.last().unwrap() + f.len());
        }
        // A fabric's durable state as compaction writes it, as bytes.
        let state = |fabric: &Fabric| {
            snapshot_records(fabric)
                .unwrap()
                .iter()
                .flat_map(frame)
                .collect::<Vec<u8>>()
        };
        let p = temp_path("torn");
        let want: Vec<Vec<u8>> = ends
            .iter()
            .map(|&end| {
                std::fs::write(&p, &bytes[..end]).unwrap();
                state(&recover(&p, config()).unwrap())
            })
            .collect();
        assert!(
            want.windows(2).all(|w| w[0] != w[1]),
            "every record changes the state"
        );

        let next = JournalRecord::ShardAdded(ShardRecord {
            shard: 9,
            weight: 2.0,
        });
        let side = torn_path(&p);
        for cut in 0..=bytes.len() {
            let k = ends.iter().rposition(|&end| end <= cut).unwrap();
            let torn = &bytes[ends[k]..cut];
            std::fs::write(&p, &bytes[..cut]).unwrap();
            let _ = std::fs::remove_file(&side);
            assert_eq!(
                state(&recover(&p, config()).unwrap()),
                want[k],
                "cut at {cut}"
            );

            let mut journal = Journal::open(&p).unwrap();
            assert_eq!(journal.torn_path(), side);
            assert_eq!(journal.torn_bytes(), torn.len() as u64, "cut at {cut}");
            assert_eq!(journal.records(), k as u64, "cut at {cut}");
            assert_eq!(journal.bytes(), ends[k] as u64, "cut at {cut}");
            assert_eq!(std::fs::read(&p).unwrap(), bytes[..ends[k]], "cut at {cut}");
            let kept = std::fs::read(&side).ok();
            let want_kept = (!torn.is_empty()).then_some(torn);
            assert_eq!(kept.as_deref(), want_kept, "cut at {cut}");
            journal.append(&next).unwrap();
            drop(journal);
            let appended = [&bytes[..ends[k]], &frame(&next)[..]].concat();
            assert_eq!(std::fs::read(&p).unwrap(), appended, "cut at {cut}");
        }
        std::fs::remove_file(&p).unwrap();
        let _ = std::fs::remove_file(&side);
    }

    /// A frame has no checksum, so a length prefix damaged in the middle
    /// of the journal, claiming more bytes than remain, reads as a torn
    /// tail: recovery stops before it, and reopening moves it and every
    /// frame after it to the sidecar, after the tail an earlier open
    /// kept there. Nothing is discarded: with the prefix mended and the
    /// moved frames put back, every record recovers.
    #[test]
    fn a_damaged_length_prefix_moves_the_frames_after_it_to_the_sidecar() {
        let p = temp_path("damaged-prefix");
        let side = torn_path(&p);
        let spec = TenantSpec::frequency(7, 77);
        let mut journal = Journal::open(&p).unwrap();
        journal
            .append(&JournalRecord::ShardAdded(ShardRecord {
                shard: 0,
                weight: 1.0,
            }))
            .unwrap();
        let head = journal.bytes() as usize;
        journal
            .append(&JournalRecord::TenantRegistered(spec))
            .unwrap();
        journal
            .append(&JournalRecord::IntervalAdvanced(TenantRef { tenant: 7 }))
            .unwrap();
        drop(journal);
        let good = std::fs::read(&p).unwrap();
        let mut damaged = good.clone();
        damaged[head] = 0xFF; // the second frame now claims over 4 GB
        std::fs::write(&p, &damaged).unwrap();
        let earlier = b"an earlier torn tail";
        std::fs::write(&side, earlier).unwrap();

        let recovered = recover(&p, config()).unwrap();
        assert!(recovered.ring().contains(0));
        assert_eq!(recovered.tenant_count(), 0);

        let journal = Journal::open(&p).unwrap();
        assert_eq!(journal.records(), 1);
        assert_eq!(journal.torn_bytes(), (good.len() - head) as u64);
        drop(journal);
        assert_eq!(std::fs::read(&p).unwrap(), good[..head]);
        let kept = std::fs::read(&side).unwrap();
        assert_eq!(kept, [&earlier[..], &damaged[head..]].concat());

        let mut moved = kept[earlier.len()..].to_vec();
        moved[0] = good[head];
        let mut file = OpenOptions::new().append(true).open(&p).unwrap();
        file.write_all(&moved).unwrap();
        drop(file);
        let recovered = recover(&p, config()).unwrap();
        assert_eq!(recovered.tenant_spec(7), Some(spec));
        match recovered.handle(Request::Stats(TenantRef { tenant: 7 })) {
            Response::Stats(s) => assert_eq!(s.interval, 1),
            other => panic!("{other:?}"),
        }
        std::fs::remove_file(&p).unwrap();
        std::fs::remove_file(&side).unwrap();
    }
}
