//! The write-ahead log: every budget-mutating event is appended (and
//! fsynced) *before* the client sees its ack.
//!
//! A restart that forgets spent privacy budget silently refills `B` —
//! the one failure a DP engine can never afford. So the rule is strict
//! write-ahead ordering per event: append the record → charge in memory
//! → sync → only then write the HTTP response. A crash before the sync
//! may lose an event the client was never acked (recovered spend can
//! only *undercount relative to memory*, never relative to acks); a
//! crash between sync and ack recovers spend the client never saw —
//! recovered-spent ≥ acked-sum always holds.
//!
//! ## On-disk format
//!
//! A [framed log](apex_data::store::framed) with magic `APEXWAL3`, one
//! batch (a frame and its trailer) per record, written over the log's
//! pre-zeroed room, `payload := tag:u8 fields…` (fixed-width LE fields).
//! Generations of the v1 layout (`APEXWAL2`) still read; recovery never
//! appends to one, it opens a fresh generation.
//! Tags: 1 = session open, 2 = budget debit (an answered query),
//! 3 = deny (audit only — charges nothing), 4 = session close
//! (TTL expiry or admin, carrying the released unspent slice).
//! Tag 5 (row mutation) is **frozen**: the service no longer writes it —
//! a row mutation's one durable record is its dataset's own mutation log
//! (`apex_data::store::MutationLog`) — and recovery refuses one.
//!
//! ## Group commit
//!
//! A state's handlers share one [`SharedWal`]: the current generation's
//! [`WalWriter`] behind a mutex, and the group-commit gate in front of
//! its syncs. [`SharedWal::append`] returns once the record is durable
//! — one `sync_data` covering every record a group appended — or, for a
//! denial, once it is merely ordered (docs/SERVICE.md, "Group commit").
//! This module is the only place under `crates/serve/src` that syncs the
//! log; CI checks it.
//!
//! ## Tail policy
//!
//! [`WalTail::Torn`] is the expected artifact of a crash mid-append:
//! recovery truncates it and proceeds. [`WalTail::Corrupt`] is bit rot:
//! recovery refuses to start unless explicitly told to truncate. A file
//! with any other magic (an older format) is an error, never a tail. No
//! partial record is ever replayed in any mode. A bit flip in the final
//! record is corrupt, not torn: its batch's trailer shows it was written
//! whole.

use std::fs::File;
use std::path::Path;
#[cfg(any(test, feature = "sched"))]
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use apex_data::store::codec;
use apex_data::store::framed::{self, Format, FramedWriter};
use apex_data::Value;

use crate::lockx;

/// The WAL's magic (format version in the last byte) and payload cap.
pub const WAL_FORMAT: Format = Format {
    magic: b"APEXWAL3",
    v1_magic: Some(b"APEXWAL2"),
    max_payload: 64 << 10,
};

/// One logged event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A session was opened on `dataset` with budget slice `allowance`.
    Open {
        /// Server-assigned session id.
        session: u64,
        /// The tenant dataset the session is bound to.
        dataset: String,
        /// The session's budget slice.
        allowance: f64,
    },
    /// An answered query charged `epsilon` to `session` (and its
    /// tenant's engine). This is the record privacy accounting lives by.
    Debit {
        /// The charged session.
        session: u64,
        /// Actual privacy loss charged.
        epsilon: f64,
    },
    /// A query was denied — charges nothing; logged so the persisted
    /// history mirrors the transcript's interaction order.
    Deny {
        /// The denied session.
        session: u64,
    },
    /// A session was closed (TTL expiry or admin), releasing the unspent
    /// remainder of its slice.
    Close {
        /// The closed session.
        session: u64,
        /// Unspent allowance released back to the grant pool.
        released: f64,
    },
    /// A row mutation — **frozen**: the record of a format in which the
    /// WAL carried mutations. Nothing writes it any more (a mutation's one
    /// durable record is its dataset's mutation log) and
    /// [`Fold::apply`](crate::snapshot::Fold::apply) refuses one.
    /// It keeps its codec for callers that measure a record's size.
    Mutate {
        /// The mutated tenant dataset.
        dataset: String,
        /// `true` for an insert batch, `false` for a delete batch.
        insert: bool,
        /// Dataset epoch after this mutation applied.
        epoch_after: u64,
        /// The requested row batch (never empty).
        rows: Vec<Vec<Value>>,
    },
}

impl WalRecord {
    /// Serializes the payload (tag + fields, no frame).
    fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Open {
                session,
                dataset,
                allowance,
            } => {
                out.push(1);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&allowance.to_le_bytes());
                push_str(&mut out, dataset);
            }
            WalRecord::Debit { session, epsilon } => {
                out.push(2);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&epsilon.to_le_bytes());
            }
            WalRecord::Deny { session } => {
                out.push(3);
                out.extend_from_slice(&session.to_le_bytes());
            }
            WalRecord::Close { session, released } => {
                out.push(4);
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&released.to_le_bytes());
            }
            WalRecord::Mutate {
                dataset,
                insert,
                epoch_after,
                rows,
            } => {
                out.push(5);
                out.push(u8::from(*insert));
                out.extend_from_slice(&epoch_after.to_le_bytes());
                push_str(&mut out, dataset);
                codec::push_rows(&mut out, rows);
            }
        }
        out
    }

    /// Parses a payload. `None` on any structural mismatch (unknown tag,
    /// wrong field width, non-UTF-8 dataset name, trailing bytes) — the
    /// caller treats that as corruption.
    fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
        // Fields in encoding order.
        let mut f = Fields(payload);
        let record = match f.u8()? {
            1 => WalRecord::Open {
                session: f.u64()?,
                allowance: f.f64()?,
                dataset: f.str()?,
            },
            2 => WalRecord::Debit {
                session: f.u64()?,
                epsilon: f.f64()?,
            },
            3 => WalRecord::Deny { session: f.u64()? },
            4 => WalRecord::Close {
                session: f.u64()?,
                released: f.f64()?,
            },
            5 => WalRecord::Mutate {
                insert: match f.u8()? {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
                epoch_after: f.u64()?,
                dataset: f.str()?,
                rows: f.rows()?,
            },
            _ => return None,
        };
        f.end(record)
    }

    /// The record as one frame (with `seq` 0): what an append writes,
    /// byte for byte but for `seq` and the checksum over it, and for the
    /// [`framed::TRAILER`] bytes that close its batch. For callers that
    /// measure a record's size.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        framed::push_frame(&mut out, 0, &self.encode_payload());
        out
    }
}

/// Length-prefixed UTF-8 string framing (u16 LE length + bytes) —
/// shared by the WAL and snapshot codecs so the two formats cannot
/// drift apart.
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = u16::try_from(bytes.len()).expect("names are short");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(bytes);
}

/// A `u32` count, then each item — the encode half of [`Fields::list`].
pub(crate) fn push_list<T>(out: &mut Vec<u8>, items: &[T], push: impl Fn(&mut Vec<u8>, &T)) {
    let len = u32::try_from(items.len()).expect("bounded lists");
    out.extend_from_slice(&len.to_le_bytes());
    for item in items {
        push(out, item);
    }
}

/// The decode side of the WAL and snapshot codecs: a cursor whose
/// readers take little-endian fields in order and return `None` once
/// the bytes run out or do not parse, so a decoder is a chain of `?`.
pub(crate) struct Fields<'a>(pub(crate) &'a [u8]);

impl Fields<'_> {
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.0.split_first_chunk::<N>()?;
        self.0 = rest;
        Some(*head)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_le_bytes)
    }

    pub(crate) fn f64(&mut self) -> Option<f64> {
        self.take().map(f64::from_le_bytes)
    }

    /// The decode half of [`push_str`].
    pub(crate) fn str(&mut self) -> Option<String> {
        let len = u16::from_le_bytes(self.take()?) as usize;
        let (head, rest) = self.0.split_at_checked(len)?;
        self.0 = rest;
        Some(std::str::from_utf8(head).ok()?.to_string())
    }

    /// A row batch in the store's row codec.
    fn rows(&mut self) -> Option<Vec<Vec<Value>>> {
        let (rows, rest) = codec::take_rows(self.0).ok()?;
        self.0 = rest;
        Some(rows)
    }

    /// The decode half of [`push_list`].
    pub(crate) fn list<T>(&mut self, item: impl Fn(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let len = u32::from_le_bytes(self.take()?);
        let mut items = Vec::with_capacity(len.min(1024) as usize);
        for _ in 0..len {
            items.push(item(self)?);
        }
        Some(items)
    }

    /// `value`, if every byte was read: trailing bytes are damage.
    pub(crate) fn end<T>(self, value: T) -> Option<T> {
        self.0.is_empty().then_some(value)
    }
}

/// What follows the last valid record in a WAL.
pub use apex_data::store::framed::Tail as WalTail;

/// Reads and decodes a WAL file: every record of the longest valid
/// prefix, plus the tail classification. **Never** returns a partially
/// decoded record — a frame whose payload fails [`WalRecord`]'s structure
/// check ends the prefix as corrupt. A missing file is an empty WAL.
///
/// # Errors
/// I/O failures; `InvalidData` naming the file when it is not a WAL of
/// this format version (damage is in the [`WalTail`]).
pub fn read_wal(path: &Path) -> std::io::Result<(Vec<WalRecord>, WalTail)> {
    let mut records = Vec::new();
    let (_, tail) = framed::read(path, &WAL_FORMAT, |_, payload| {
        WalRecord::decode_payload(payload)
            .map(|r| records.push(r))
            .is_some()
    })?;
    Ok((records, tail))
}

/// Cuts a damaged WAL back to the end of its valid prefix, in place
/// ([`framed::truncate`]: a v2 generation keeps its zeroed room).
///
/// # Errors
/// Propagates I/O failures.
pub fn truncate_wal(path: &Path, valid_len: u64) -> std::io::Result<()> {
    framed::truncate(path, &WAL_FORMAT, valid_len)
}

/// An append handle: each append synced to disk before it returns. The
/// failure discipline (roll back a partial frame, poison when that
/// fails) is the [`FramedWriter`]'s.
#[derive(Debug)]
pub struct WalWriter {
    log: FramedWriter,
    /// Whether appends fsync before returning. Always true in
    /// production; tests may trade durability for speed.
    sync: bool,
}

impl WalWriter {
    /// Opens `path` for appending at its valid prefix's end; a new or
    /// empty file gets the magic and a chunk of zeroed room (synced when
    /// the writer syncs).
    ///
    /// # Errors
    /// Propagates I/O failures; refuses a file that is not a WAL or whose
    /// tail is damaged.
    pub fn open(path: &Path, sync: bool) -> std::io::Result<Self> {
        let log = FramedWriter::open(path, &WAL_FORMAT, sync)?;
        Ok(Self { log, sync })
    }

    /// Records in this generation's file.
    pub fn records(&self) -> u64 {
        self.log.frames()
    }

    /// Zeroed bytes left in this generation's file.
    pub fn room(&self) -> u64 {
        self.log.room()
    }

    /// Empties this generation's file for reuse as a later one: every
    /// record zeroed, and synced when the writer syncs.
    ///
    /// # Errors
    /// I/O failures.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.log.reset(self.sync)
    }

    /// Appends one record; when the writer syncs (production), the
    /// record is on disk before this returns — the write-ahead
    /// guarantee callers ack against.
    ///
    /// # Errors
    /// I/O failures: the caller must fail the request rather than ack an
    /// unlogged budget mutation. The file is rolled back to the last good
    /// record (or the writer poisoned), so a later append is never
    /// stranded behind a partial frame.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        self.append_with(record, true).map(drop)
    }

    /// The yield points live here, not in the primitive: `apex-data`
    /// cannot see `apex-core`.
    fn append_with(&mut self, record: &WalRecord, durable: bool) -> std::io::Result<Arc<File>> {
        apex_core::sched_point!("wal.append.enter");
        let payload = record.encode_payload();
        let file = if self.sync && durable {
            self.log.append(&payload)?;
            Arc::clone(self.log.file())
        } else {
            self.log.append_deferred(&payload)?
        };
        apex_core::sched_point!("wal.append.ok");
        Ok(file)
    }

    /// Appends one record *without* syncing, returning (when this writer
    /// syncs at all) the file handle the caller must `sync_data` before
    /// acking. The point is lock scope: the fsync — most of an ack's
    /// time on a tiny tenant — runs after the mutex guarding this writer
    /// is released, so a
    /// sibling appends the next record meanwhile and its own fsync rides
    /// the same journal commit: group commit, supplied by the kernel.
    ///
    /// A deferred fsync that fails cannot be rolled back (see
    /// [`FramedWriter::append_deferred`]): the caller must
    /// [`WalWriter::poison`] the writer and fail the request. The record
    /// may still reach disk later — that only *over*-counts recovered
    /// spend relative to acks, the safe direction for a budget ledger.
    ///
    /// # Errors
    /// Write failures, rolled back as for [`WalWriter::append`].
    pub fn append_deferred(&mut self, record: &WalRecord) -> std::io::Result<Option<Arc<File>>> {
        let file = self.append_with(record, false)?;
        Ok(self.sync.then_some(file))
    }

    /// Poisons the writer: every later append fails (see
    /// [`WalWriter::append_deferred`]).
    pub fn poison(&mut self) {
        self.log.poison();
    }
}

/// The WAL a state's handlers share: the current generation's writer and
/// the group-commit gate in front of its syncs.
#[derive(Debug)]
pub(crate) struct SharedWal {
    active: Mutex<Active>,
    gate: SyncGate,
    /// Fault injection beside the state's `fail_appends`: the next N
    /// covering syncs fail, after their records were written and charged.
    #[cfg(any(test, feature = "sched"))]
    pub(crate) fail_syncs: AtomicU64,
}

/// A record appended but not yet known durable: its place in the sync
/// sequence and the file a covering sync must reach.
#[derive(Debug)]
pub(crate) struct Staged(u64, Arc<File>);

#[derive(Debug)]
struct Active {
    writer: WalWriter,
    gen: u64,
    records_since_rotation: u64,
    /// Monotonic count of durable appends (across rotations) — the
    /// sequence the group-commit gate tracks durability against.
    append_seq: u64,
}

impl SharedWal {
    /// Shares `writer`, which appends to generation `gen`.
    pub(crate) fn new(writer: WalWriter, gen: u64) -> Self {
        Self {
            active: Mutex::new(Active {
                writer,
                gen,
                records_since_rotation: 0,
                append_seq: 0,
            }),
            gate: SyncGate::default(),
            #[cfg(any(test, feature = "sched"))]
            fail_syncs: AtomicU64::new(0),
        }
    }

    /// Appends `record` and returns once it is durable — or, for a
    /// denial, once it is ordered: [`SharedWal::stage`], then
    /// [`SharedWal::await_durable`].
    ///
    /// # Errors
    /// The append or the covering sync failing. A failed sync poisons the
    /// writer: every later append fails too.
    pub(crate) fn append(&self, record: &WalRecord) -> std::io::Result<()> {
        match self.stage(record)? {
            Some(staged) => self.await_durable(staged),
            None => Ok(()),
        }
    }

    /// Appends `record` under the writer lock and returns what its ack
    /// must wait for: `None` for a denial or a writer that never syncs,
    /// else the [`Staged`] record for [`SharedWal::await_durable`].
    /// Denials need *ordering* but not *durability*: they charge
    /// nothing, so losing the tail of them in a crash changes no
    /// recovered state, and a deny-heavy workload — the steady state of
    /// an exhausted tenant — must not pay a durability fsync per 409.
    ///
    /// # Errors
    /// The append failing; the record was rolled back (see
    /// [`WalWriter::append`]).
    pub(crate) fn stage(&self, record: &WalRecord) -> std::io::Result<Option<Staged>> {
        // Append under the writer lock, fsync after releasing it (see
        // `SyncGate`): a sibling handler can append the next record
        // while this one's sync is in flight, and a completed sync
        // covers every record appended before it started. With the
        // fsync inside the lock, every record costs a full journal
        // commit plus a scheduler wakeup, back to back.
        let staged = {
            let mut active = lockx::lock(&self.active);
            // A denial's sync handle is dropped: the record is ordered
            // in the file but never fsynced and never enters the sync
            // gate; the next durable append's fsync carries it to disk.
            let sync_me = active
                .writer
                .append_deferred(record)?
                .filter(|_| !matches!(record, WalRecord::Deny { .. }));
            active.records_since_rotation += 1;
            sync_me.map(|file| {
                active.append_seq += 1;
                Staged(active.append_seq, file)
            })
        };
        // A `state.` name: it closes `ServerState::log`'s append, and the
        // exerciser's pinned schedules and `yield_traces` refer to it.
        apex_core::sched_point!("state.log.appended");
        Ok(staged)
    }

    /// Group commit (see `SyncGate`): returns once a `sync_data` that
    /// began after the staged append completed. Loop invariant: on every
    /// pass, either the record is already durable (return), or a group
    /// is gathering (join it), or a sync is in flight (wait for its
    /// result), or this thread leads a new group. A leader that
    /// straddled a WAL rotation syncs the old generation's file —
    /// harmless, the snapshot that rotated it already covers those
    /// records (and the state's exclusive ledger gate keeps a rotation
    /// from racing an in-flight stage-and-wait).
    ///
    /// # Errors
    /// The covering sync failing. The writer is then poisoned: every
    /// later append fails too.
    pub(crate) fn await_durable(&self, Staged(seq, file): Staged) -> std::io::Result<()> {
        let gate = &self.gate;
        let mut prog = lockx::lock(&gate.progress);
        let mut joined = false;
        loop {
            if prog.synced >= seq {
                return Ok(());
            }
            match prog.phase {
                SyncPhase::Idle => {
                    prog.phase = SyncPhase::Gathering;
                    prog.members = 1;
                    break;
                }
                SyncPhase::Gathering => {
                    if !joined {
                        joined = true;
                        prog.members += 1;
                        gate.wake_if_gathered(&prog);
                    }
                    prog = lockx::wait(&gate.wakeup, prog);
                }
                SyncPhase::Syncing => {
                    prog = lockx::wait(&gate.wakeup, prog);
                }
            }
        }
        // This thread leads the group: wait while a present writer has
        // yet to append and join — each join and each writer leaving
        // re-checks — then sync once for everyone. The timer only ends
        // a gather whose peer does neither.
        if prog.members < prog.joinable() {
            prog.gathers += 1;
            let deadline = std::time::Instant::now() + prog.backstop();
            while prog.members < prog.joinable() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    prog.gather_timeouts += 1;
                    break;
                }
                prog = lockx::wait_timeout(&gate.wakeup, prog, left).0;
            }
        }
        prog.phase = SyncPhase::Syncing;
        drop(prog);
        // Everything appended up to here — read under the writer lock —
        // is on file before `sync_data` begins, so it is durable when
        // the call returns.
        let target = lockx::lock(&self.active).append_seq;
        let result = file.sync_data();
        #[cfg(any(test, feature = "sched"))]
        let result = match self
            .fail_syncs
            .fetch_update(SeqCst, SeqCst, |n| n.checked_sub(1))
        {
            Ok(_) => Err(std::io::Error::other("injected WAL sync fault")),
            Err(_) => result,
        };
        let mut prog = lockx::lock(&gate.progress);
        prog.phase = SyncPhase::Idle;
        prog.members = 0;
        match result {
            Ok(()) => {
                prog.synced = prog.synced.max(target);
                prog.syncs += 1;
                drop(prog);
                gate.wakeup.notify_all();
                Ok(())
            }
            Err(e) => {
                // No rollback is possible out here (later appends may
                // already sit behind this record), so fail closed: the
                // writer refuses everything from now on, and this
                // request errors instead of acking. If the record still
                // reaches disk via a later commit, recovery over-counts
                // spend relative to acks — the safe direction. Waiters
                // are woken un-advanced; each retries the sync itself
                // and reports its own failure.
                drop(prog);
                gate.wakeup.notify_all();
                lockx::lock(&self.active).writer.poison();
                Err(e)
            }
        }
    }

    /// The generation appends go to.
    pub(crate) fn generation(&self) -> u64 {
        lockx::lock(&self.active).gen
    }

    /// Whether `every` records or more were appended since the last
    /// rotation.
    pub(crate) fn due(&self, every: u64) -> bool {
        lockx::lock(&self.active).records_since_rotation >= every
    }

    /// Rotates to the next generation, under the writer lock: `next`
    /// receives the current generation and returns the writer for the
    /// one after it (compaction commits its snapshot in between). On
    /// error the current writer stays. Returns the new generation and
    /// the writer it replaced.
    ///
    /// # Errors
    /// Whatever `next` returns.
    pub(crate) fn rotate(
        &self,
        next: impl FnOnce(u64) -> std::io::Result<WalWriter>,
    ) -> std::io::Result<(u64, WalWriter)> {
        let mut active = lockx::lock(&self.active);
        let next = next(active.gen)?;
        let old = std::mem::replace(&mut active.writer, next);
        active.gen += 1;
        active.records_since_rotation = 0;
        Ok((active.gen, old))
    }

    /// The group-commit counters.
    pub(crate) fn stats(&self) -> WalStats {
        // `synced` first: it never exceeds `append_seq`, which only
        // grows, so this order can never show `covered` above
        // `durable_records`.
        let prog = *lockx::lock(&self.gate.progress);
        let active = lockx::lock(&self.active);
        WalStats {
            covered: prog.synced,
            durable_records: active.append_seq,
            room_bytes: active.writer.room(),
            syncs: prog.syncs,
            gathers: prog.gathers,
            gather_timeouts: prog.gather_timeouts,
            present: prog.present,
        }
    }

    /// Gate tests assert counters, never wall clock: they lift the
    /// backstop so a descheduled test thread cannot turn a gather into a
    /// timeout.
    #[cfg(test)]
    pub(crate) fn lift_backstop(&self) {
        lockx::lock(&self.gate.progress).backstop_override = Some(Duration::from_secs(60));
    }

    /// `(present, evaluating)` right now.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> (u64, u64) {
        let prog = lockx::lock(&self.gate.progress);
        (prog.present, prog.evaluating)
    }
}

/// The group-commit gate: records are made durable in *groups*, each
/// group paying one `sync_data` call that covers every member's
/// already-appended record. The first uncovered thread becomes the
/// group's leader and *gathers*: it waits while some writer that could
/// still join has not — `members < present − evaluating`, re-checked
/// whenever a writer joins **or leaves** (a 404, a denial, an evaluate
/// error, a parked connection) — then reads the append high-water mark
/// and syncs once. Joiners just wait for `synced` to
/// pass their seq — the same durability latency they would have spent
/// inside their own `sync_data`, minus the syscall. On a host where
/// fsync cost is dominated by journal-commit CPU rather than device
/// wait, collapsing k concurrent fsyncs into one is what lets
/// independent shard WALs actually scale: every skipped call returns
/// its CPU slice to the other shards. Without gathering, two lockstep
/// writers always miss each other (each append lands just after the
/// other's sync began) and every record still pays a full fsync.
///
/// Who "could still join" is observed, not configured: a shard worker
/// is a **present writer** from the moment it holds a request until it
/// is about to block for input ([`GateCount::present`]), except while
/// it is inside the lock-free evaluate phase — which can run for
/// milliseconds and whose commit the leader must not sit out. A caller
/// with no worker around it (the schedule exerciser, a bench, a test)
/// is never present, so it leads groups of one and syncs at once.
#[derive(Debug, Default)]
struct SyncGate {
    progress: Mutex<SyncProgress>,
    wakeup: Condvar,
}

#[derive(Debug, Default, Clone, Copy)]
struct SyncProgress {
    /// Highest `append_seq` known durable.
    synced: u64,
    /// Current group-commit phase.
    phase: SyncPhase,
    /// Writers that have joined the gathering group (leader included).
    members: u64,
    /// Shard workers currently holding a request.
    present: u64,
    /// Callers inside the evaluate phase. Counted apart from `present`
    /// (not subtracted from it) because a direct caller evaluates
    /// without ever having been present.
    evaluating: u64,
    /// Completed `sync_data` calls.
    syncs: u64,
    /// Groups whose leader waited for a peer at least once.
    gathers: u64,
    /// Gathers the backstop timer ended, not a peer joining or leaving.
    gather_timeouts: u64,
    /// See [`SharedWal::lift_backstop`].
    #[cfg(test)]
    backstop_override: Option<Duration>,
}

impl SyncProgress {
    /// Writers a gathering leader may still expect to join.
    fn joinable(&self) -> u64 {
        self.present.saturating_sub(self.evaluating)
    }

    fn backstop(&self) -> Duration {
        #[cfg(test)]
        if let Some(d) = self.backstop_override {
            return d;
        }
        SYNC_GATHER_TIMEOUT
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum SyncPhase {
    /// No group in flight; the next uncovered writer leads one.
    #[default]
    Idle,
    /// A leader is waiting for peers before issuing the group's sync.
    Gathering,
    /// The group's `sync_data` is in flight.
    Syncing,
}

impl SyncGate {
    /// Wakes a gathering leader that has nobody left to wait for.
    fn wake_if_gathered(&self, prog: &SyncProgress) {
        if prog.phase == SyncPhase::Gathering && prog.members >= prog.joinable() {
            self.wakeup.notify_all();
        }
    }
}

/// One unit of `SyncProgress::present` or `::evaluating`, returned on
/// drop — every exit, unwinding included, so a count cannot leak (a
/// leaked `present` would tax every later commit on the shard the full
/// backstop, forever, with nothing failing). Inert without a WAL.
#[derive(Debug)]
pub(crate) struct GateCount<'a> {
    gate: Option<&'a SyncGate>,
    count: fn(&mut SyncProgress) -> &mut u64,
}

impl<'a> GateCount<'a> {
    /// Marks the calling shard worker a **present writer** — one the
    /// group-commit leader waits for — until the guard drops. Taken when
    /// the worker picks a request up, dropped before it blocks for
    /// input.
    pub(crate) fn present(wal: Option<&'a SharedWal>) -> Self {
        Self::take(wal, |p| &mut p.present)
    }

    /// Marks the caller as inside the evaluate phase: for its duration
    /// it is not a writer a group-commit leader should wait for.
    pub(crate) fn evaluating(wal: Option<&'a SharedWal>) -> Self {
        Self::take(wal, |p| &mut p.evaluating)
    }

    /// Taking a count never ends a gather: an arriving writer is one
    /// more to wait for, and a leader already waiting for a peer waits
    /// its evaluate out too — on the path that pairs commits (a
    /// translator-cache hit) it lasts microseconds and ends in that
    /// peer's join. Only a leader that *finds* the peer evaluating
    /// does not wait for it.
    fn take(wal: Option<&'a SharedWal>, count: fn(&mut SyncProgress) -> &mut u64) -> Self {
        let gate = wal.map(|w| &w.gate);
        if let Some(gate) = gate {
            *count(&mut lockx::lock(&gate.progress)) += 1;
        }
        Self { gate, count }
    }
}

impl Drop for GateCount<'_> {
    fn drop(&mut self) {
        if let Some(gate) = self.gate {
            let mut prog = lockx::lock(&gate.progress);
            *(self.count)(&mut prog) -= 1;
            gate.wake_if_gathered(&prog);
        }
    }
}

/// A shard WAL's group-commit counters, served per shard in
/// `/v1/stats` (docs/SERVICE.md, "Group commit").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended that an ack waits on (denials are ordered but
    /// never synced, and are not counted). Monotonic across rotations.
    pub durable_records: u64,
    /// Highest of those a completed sync covered; equals
    /// `durable_records` whenever no commit is in flight.
    pub covered: u64,
    /// Completed `sync_data` calls: `durable_records / syncs` is the
    /// records-per-sync the gate achieved.
    pub syncs: u64,
    /// Groups whose leader waited for a peer.
    pub gathers: u64,
    /// Gathers ended by the backstop timer.
    pub gather_timeouts: u64,
    /// Workers holding a request right now; zero on an idle shard.
    pub present: u64,
    /// Zeroed bytes left in the current generation's file: appends
    /// within them sync data only.
    pub room_bytes: u64,
}

/// The backstop on a gather: how long a leader waits for a present
/// peer that neither joins nor leaves — in practice one that went from
/// parsing into a translator-cache miss while the leader waited.
const SYNC_GATHER_TIMEOUT: Duration = Duration::from_micros(200);

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Open {
                session: 1,
                dataset: "adult".into(),
                allowance: 0.25,
            },
            WalRecord::Debit {
                session: 1,
                epsilon: 0.0625,
            },
            WalRecord::Deny { session: 1 },
            WalRecord::Open {
                session: 2,
                dataset: "taxi".into(),
                allowance: 0.5,
            },
            WalRecord::Debit {
                session: 2,
                epsilon: 0.125,
            },
            WalRecord::Close {
                session: 1,
                released: 0.1875,
            },
            WalRecord::Mutate {
                dataset: "adult".into(),
                insert: true,
                epoch_after: 3,
                rows: vec![
                    vec![
                        apex_data::Value::Int(41),
                        apex_data::Value::Float(2.5),
                        apex_data::Value::Str("clerk".into()),
                    ],
                    vec![
                        apex_data::Value::Bool(true),
                        apex_data::Value::Null,
                        apex_data::Value::Int(-7),
                    ],
                ],
            },
            WalRecord::Mutate {
                dataset: "taxi".into(),
                insert: false,
                epoch_after: 9,
                rows: vec![vec![apex_data::Value::Int(2)]],
            },
        ]
    }

    /// Writes `bytes` as a WAL file in a fresh temp dir and reads it back.
    fn read_image(tag: &str, bytes: &[u8]) -> std::io::Result<(Vec<WalRecord>, WalTail)> {
        let dir = crate::testutil::temp_dir(tag);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), bytes).unwrap();
        let read = read_wal(&dir.join("wal.log"));
        std::fs::remove_dir_all(&dir).unwrap();
        read
    }

    /// The v2 image of `records`, one batch each, as a writer lays them
    /// down (without room).
    fn encode_log(records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = WAL_FORMAT.magic.to_vec();
        for (seq, r) in records.iter().enumerate() {
            framed::push_frame(&mut bytes, seq as u64, &r.encode_payload());
            framed::push_trailer(&mut bytes, seq as u64 + 1);
        }
        bytes
    }

    #[test]
    fn every_record_type_round_trips() {
        // All five tags, as one log, in order (the frozen tag 5 too: an
        // old file's record must decode so recovery can refuse it by
        // name); `encode` is that log's first frame.
        let records = sample_records();
        let image = encode_log(&records);
        let (decoded, tail) = read_image("wal-rt", &image).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded, records);
        let frame = records[0].encode();
        assert_eq!(image[WAL_FORMAT.magic.len()..][..frame.len()], frame);
    }

    /// A tag-5 record in a WAL (only a file this format never wrote can
    /// hold one) refuses recovery by name: re-applying it could double a
    /// mutation the dataset's own log already holds, and dropping it could
    /// lose one.
    #[test]
    fn recovery_refuses_a_frozen_mutation_record() {
        let dir = crate::testutil::temp_dir("wal-tag5");
        std::fs::create_dir_all(&dir).unwrap();
        let mut w = WalWriter::open(&crate::snapshot::wal_path(&dir, 1), false).unwrap();
        for r in &sample_records()[6..] {
            w.append(r).unwrap();
        }
        drop(w);
        let schema = apex_data::Schema::new(vec![apex_data::Attribute::new(
            "v",
            apex_data::Domain::IntRange { min: 0, max: 7 },
        )])
        .unwrap();
        let data = apex_data::Dataset::empty(schema);
        let recovered = crate::state::ServerState::builder(4)
            .dataset("adult", data, apex_core::EngineConfig::default())
            .build_recovered(crate::state::PersistOptions::new(&dir));
        match recovered {
            Err(crate::state::RecoverError::WalMutation(name)) => assert_eq!(name, "adult"),
            other => panic!("a tag-5 record must refuse recovery, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the WAL adds to the primitive's classification (its sweeps
    /// live in `apex_data::store::framed`): a checksum-valid frame whose
    /// payload is not a [`WalRecord`] ends the prefix as corrupt, and a
    /// file of another format version is an error, never a tail.
    #[test]
    fn corrupt_versus_torn_classification() {
        let records = sample_records();
        let prefix = encode_log(&records[..2]);
        let valid_len = prefix.len() as u64;

        for payload in [&[9u8, 0, 0][..], &[3u8, 1][..], &[]] {
            let mut bytes = prefix.clone();
            framed::push_frame(&mut bytes, 2, payload);
            framed::push_trailer(&mut bytes, 3);
            let (decoded, tail) = read_image("wal-class", &bytes).unwrap();
            assert_eq!(decoded, records[..2]);
            assert_eq!(tail, WalTail::Corrupt { valid_len }, "{payload:?}");
        }

        // Half a record, zeros behind it → torn at the same boundary; a
        // flip in a whole final record (its trailer intact) → corrupt.
        let mut bytes = prefix.clone();
        bytes.extend_from_slice(&records[2].encode()[..10]);
        bytes.resize(bytes.len() + 64, 0);
        let (decoded, tail) = read_image("wal-class", &bytes).unwrap();
        assert_eq!(decoded, records[..2]);
        assert_eq!(tail, WalTail::Torn { valid_len });
        let mut bytes = encode_log(&records[..3]);
        bytes[valid_len as usize + 20] ^= 4;
        let (decoded, tail) = read_image("wal-class", &bytes).unwrap();
        assert_eq!(decoded, records[..2]);
        assert_eq!(tail, WalTail::Corrupt { valid_len });

        // A generation of the v1 layout still reads.
        let mut v1 = WAL_FORMAT.v1_magic.unwrap().to_vec();
        for (seq, r) in records.iter().enumerate() {
            framed::push_frame(&mut v1, seq as u64, &r.encode_payload());
        }
        assert_eq!(
            read_image("wal-class", &v1).unwrap(),
            (records.clone(), WalTail::Clean)
        );

        let mut old = encode_log(&records);
        old[..8].copy_from_slice(b"APEXWAL1");
        let err = read_image("wal-class", &old).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("APEXWAL1"), "{err}");
    }

    #[test]
    fn writer_reader_and_truncation_work_on_real_files() {
        let dir = crate::testutil::temp_dir("wal");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");

        let records = sample_records();
        {
            let mut w = WalWriter::open(&path, true).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
        }
        // Re-opening appends after the existing content.
        {
            let mut w = WalWriter::open(&path, false).unwrap();
            w.append(&WalRecord::Deny { session: 9 }).unwrap();
        }
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded.len(), records.len() + 1);
        assert_eq!(decoded[..records.len()], records);

        // Simulate a crash mid-append: half a record where the next one
        // goes, over the zeroed room.
        let mut bytes = std::fs::read(&path).unwrap();
        let garbage_at = framed::prefix_len(&WAL_FORMAT, &bytes).unwrap() as usize;
        bytes[garbage_at..][..5].copy_from_slice(&records[0].encode()[..5]);
        std::fs::write(&path, &bytes).unwrap();
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(decoded.len(), records.len() + 1);
        assert_eq!(
            tail,
            WalTail::Torn {
                valid_len: garbage_at as u64
            }
        );
        truncate_wal(&path, garbage_at as u64).unwrap();
        let (decoded, tail) = read_wal(&path).unwrap();
        assert_eq!(tail, WalTail::Clean);
        assert_eq!(decoded.len(), records.len() + 1);

        // A missing file reads as a fresh WAL.
        let (decoded, tail) = read_wal(&dir.join("nope.log")).unwrap();
        assert!(decoded.is_empty());
        assert_eq!(tail, WalTail::Clean);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What the sync saving rests on: a generation is created with its
    /// zeroed room, and appends within the room never change the file's
    /// length, so each ack's `sync_data` has no size or extent to commit.
    /// `room_bytes` counts the room down.
    #[test]
    fn appends_within_the_room_never_change_the_file_length() {
        let dir = crate::testutil::temp_dir("wal-room");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let wal = SharedWal::new(WalWriter::open(&path, true).unwrap(), 0);
        let len = || std::fs::metadata(&path).unwrap().len();
        let created = len();
        assert_eq!(created, framed::ROOM_CHUNK);
        let debit = WalRecord::Debit {
            session: 7,
            epsilon: 0.125,
        };
        let per = (debit.encode().len() + framed::TRAILER) as u64;
        let mut room = wal.stats().room_bytes;
        assert_eq!(room, created - WAL_FORMAT.magic.len() as u64);
        for n in 0..200 {
            wal.append(&debit).unwrap();
            assert_eq!(len(), created, "append {n} grew the file");
            let now = wal.stats().room_bytes;
            assert_eq!(now, room - per, "append {n}");
            room = now;
        }
        let (records, tail) = read_wal(&path).unwrap();
        assert_eq!((records.len(), tail), (200, WalTail::Clean));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_never_show_a_sync_covering_more_than_was_appended() {
        let dir = crate::testutil::temp_dir("wal-stats");
        std::fs::create_dir_all(&dir).unwrap();
        let wal = SharedWal::new(WalWriter::open(&dir.join("wal.log"), true).unwrap(), 0);
        let done = std::sync::atomic::AtomicBool::new(false);
        let (writers, appends) = (3, 40);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut samples = 0;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    let stats = wal.stats();
                    assert!(stats.covered <= stats.durable_records, "{stats:?}");
                    samples += 1;
                    std::thread::yield_now();
                }
                samples
            });
            let hammers: Vec<_> = (0..writers)
                .map(|session| {
                    let wal = &wal;
                    s.spawn(move || {
                        for _ in 0..appends {
                            let debit = WalRecord::Debit {
                                session,
                                epsilon: 0.5,
                            };
                            wal.append(&debit).unwrap();
                        }
                    })
                })
                .collect();
            for h in hammers {
                h.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            assert!(reader.join().unwrap() > 0);
        });
        let stats = wal.stats();
        assert_eq!(stats.durable_records, writers * appends);
        assert_eq!(stats.covered, stats.durable_records);

        // The interleaving the hammer rarely hits, pinned: an append and
        // its sync complete while a reader waits between its two reads.
        let prog = lockx::lock(&wal.gate.progress);
        std::thread::scope(|s| {
            let reader = s.spawn(|| wal.stats());
            std::thread::sleep(Duration::from_millis(50));
            let mut active = lockx::lock(&wal.active);
            active
                .writer
                .append(&WalRecord::Deny { session: 0 })
                .unwrap();
            active.append_seq += 1;
            let mut prog = prog;
            prog.synced = active.append_seq;
            drop((active, prog));
            let stats = reader.join().unwrap();
            assert!(stats.covered <= stats.durable_records, "{stats:?}");
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
