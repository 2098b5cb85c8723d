//! Snapshots: periodic compaction of the ledger + session table, and
//! the state-directory layout recovery reads.
//!
//! A WAL alone grows without bound and replays from the beginning of
//! time. Compaction folds everything the WAL said so far into one
//! atomic **snapshot** (per-tenant spent/reclaimed budget, the live
//! session table, expired-session tombstones), then rotates to a fresh
//! WAL generation. The state directory therefore holds:
//!
//! ```text
//! state-dir/
//!   snapshot.bin    one checksummed snapshot (`framed::write_atomic`)
//!   wal-<GEN>.log   generation-numbered WALs; the snapshot records the
//!                   generation it covers *through*, recovery replays
//!                   only generations beyond it
//! ```
//!
//! The rotation protocol is crash-safe at every step: the next WAL
//! generation is opened first, then the snapshot is written to a temp
//! file, fsynced, and renamed over `snapshot.bin` (the commit point),
//! and stale generations are deleted last. A crash anywhere leaves
//! either the old snapshot + old WALs (plus, at most, an empty next
//! generation), or the new snapshot with the old WALs correctly ignored
//! (their generation is covered) — never a double-count, never a loss.
//!
//! Snapshot corruption is **always** fatal for recovery: unlike a WAL
//! tail, a snapshot is compacted history with nothing to truncate back
//! to. (The previous snapshot was deleted only after this one committed,
//! so a torn rename cannot even arise on POSIX rename semantics.)

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use apex_data::store::framed::{self, Format};

use crate::wal::{push_list, push_str, Fields, WalRecord};

/// Snapshot file magic (format version pinned in the last byte; 4 drops
/// the mutation journal — a row mutation's one durable record is its
/// dataset's mutation log — so a version-3 file, which may hold acked
/// mutations, is refused by name rather than read without them). The
/// file is read whole, so the cap only has to fit the frame's `u32`
/// length.
pub const SNAPSHOT_FORMAT: Format = Format {
    magic: b"APEXSNP4",
    max_payload: 1 << 30,
};

/// The snapshot file name within a state directory.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";

/// One tenant's persisted ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantLedger {
    /// Tenant (dataset) name.
    pub name: String,
    /// Actual privacy loss spent against the tenant's budget `B`.
    pub spent: f64,
    /// Total unspent allowance released by closed/expired sessions.
    pub reclaimed: f64,
}

/// One live session as persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionImage {
    /// Server-assigned session id.
    pub id: u64,
    /// The tenant dataset the session is bound to.
    pub dataset: String,
    /// The session's budget slice.
    pub allowance: f64,
    /// Loss already charged to the slice.
    pub spent: f64,
}

/// Everything a snapshot captures.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// WAL generations `≤ covered_gen` are folded into this snapshot;
    /// recovery replays only generations beyond it.
    pub covered_gen: u64,
    /// Next session id to hand out.
    pub next_session: u64,
    /// Per-tenant ledgers.
    pub tenants: Vec<TenantLedger>,
    /// Live sessions. (Closed sessions need no tombstone list: ids are
    /// allocated sequentially, so `next_session` is the watermark — any
    /// id below it that is not live once existed and is gone.)
    pub sessions: Vec<SessionImage>,
}

/// Why [`Snapshot::apply`] cannot fold a WAL record into the image.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldError {
    /// The record names a session that was never opened.
    UnknownSession(u64),
    /// A frozen row-mutation record (tag 5) for this dataset: no current
    /// writer produces one, and it must be neither re-applied nor dropped.
    Mutation(String),
}

impl Snapshot {
    /// Serializes the snapshot (the file's one frame payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.covered_gen.to_le_bytes());
        out.extend_from_slice(&self.next_session.to_le_bytes());
        push_list(&mut out, &self.tenants, |out, t| {
            push_str(out, &t.name);
            out.extend_from_slice(&t.spent.to_le_bytes());
            out.extend_from_slice(&t.reclaimed.to_le_bytes());
        });
        push_list(&mut out, &self.sessions, |out, s| {
            out.extend_from_slice(&s.id.to_le_bytes());
            push_str(out, &s.dataset);
            out.extend_from_slice(&s.allowance.to_le_bytes());
            out.extend_from_slice(&s.spent.to_le_bytes());
        });
        out
    }

    /// Decodes a snapshot payload; `None` on any structural damage or
    /// trailing bytes — snapshot damage is never partially recoverable.
    pub fn decode(payload: &[u8]) -> Option<Snapshot> {
        // Fields in encoding order.
        let mut f = Fields(payload);
        let snapshot = Snapshot {
            covered_gen: f.u64()?,
            next_session: f.u64()?,
            tenants: f.list(|f| {
                Some(TenantLedger {
                    name: f.str()?,
                    spent: f.f64()?,
                    reclaimed: f.f64()?,
                })
            })?,
            sessions: f.list(|f| {
                Some(SessionImage {
                    id: f.u64()?,
                    dataset: f.str()?,
                    allowance: f.f64()?,
                    spent: f.f64()?,
                })
            })?,
        };
        f.end(snapshot)
    }

    /// Folds one WAL record into the image — recovery is this fold over
    /// every record past `covered_gen`, in file order. `closed` carries
    /// the dataset of each session the fold has closed: a debit may be
    /// ordered after its session's close (two racing appenders inside
    /// one generation) and must still charge that session's tenant. An
    /// open enters its tenant in the ledgers, so checking
    /// [`Snapshot::tenants`] after the fold covers every name the WAL
    /// used.
    ///
    /// # Errors
    /// See [`FoldError`].
    pub fn apply(
        &mut self,
        record: WalRecord,
        closed: &mut HashMap<u64, String>,
    ) -> Result<(), FoldError> {
        match record {
            WalRecord::Open {
                session,
                dataset,
                allowance,
            } => {
                self.ledger(&dataset);
                self.next_session = self.next_session.max(session + 1);
                self.sessions.push(SessionImage {
                    id: session,
                    dataset,
                    allowance,
                    spent: 0.0,
                });
            }
            WalRecord::Debit { session, epsilon } => {
                let dataset = self.dataset_of(session, closed)?;
                if let Some(s) = self.sessions.iter_mut().find(|s| s.id == session) {
                    s.spent += epsilon;
                }
                self.ledger(&dataset).spent += epsilon;
            }
            WalRecord::Deny { session } => {
                self.dataset_of(session, closed)?;
            }
            WalRecord::Close { session, released } => {
                let dataset = self.dataset_of(session, closed)?;
                self.sessions.retain(|s| s.id != session);
                self.ledger(&dataset).reclaimed += released;
                closed.insert(session, dataset);
            }
            WalRecord::Mutate { dataset, .. } => return Err(FoldError::Mutation(dataset)),
        }
        Ok(())
    }

    /// The dataset of a session that is live in the image or that the
    /// fold closed.
    fn dataset_of(&self, id: u64, closed: &HashMap<u64, String>) -> Result<String, FoldError> {
        let live = self.sessions.iter().find(|s| s.id == id);
        live.map(|s| &s.dataset)
            .or_else(|| closed.get(&id))
            .cloned()
            .ok_or(FoldError::UnknownSession(id))
    }

    /// `name`'s ledger, entered at zero on first use.
    fn ledger(&mut self, name: &str) -> &mut TenantLedger {
        if !self.tenants.iter().any(|t| t.name == name) {
            self.tenants.push(TenantLedger {
                name: name.to_string(),
                spent: 0.0,
                reclaimed: 0.0,
            });
        }
        let ledger = self.tenants.iter_mut().find(|t| t.name == name);
        ledger.expect("entered above")
    }
}

/// Writes the snapshot atomically ([`framed::write_atomic`]): the rename
/// over [`SNAPSHOT_FILE`] is the commit point.
///
/// # Errors
/// Propagates I/O failures.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> io::Result<()> {
    framed::write_atomic(
        &dir.join(SNAPSHOT_FILE),
        &SNAPSHOT_FORMAT,
        &snapshot.encode(),
    )
}

/// Reads the snapshot; `Ok(None)` when none exists yet.
///
/// # Errors
/// I/O failures, or `InvalidData` when the file exists but is damaged or
/// of another format version (always fatal — see the module docs).
pub fn read_snapshot(dir: &Path) -> io::Result<Option<Snapshot>> {
    let path = dir.join(SNAPSHOT_FILE);
    let Some(payload) = framed::read_atomic(&path, &SNAPSHOT_FORMAT)? else {
        return Ok(None);
    };
    Snapshot::decode(&payload).map(Some).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("corrupt snapshot at {}", path.display()),
        )
    })
}

/// Per-shard state directory under a shard set's root: `root/shard-K`.
/// Each shard's WAL generations, snapshot, and dir lock live entirely
/// inside its own subdirectory, so shards recover independently (and in
/// parallel) and never contend on one another's files.
pub fn shard_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("shard-{shard}"))
}

/// Path of the WAL file for `gen` within `dir`.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:08}.log"))
}

/// Generation numbers of all WAL files in `dir`, ascending.
///
/// # Errors
/// Propagates directory-read failures.
pub fn list_wal_gens(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens = Vec::new();
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(gen) = name
            .strip_prefix("wal-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            gens.push(gen);
        }
    }
    gens.sort_unstable();
    Ok(gens)
}

/// Deletes WAL generations `≤ covered_gen` (already folded into the
/// snapshot). Best-effort: a file that refuses to die is retried on the
/// next compaction; it is *covered*, so recovery ignores it either way.
pub fn prune_wals(dir: &Path, covered_gen: u64) {
    if let Ok(gens) = list_wal_gens(dir) {
        for gen in gens {
            if gen <= covered_gen {
                let _ = fs::remove_file(wal_path(dir, gen));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            covered_gen: 3,
            next_session: 17,
            tenants: vec![
                TenantLedger {
                    name: "adult".into(),
                    spent: 0.375,
                    reclaimed: 0.125,
                },
                TenantLedger {
                    name: "taxi".into(),
                    spent: 0.0,
                    reclaimed: 0.0,
                },
            ],
            sessions: vec![SessionImage {
                id: 12,
                dataset: "adult".into(),
                allowance: 0.25,
                spent: 0.0625,
            }],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let s = sample();
        assert_eq!(Snapshot::decode(&s.encode()), Some(s.clone()));
        let empty = Snapshot::default();
        assert_eq!(Snapshot::decode(&empty.encode()), Some(empty));
    }

    #[test]
    fn any_single_bit_flip_is_fatal() {
        let dir = crate::testutil::temp_dir("snapshot-flip");
        fs::create_dir_all(&dir).unwrap();
        write_snapshot(&dir, &sample()).unwrap();
        let path = dir.join(SNAPSHOT_FILE);
        let image = fs::read(&path).unwrap();
        let refused = |bytes: &[u8], what: String| {
            fs::write(&path, bytes).unwrap();
            let err = read_snapshot(&dir).expect_err(&what);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        };
        for bit in 0..image.len() * 8 {
            let mut damaged = image.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            refused(&damaged, format!("flip at bit {bit}"));
        }
        // Truncations (but for the empty file, which reads as "no
        // snapshot yet" only if the file is absent) and trailing garbage
        // are fatal too.
        for cut in 0..image.len() {
            refused(&image[..cut], format!("cut at {cut}"));
        }
        let mut padded = image.clone();
        padded.push(0);
        refused(&padded, "trailing byte".into());
        // So is a well-framed payload that is not a snapshot.
        framed::write_atomic(&path, &SNAPSHOT_FORMAT, &sample().encode()[..20]).unwrap();
        assert!(read_snapshot(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn directory_layout_round_trips() {
        let dir = crate::testutil::temp_dir("snapshot");
        fs::create_dir_all(&dir).unwrap();

        assert_eq!(read_snapshot(&dir).unwrap(), None);
        let s = sample();
        write_snapshot(&dir, &s).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(s.clone()));
        // Overwrite is atomic-by-rename and reads back the new content.
        let mut s2 = s.clone();
        s2.next_session = 99;
        write_snapshot(&dir, &s2).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap(), Some(s2));

        // Corruption on disk surfaces as InvalidData.
        let path = dir.join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            read_snapshot(&dir).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // WAL generation listing and pruning.
        for gen in [1u64, 2, 5] {
            fs::write(wal_path(&dir, gen), b"x").unwrap();
        }
        fs::write(dir.join("wal-junk.log"), b"x").unwrap();
        assert_eq!(list_wal_gens(&dir).unwrap(), vec![1, 2, 5]);
        prune_wals(&dir, 2);
        assert_eq!(list_wal_gens(&dir).unwrap(), vec![5]);

        fs::remove_dir_all(&dir).unwrap();
    }
}
