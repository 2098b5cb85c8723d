//! Corruption-injection property tests for the durable paged store —
//! the `store-fault-gate` CI job.
//!
//! The store's contract is *fail-stop*: any bit the disk (or a buggy
//! writer) changes must surface as an error, never as silently wrong
//! rows. These tests earn that claim the brute-force way:
//!
//! - **every** single-bit flip of a sealed page fails verification;
//! - **every** single-bit flip of a manifest fails its checksum;
//! - **every** byte-truncation of a manifest or a page file is rejected;
//! - a torn final append past the manifest's coverage — even one that
//!   *would* verify as a page — is never served;
//! - reopen-after-kill round-trips exactly the committed state, for both
//!   row stores and transcript logs (unflushed tail records are lost,
//!   flushed ones survive, corruption in either is detected);
//! - **every** single-bit flip and **every** byte-truncation of the
//!   mutation log stops replay at the last valid record — never a wrong
//!   or reordered record — and the full store open path re-applies
//!   exactly that valid acked prefix, refusing a log cut below what the
//!   manifest already applied;
//! - files of a previous on-disk format are refused by name and left
//!   byte-identical.
//!
//! The logs' framing has its own generic sweeps next to the one
//! implementation (`apex_data::store::framed`); the sweeps here drive the
//! same damage through each log's *policy* — replay, open, store open.
//!
//! The exhaustive page sweep runs in memory against `page::verify` (the
//! same routine every disk read goes through); a strided sweep then
//! flips bits in the actual file and asserts the full `open`+scan path
//! reports them, so the two layers can't drift apart.

use apex_data::store::framed::{self, FRAME_HEADER, MAGIC_LEN};
use apex_data::store::mutation_log::MUTATION_LOG_FORMAT;
use apex_data::store::{
    page, Manifest, MutationLog, MutationOp, MutationRecord, PagedRows, TranscriptLog,
    MUTATION_LOG_FILE, PAGE_CAPACITY, PAGE_SIZE,
};
use apex_data::{Attribute, Domain, Schema, StoreError, Value};
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("apex-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn demo_schema() -> Schema {
    Schema::new(vec![
        Attribute::new(
            "v",
            Domain::IntRange {
                min: 0,
                max: 1 << 20,
            },
        ),
        Attribute::new("tag", Domain::Text),
    ])
    .unwrap()
}

fn demo_rows(n: usize) -> Vec<Vec<Value>> {
    (0..n)
        .map(|i| vec![Value::Int(i as i64), Value::Str(format!("row-{i}"))])
        .collect()
}

fn ingest(dir: &Path, rows: &[Vec<Value>]) -> PagedRows {
    PagedRows::ingest(dir, &demo_schema(), rows.iter().map(|r| r.as_slice()), 1, 4).unwrap()
}

/// Deterministic byte soup (no RNG dependency in the fault gate).
fn xorshift_bytes(n: usize, mut seed: u64) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed as u8
        })
        .collect()
}

#[test]
fn every_single_bit_flip_of_a_page_is_detected() {
    // A sealed page filled to capacity with adversarial-ish bytes; the
    // header (crc, len, page_no) is inside the flip range too.
    let mut buf = vec![0u8; PAGE_SIZE];
    let payload = xorshift_bytes(PAGE_CAPACITY, 0x5EED_CAFE);
    page::payload_mut(&mut buf).copy_from_slice(&payload);
    page::set_len(&mut buf, PAGE_CAPACITY as u32);
    page::seal(&mut buf, 7);
    page::verify(&buf, 7).expect("the unflipped page verifies");

    for bit in 0..PAGE_SIZE * 8 {
        buf[bit / 8] ^= 1 << (bit % 8);
        assert!(
            page::verify(&buf, 7).is_err(),
            "bit flip at offset {bit} went undetected"
        );
        buf[bit / 8] ^= 1 << (bit % 8);
    }
    page::verify(&buf, 7).expect("restored page verifies again");
}

#[test]
fn every_single_bit_flip_of_a_manifest_is_detected() {
    let dir = tmp_dir("manifest-flip");
    ingest(&dir, &demo_rows(64));
    let path = dir.join("manifest.bin");
    let pristine = std::fs::read(&path).unwrap();
    Manifest::load(&dir).expect("the pristine manifest loads");

    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            Manifest::load(&dir).is_err(),
            "manifest bit flip at offset {bit} went undetected"
        );
    }
    std::fs::write(&path, &pristine).unwrap();
    Manifest::load(&dir).expect("restored manifest loads");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_byte_truncation_of_a_manifest_is_rejected() {
    let dir = tmp_dir("manifest-trunc");
    ingest(&dir, &demo_rows(64));
    let path = dir.join("manifest.bin");
    let pristine = std::fs::read(&path).unwrap();

    for len in 0..pristine.len() {
        std::fs::write(&path, &pristine[..len]).unwrap();
        assert!(
            Manifest::load(&dir).is_err(),
            "manifest truncated to {len} bytes went undetected"
        );
    }
    // Trailing garbage is as corrupt as a missing tail.
    let mut bloated = pristine.clone();
    bloated.push(0);
    std::fs::write(&path, &bloated).unwrap();
    assert!(
        Manifest::load(&dir).is_err(),
        "trailing byte went undetected"
    );

    std::fs::write(&path, &pristine).unwrap();
    Manifest::load(&dir).expect("restored manifest loads");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn on_disk_page_bit_flips_surface_through_open_and_scan() {
    // The in-memory sweep proves `verify` catches everything; this one
    // proves the service path (open → pool read → scan) actually calls
    // it: strided single-bit flips across the whole page file, each of
    // which must turn the scan into an error, never wrong rows.
    let dir = tmp_dir("page-flip");
    let rows = demo_rows(2_000);
    let store = ingest(&dir, &rows);
    assert!(store.page_count() >= 2, "want a multi-page file");
    drop(store);
    let path = dir.join("pages.dat");
    let pristine = std::fs::read(&path).unwrap();

    let total_bits = pristine.len() * 8;
    let mut hit_pages = std::collections::HashSet::new();
    for bit in (0..total_bits).step_by(1_009) {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        hit_pages.insert(bit / (PAGE_SIZE * 8));
        let outcome = PagedRows::open(&dir, 4).and_then(|s| s.materialize());
        match outcome {
            Err(_) => {}
            Ok(served) => panic!(
                "bit flip at offset {bit} served {} rows as if nothing happened",
                served.len()
            ),
        }
    }
    assert!(hit_pages.len() >= 2, "the stride must cover every page");
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(
        PagedRows::open(&dir, 4).unwrap().materialize().unwrap(),
        rows
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_byte_truncation_of_the_page_file_is_rejected() {
    let dir = tmp_dir("page-trunc");
    let rows = demo_rows(700); // two pages
    let store = ingest(&dir, &rows);
    assert_eq!(store.page_count(), 2, "the sweep below assumes two pages");
    drop(store);
    let path = dir.join("pages.dat");
    let pristine = std::fs::read(&path).unwrap();

    for len in 0..pristine.len() {
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len as u64).unwrap();
        drop(f);
        assert!(
            matches!(PagedRows::open(&dir, 4), Err(StoreError::Truncated { .. })),
            "page file truncated to {len} bytes went undetected"
        );
        std::fs::write(&path, &pristine).unwrap();
    }
    assert_eq!(
        PagedRows::open(&dir, 4).unwrap().materialize().unwrap(),
        rows
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_final_append_is_never_served() {
    let dir = tmp_dir("torn");
    let rows = demo_rows(300);
    ingest(&dir, &rows);
    let path = dir.join("pages.dat");
    let pristine = std::fs::read(&path).unwrap();

    // A half-written garbage page past the manifest's coverage: ignored.
    let mut torn = pristine.clone();
    torn.extend_from_slice(&xorshift_bytes(PAGE_SIZE / 2, 0xDEAD));
    std::fs::write(&path, &torn).unwrap();
    assert_eq!(
        PagedRows::open(&dir, 4).unwrap().materialize().unwrap(),
        rows
    );

    // The nastier case: the torn tail is a byte-exact copy of a *valid*
    // page. It would pass verification if read — the manifest, not the
    // checksum, is what must keep it out of the result set.
    let mut forged = pristine.clone();
    forged.extend_from_slice(&pristine[..PAGE_SIZE]);
    std::fs::write(&path, &forged).unwrap();
    let served = PagedRows::open(&dir, 4).unwrap().materialize().unwrap();
    assert_eq!(served, rows, "a forged page beyond coverage was served");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn reopen_after_kill_round_trips_the_committed_state() {
    let dir = tmp_dir("reopen");
    let rows = demo_rows(1_500);
    // `ingest` returns an open store which we drop without any explicit
    // close — the kill. Durability must come from the write path alone.
    drop(ingest(&dir, &rows));
    for _ in 0..3 {
        let store = PagedRows::open(&dir, 2).unwrap();
        assert_eq!(store.row_count(), 1_500);
        assert_eq!(store.materialize().unwrap(), rows);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Byte ranges of the consecutive records in a pristine mutation log
/// (the magic belongs to none of them).
fn record_spans(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut spans = Vec::new();
    let mut off = MAGIC_LEN;
    let (_, tail) = framed::scan(&MUTATION_LOG_FORMAT, bytes, |_, payload| {
        spans.push(off..off + FRAME_HEADER + payload.len());
        off += FRAME_HEADER + payload.len();
        true
    })
    .unwrap();
    assert_eq!(tail, framed::Tail::Clean, "the pristine log must parse");
    spans
}

/// A three-record mutation log (insert, delete, insert) plus its byte
/// image, span table, and the records a clean replay yields.
fn seeded_mutation_log(
    dir: &Path,
) -> (
    PathBuf,
    Vec<u8>,
    Vec<std::ops::Range<usize>>,
    Vec<MutationRecord>,
) {
    let mut log = MutationLog::open(dir).unwrap();
    log.append(MutationOp::Insert, demo_rows(2)).unwrap();
    log.append(MutationOp::Delete, demo_rows(1)).unwrap();
    log.append(
        MutationOp::Insert,
        vec![vec![Value::Int(9), Value::Str("tail".to_string())]],
    )
    .unwrap();
    drop(log);
    let path = dir.join(MUTATION_LOG_FILE);
    let pristine = std::fs::read(&path).unwrap();
    let spans = record_spans(&pristine);
    assert_eq!(spans.len(), 3);
    let mut records = Vec::new();
    assert_eq!(MutationLog::replay(dir, |r| records.push(r)).unwrap(), 3);
    (path, pristine, spans, records)
}

#[test]
fn every_single_bit_flip_of_the_mutation_log_stops_replay_at_the_last_valid_record() {
    // Replay must never yield a record whose bytes changed, and must never
    // resynchronize past one: a flip inside record i cuts the log to the
    // first i records, byte-identical to the pristine prefix.
    let dir = tmp_dir("mlog-flip");
    let (path, pristine, spans, clean) = seeded_mutation_log(&dir);

    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        let mut replayed = Vec::new();
        let outcome = MutationLog::replay(&dir, |r| replayed.push(r));
        let Some(hit) = spans.iter().position(|s| s.contains(&(bit / 8))) else {
            // A flip in the magic: not a mutation log at all — refused,
            // nothing replayed.
            assert!(
                outcome.is_err(),
                "magic bit flip at offset {bit} went undetected"
            );
            assert!(replayed.is_empty());
            continue;
        };
        let n = outcome.unwrap();
        assert_eq!(
            n as usize, hit,
            "log bit flip at offset {bit} (record {hit}) replayed {n} records"
        );
        assert_eq!(
            replayed,
            clean[..hit],
            "log bit flip at offset {bit} altered a replayed record"
        );
    }
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(MutationLog::replay(&dir, |_| {}).unwrap(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_byte_truncation_of_the_mutation_log_replays_only_whole_records() {
    let dir = tmp_dir("mlog-trunc");
    let (path, pristine, spans, clean) = seeded_mutation_log(&dir);

    for len in 0..pristine.len() {
        std::fs::write(&path, &pristine[..len]).unwrap();
        let whole = spans.iter().filter(|s| s.end <= len).count();
        let mut replayed = Vec::new();
        let n = MutationLog::replay(&dir, |r| replayed.push(r)).unwrap();
        assert_eq!(
            n as usize, whole,
            "log truncated to {len} bytes replayed {n} records"
        );
        assert_eq!(replayed, clean[..whole]);

        // `open` heals the tear: the file is cut back to the last whole
        // record (or to its bare magic) and the next append continues at
        // that sequence number.
        let boundary = spans[..whole].last().map_or(MAGIC_LEN, |s| s.end);
        let log = MutationLog::open(&dir).unwrap();
        assert_eq!(log.next_seq() as usize, whole);
        drop(log);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary as u64);
    }
    std::fs::write(&path, &pristine).unwrap();
    assert_eq!(MutationLog::replay(&dir, |_| {}).unwrap(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recursively copies `src` into a fresh `dst`.
fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

#[test]
fn a_corrupt_acked_mutation_stops_store_replay_at_the_last_valid_record() {
    // The crash window the log exists for: mutations acked (fsynced in the
    // log) but not yet folded into the pages. If the log then corrupts,
    // `PagedRows::open` must re-apply exactly the valid prefix — never a
    // damaged record, never rows from beyond the first bad byte.
    let dir = tmp_dir("mlog-store");
    let base = demo_rows(64);
    drop(ingest(&dir, &base));
    let extra: Vec<Vec<Value>> = (0..2)
        .map(|i| vec![Value::Int(100 + i), Value::Str(format!("extra-{i}"))])
        .collect();
    let mut log = MutationLog::open(&dir).unwrap();
    log.append(MutationOp::Insert, vec![extra[0].clone()])
        .unwrap();
    log.append(MutationOp::Insert, vec![extra[1].clone()])
        .unwrap();
    drop(log);
    let log_path = dir.join(MUTATION_LOG_FILE);
    let pristine_log = std::fs::read(&log_path).unwrap();
    let spans = record_spans(&pristine_log);
    assert_eq!(spans.len(), 2);

    // `open` commits whatever it replays, so every flip must start from
    // the same acked-but-unapplied on-disk state: snapshot and restore.
    let snap = tmp_dir("mlog-store-snap");
    copy_dir(&dir, &snap);

    for bit in (0..pristine_log.len() * 8).step_by(13) {
        copy_dir(&snap, &dir);
        let mut bytes = pristine_log.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&log_path, &bytes).unwrap();
        let Some(hit) = spans.iter().position(|s| s.contains(&(bit / 8))) else {
            // A flip in the magic: not a mutation log — the open fails
            // rather than guess what the file was.
            assert!(PagedRows::open(&dir, 4).is_err(), "flip at offset {bit}");
            continue;
        };
        let store = PagedRows::open(&dir, 4).unwrap();
        assert_eq!(
            store.mutations_applied() as usize,
            hit,
            "log bit flip at offset {bit} changed how many records applied"
        );
        let mut want = base.clone();
        want.extend(extra[..hit].iter().cloned());
        assert_eq!(
            store.materialize().unwrap(),
            want,
            "log bit flip at offset {bit} leaked into the served rows"
        );
    }

    // The unflipped log replays both records exactly once.
    copy_dir(&snap, &dir);
    let store = PagedRows::open(&dir, 4).unwrap();
    assert_eq!(store.mutations_applied(), 2);
    let mut want = base.clone();
    want.extend(extra.iter().cloned());
    assert_eq!(store.materialize().unwrap(), want);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&snap).unwrap();
}

#[test]
fn transcript_log_kill_and_corruption_semantics() {
    let dir = tmp_dir("log");
    let mut log = TranscriptLog::open(&dir).unwrap();
    for i in 0..10 {
        log.append(format!("flushed-{i}").as_bytes()).unwrap();
    }
    log.flush().unwrap();
    for i in 0..5 {
        log.append(format!("lost-{i}").as_bytes()).unwrap();
    }
    drop(log); // kill: the unflushed tail records must vanish, cleanly

    let mut replayed = Vec::new();
    let n = TranscriptLog::replay(&dir, |rec| replayed.push(rec.to_vec())).unwrap();
    assert_eq!(n, 10, "exactly the flushed records survive the kill");
    assert_eq!(replayed[9], b"flushed-9");

    // Corruption in the log is detected the same way as in row stores:
    // every flip fails the replay, which never yields a changed record.
    let path = dir.join("transcript.log");
    let pristine = std::fs::read(&path).unwrap();
    for bit in 0..pristine.len() * 8 {
        let mut bytes = pristine.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bytes).unwrap();
        let mut seen = Vec::new();
        assert!(
            TranscriptLog::replay(&dir, |rec| seen.push(rec.to_vec())).is_err(),
            "log bit flip at offset {bit} went undetected"
        );
        assert_eq!(seen, replayed[..seen.len()], "flip at offset {bit}");
    }

    // A crash mid-flush leaves a torn tail: `open` cuts it, the flushed
    // records before it are untouched.
    let mut torn = pristine.clone();
    torn.extend_from_slice(&pristine[MAGIC_LEN..MAGIC_LEN + 11]);
    std::fs::write(&path, &torn).unwrap();

    // Reopen-and-append continues where the flush left off.
    let mut log = TranscriptLog::open(&dir).unwrap();
    assert_eq!(std::fs::read(&path).unwrap(), pristine);
    assert_eq!(log.record_count(), 10);
    log.append(b"after-restart").unwrap();
    log.flush().unwrap();
    drop(log);
    assert_eq!(TranscriptLog::replay(&dir, |_| {}).unwrap(), 11);
    assert!(std::fs::read(&path).unwrap().starts_with(&pristine));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_mutation_log_cut_below_the_manifest_is_refused_not_restarted() {
    // Records the manifest already applied vanish from the log (bit rot
    // in record 0 cuts everything after it too). Restarting the log at
    // seq 0 would let the next acked-but-unapplied record be skipped as
    // "already applied" — the store must refuse instead, naming both
    // counts.
    let dir = tmp_dir("mlog-behind");
    let store = ingest(&dir, &demo_rows(10));
    for i in 0..2 {
        store
            .insert_rows(&[vec![Value::Int(100 + i), Value::Str(format!("batch-{i}"))]])
            .unwrap();
    }
    assert_eq!(store.mutations_applied(), 2);
    drop(store);
    let log_path = dir.join(MUTATION_LOG_FILE);
    let pristine = std::fs::read(&log_path).unwrap();
    let mut damaged = pristine.clone();
    damaged[MAGIC_LEN + FRAME_HEADER] ^= 1;
    let out_of_step = |r: Result<(), StoreError>| match r {
        Err(StoreError::LogOutOfStep { applied, logged }) => {
            assert_eq!((applied, logged), (2, 0));
            let msg = StoreError::LogOutOfStep { applied, logged }.to_string();
            assert!(msg.contains('2') && msg.contains('0'), "{msg}");
        }
        other => panic!("expected LogOutOfStep, got {other:?}"),
    };

    // A handle opened before the damage notices at its first mutation
    // (which is when it opens the log), before cutting anything…
    let store = PagedRows::open(&dir, 4).unwrap();
    std::fs::write(&log_path, &damaged).unwrap();
    let extra = vec![vec![Value::Int(7), Value::Str("late".to_string())]];
    out_of_step(store.insert_rows(&extra).map(drop));
    assert_eq!(store.row_count(), 12, "nothing was applied");
    assert_eq!(
        std::fs::read(&log_path).unwrap(),
        damaged,
        "the log was cut"
    );
    drop(store);
    // …and a fresh open refuses too.
    out_of_step(PagedRows::open(&dir, 4).map(drop));

    // With the log intact the same directory opens and mutates.
    std::fs::write(&log_path, &pristine).unwrap();
    let store = PagedRows::open(&dir, 4).unwrap();
    store.insert_rows(&extra).unwrap();
    assert_eq!((store.row_count(), store.mutations_applied()), (13, 3));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn previous_format_store_files_are_refused_by_name_and_left_untouched() {
    let dir = tmp_dir("oldfmt");
    let store = ingest(&dir, &demo_rows(10));
    store
        .insert_rows(&[vec![Value::Int(1), Value::Str("x".to_string())]])
        .unwrap();
    drop(store);

    // A magic-less `mutations.log`: the previous format's frames were
    // these frames, with nothing in front of them.
    let log_path = dir.join(MUTATION_LOG_FILE);
    let current = std::fs::read(&log_path).unwrap();
    let old_log = current[MAGIC_LEN..].to_vec();
    std::fs::write(&log_path, &old_log).unwrap();
    for err in [
        MutationLog::replay(&dir, |_| {}).unwrap_err(),
        MutationLog::open(&dir).map(drop).unwrap_err(),
        PagedRows::open(&dir, 4).map(drop).unwrap_err(),
    ] {
        assert!(err.to_string().contains("APEXMUT1"), "{err}");
    }
    assert_eq!(std::fs::read(&log_path).unwrap(), old_log);
    std::fs::write(&log_path, &current).unwrap();

    // A version-1 `manifest.bin`: `APEXDST1`, fields, trailing CRC.
    let manifest_path = dir.join("manifest.bin");
    let mut old_manifest = b"APEXDST1".to_vec();
    old_manifest.extend_from_slice(&1u32.to_le_bytes()); // format_version
    old_manifest.extend_from_slice(&1u64.to_le_bytes()); // epoch
    old_manifest.extend_from_slice(&0u32.to_le_bytes()); // page_count
    old_manifest.extend_from_slice(&0u64.to_le_bytes()); // record_count
    old_manifest.extend_from_slice(&0u32.to_le_bytes()); // payload_len
    let crc = page::crc32(&old_manifest);
    old_manifest.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&manifest_path, &old_manifest).unwrap();
    for err in [
        Manifest::load(&dir).map(drop).unwrap_err(),
        PagedRows::open(&dir, 4).map(drop).unwrap_err(),
    ] {
        assert!(matches!(err, StoreError::CorruptManifest(_)), "{err:?}");
        let msg = err.to_string();
        assert!(
            msg.contains("APEXDST1") && msg.contains("APEXDST2"),
            "{msg}"
        );
    }
    assert_eq!(std::fs::read(&manifest_path).unwrap(), old_manifest);
    std::fs::remove_dir_all(&dir).unwrap();
}
