//! Crash-recovery tests for the segmented log itself: for a known
//! workload, enumerate EVERY byte-boundary crash site and prove the
//! durability contract — committed records always survive, recovery
//! truncates at the first torn record, and nothing intact-and-committed
//! is ever lost. The concurrent tests drive the leader/follower commit
//! path from many threads at once and check the same contract.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use brmi_durable::{CrashPoint, Log, LogConfig, TempDir};
use brmi_obs::{Registry, Snapshot};

fn payload(i: u64) -> Vec<u8> {
    // Variable-length so crash sites land at interesting intra-record
    // offsets (headers, CRC bytes, payload middles).
    let mut p = format!("record-{i}:").into_bytes();
    p.extend(std::iter::repeat_n(b'x', (i % 7) as usize * 3));
    p
}

/// Runs the canonical workload against a log armed with `crash`,
/// stopping at the first injected failure. Returns the number of records
/// whose commit RETURNED (i.e. the durable horizon the caller observed).
fn run_workload(log: &Log, records: u64) -> u64 {
    let mut acked = 0;
    for i in 0..records {
        match log.append_durable(&payload(i)) {
            Ok(_) => acked += 1,
            Err(_) => break,
        }
    }
    acked
}

#[test]
fn every_crash_site_preserves_acked_records_and_truncates_the_tail() {
    const RECORDS: u64 = 12;
    // First, a crash-free run to learn the workload's total byte span.
    let clean = TempDir::new("site-span");
    let (log, _) = Log::open(clean.path(), LogConfig::default()).expect("open");
    assert_eq!(run_workload(&log, RECORDS), RECORDS);
    let total_bytes = log.stats().bytes;
    drop(log);

    for site in 0..=total_bytes {
        let dir = TempDir::new("site");
        let point = CrashPoint::at_byte(site);
        let (log, _) =
            Log::open_with(dir.path(), LogConfig::default(), Arc::clone(&point)).expect("open");
        let acked = run_workload(&log, RECORDS);
        drop(log);

        let (log, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
        // Contract: every record whose commit returned must be recovered
        // intact, in order, with the right payload.
        assert!(
            recovered.records.len() as u64 >= acked,
            "site {site}: acked {acked} but recovered only {}",
            recovered.records.len()
        );
        for (i, (lsn, data)) in recovered.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64, "site {site}: lsn order");
            assert_eq!(
                data,
                &payload(i as u64),
                "site {site}: payload at lsn {lsn}"
            );
        }
        // At most one record can be in the unacked gap (append_durable is
        // one record per commit), and recovery must resume appendable.
        assert!(
            recovered.records.len() as u64 <= acked + 1,
            "site {site}: recovered {} records from {acked} acked",
            recovered.records.len()
        );
        let resumed = log.append_durable(b"post-recovery").expect("resume");
        assert_eq!(resumed, recovered.next_lsn);
    }
}

#[test]
fn torn_tail_is_counted_and_physically_truncated() {
    let dir = TempDir::new("torn");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    for i in 0..4 {
        log.append_durable(&payload(i)).expect("append");
    }
    let durable_bytes = log.stats().bytes;
    // Crash 3 bytes into the next record's frame: a torn header.
    log.arm_crash(CrashPoint::at_byte(3));
    log.append_durable(b"never-acked").expect_err("must crash");
    drop(log);

    let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    assert_eq!(recovered.records.len(), 4);
    assert_eq!(recovered.truncated_records, 1);
    assert_eq!(recovered.truncated_bytes, 3);
    // The file itself was truncated back to the durable prefix.
    let seg_len: u64 = std::fs::read_dir(dir.path())
        .expect("read dir")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .map(|e| e.metadata().expect("meta").len())
        .sum();
    assert_eq!(seg_len, durable_bytes);
}

#[test]
fn corrupt_record_in_the_middle_truncates_everything_after_it() {
    let dir = TempDir::new("corrupt");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    for i in 0..6 {
        log.append_durable(&payload(i)).expect("append");
    }
    drop(log);

    // Flip one payload byte of the third record on disk.
    let seg = std::fs::read_dir(dir.path())
        .expect("read dir")
        .flatten()
        .find(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .expect("segment")
        .path();
    let mut bytes = std::fs::read(&seg).expect("read seg");
    let mut offset = 0;
    for _ in 0..2 {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
    }
    bytes[offset + 8] ^= 0xFF;
    std::fs::write(&seg, &bytes).expect("write seg");

    let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    assert_eq!(
        recovered.records.len(),
        2,
        "corruption at lsn 2 discards lsn 2..6"
    );
    assert!(recovered.truncated_records >= 1);
}

#[test]
fn group_commit_coalesces_fsyncs() {
    let dir = TempDir::new("group");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    let mut lsns = Vec::new();
    for i in 0..10 {
        lsns.push(log.append(&payload(i)).expect("append"));
    }
    let horizon = log.commit().expect("commit");
    assert_eq!(horizon, 10);
    let after_batch = log.stats().fsyncs;
    assert_eq!(after_batch, 1, "ten appends, one fsync");
    // Followers whose lsn is already durable never touch the disk.
    for lsn in lsns {
        log.commit_through(lsn).expect("commit_through");
    }
    assert_eq!(log.stats().fsyncs, after_batch);
    // The histograms see the one group: ten records, one timed fsync.
    let registry = Registry::new();
    log.register_metrics(&registry);
    let snapshot = registry.snapshot();
    let group = snapshot.histogram("durable_group_records");
    assert_eq!((group.count, group.sum), (1, 10));
    assert_eq!(snapshot.histogram("durable_fsync_ns").count, after_batch);
}

#[test]
fn snapshot_compacts_segments_and_recovery_prefers_it() {
    let config = LogConfig {
        segment_bytes: 128,
        ..LogConfig::default()
    };
    let dir = TempDir::new("snap");
    let (log, _) = Log::open(dir.path(), config).expect("open");
    for i in 0..40 {
        log.append_durable(&payload(i)).expect("append");
    }
    let segments_before = log.segment_count();
    assert!(segments_before > 2, "workload must span several segments");

    // Snapshot covering everything so far: all sealed segments collapse.
    let floor = log.durable_lsn();
    log.write_snapshot(floor, b"state-at-40").expect("snapshot");
    assert!(log.segment_count() < segments_before);
    for i in 40..44 {
        log.append_durable(&payload(i)).expect("append");
    }
    drop(log);

    let (log, recovered) = Log::open(dir.path(), config).expect("recover");
    let (snap_lsn, snap_payload) = recovered.snapshot.expect("snapshot survives");
    assert_eq!(snap_lsn, 40);
    assert_eq!(snap_payload, b"state-at-40");
    let lsns: Vec<u64> = recovered.records.iter().map(|(lsn, _)| *lsn).collect();
    assert_eq!(lsns, vec![40, 41, 42, 43], "only post-floor records replay");
    assert_eq!(log.snapshot_floor(), 40);
}

#[test]
fn crash_during_snapshot_write_leaves_the_previous_state_recoverable() {
    let dir = TempDir::new("snap-crash");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    for i in 0..5 {
        log.append_durable(&payload(i)).expect("append");
    }
    let durable = log.stats().bytes;
    // Crash partway through the snapshot's tmp-file write.
    log.arm_crash(CrashPoint::at_byte(6));
    log.write_snapshot(log.durable_lsn(), b"half-written-snapshot")
        .expect_err("snapshot write must crash");
    drop(log);

    let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    assert!(
        recovered.snapshot.is_none(),
        "a torn tmp snapshot must be invisible"
    );
    assert_eq!(recovered.records.len(), 5);
    assert_eq!(recovered.truncated_bytes, 0, "log records untouched");
    let _ = durable;
}

#[test]
fn index_serves_random_reads_and_survives_recovery() {
    let dir = TempDir::new("index");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    for i in 0..8 {
        log.append_durable(&payload(i)).expect("append");
    }
    assert_eq!(log.read(3).expect("read").as_deref(), Some(&payload(3)[..]));
    // Staged-but-uncommitted records are not readable.
    let staged = log.append(b"uncommitted").expect("append");
    assert_eq!(log.read(staged).expect("read"), None);
    log.commit().expect("commit");
    assert_eq!(
        log.read(staged).expect("read").as_deref(),
        Some(&b"uncommitted"[..])
    );
    drop(log);

    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    assert_eq!(log.read(5).expect("read").as_deref(), Some(&payload(5)[..]));
    assert_eq!(log.read(99).expect("read"), None);
}

#[test]
fn reopening_counts_recoveries_and_everything_is_idempotent() {
    let dir = TempDir::new("idem");
    for round in 0..3 {
        let (log, recovered) = Log::open(dir.path(), LogConfig::default()).expect("open");
        assert_eq!(recovered.records.len() as u64, round * 2);
        assert_eq!(log.stats().recoveries, 1, "per-instance counter");
        log.append_durable(&payload(round * 2)).expect("append");
        log.append_durable(&payload(round * 2 + 1)).expect("append");
    }
}

#[test]
fn crashed_log_refuses_every_operation() {
    let dir = TempDir::new("refuse");
    let point = CrashPoint::at_byte(4);
    let (log, _) =
        Log::open_with(dir.path(), LogConfig::default(), Arc::clone(&point)).expect("open");
    log.append_durable(b"long enough to trip")
        .expect_err("crash");
    assert!(log.is_crashed());
    assert!(log.append(b"x").is_err());
    assert!(log.commit().is_err());
    assert!(log.read(0).is_err());
    assert!(log.write_snapshot(0, b"s").is_err());
}

/// The payload appender `thread` writes as its `i`-th record.
fn thread_payload(thread: u64, i: u64) -> Vec<u8> {
    let mut p = format!("t{thread}-r{i}:").into_bytes();
    p.extend(std::iter::repeat_n(b'y', ((thread + i) % 5) as usize * 4));
    p
}

/// Runs `threads` appenders, released together by a barrier, each
/// calling `append_durable` up to `per_thread` times and stopping at its
/// first error. Returns every acknowledged `lsn → payload`.
fn run_concurrent(log: &Log, threads: u64, per_thread: u64) -> BTreeMap<u64, Vec<u8>> {
    let start = Barrier::new(threads as usize);
    let acked: Vec<Vec<(u64, Vec<u8>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let start = &start;
                scope.spawn(move || {
                    start.wait();
                    let mut acked = Vec::new();
                    for i in 0..per_thread {
                        let payload = thread_payload(thread, i);
                        match log.append_durable(&payload) {
                            Ok(lsn) => acked.push((lsn, payload)),
                            Err(_) => break,
                        }
                    }
                    acked
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("appender panicked"))
            .collect()
    });
    let mut by_lsn = BTreeMap::new();
    for (lsn, payload) in acked.into_iter().flatten() {
        assert!(
            by_lsn.insert(lsn, payload).is_none(),
            "lsn {lsn} acknowledged twice"
        );
    }
    by_lsn
}

#[test]
fn concurrent_appenders_get_dense_unique_durable_lsns() {
    const THREADS: u64 = 16;
    const PER_THREAD: u64 = 40;
    let dir = TempDir::new("concurrent");
    let (log, _) = Log::open(dir.path(), LogConfig::default()).expect("open");
    let acked = run_concurrent(&log, THREADS, PER_THREAD);
    let lsns: Vec<u64> = acked.keys().copied().collect();
    assert_eq!(lsns, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
    for (lsn, payload) in &acked {
        assert_eq!(
            log.read(*lsn).expect("read").as_deref(),
            Some(&payload[..]),
            "lsn {lsn}"
        );
    }
    let stats = log.stats();
    assert_eq!(stats.appends, THREADS * PER_THREAD);
    assert!(stats.fsyncs <= stats.appends, "{stats:?}");
    drop(log);

    let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
    let recovered: BTreeMap<u64, Vec<u8>> = recovered.records.into_iter().collect();
    assert_eq!(recovered, acked);
}

#[test]
fn crash_sites_under_concurrent_appenders_keep_every_acked_record() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 6;
    // The total byte span does not depend on how the records group.
    let clean = TempDir::new("concurrent-span");
    let (log, _) = Log::open(clean.path(), LogConfig::default()).expect("open");
    assert_eq!(
        run_concurrent(&log, THREADS, PER_THREAD).len() as u64,
        THREADS * PER_THREAD
    );
    let total_bytes = log.stats().bytes;
    drop(log);

    for site in (0..=total_bytes).step_by(7) {
        let dir = TempDir::new("concurrent-site");
        let (log, _) = Log::open_with(dir.path(), LogConfig::default(), CrashPoint::at_byte(site))
            .expect("open");
        let acked = run_concurrent(&log, THREADS, PER_THREAD);
        drop(log);

        let (_, recovered) = Log::open(dir.path(), LogConfig::default()).expect("recover");
        let lsns: Vec<u64> = recovered.records.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(
            lsns,
            (0..recovered.next_lsn).collect::<Vec<_>>(),
            "site {site}: recovered lsns are a dense prefix"
        );
        let recovered: BTreeMap<u64, Vec<u8>> = recovered.records.into_iter().collect();
        for (lsn, payload) in &acked {
            assert_eq!(
                recovered.get(lsn),
                Some(payload),
                "site {site}: acknowledged lsn {lsn} lost"
            );
        }
    }
}

#[test]
fn tiny_segments_roll_under_concurrent_load_and_recover_in_order() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 30;
    let config = LogConfig {
        segment_bytes: 96,
        ..LogConfig::default()
    };
    let dir = TempDir::new("concurrent-roll");
    let (log, _) = Log::open(dir.path(), config).expect("open");
    let acked = run_concurrent(&log, THREADS, PER_THREAD);
    assert_eq!(acked.len() as u64, THREADS * PER_THREAD);
    assert!(log.segment_count() > 1, "the load must roll segments");
    drop(log);

    let (_, recovered) = Log::open(dir.path(), config).expect("recover");
    let lsns: Vec<u64> = recovered.records.iter().map(|(lsn, _)| *lsn).collect();
    assert_eq!(lsns, (0..THREADS * PER_THREAD).collect::<Vec<_>>());
    let recovered: BTreeMap<u64, Vec<u8>> = recovered.records.into_iter().collect();
    assert_eq!(recovered, acked);
}
