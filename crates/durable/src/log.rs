//! The segmented append-only log.
//!
//! ## On-disk layout
//!
//! A log directory holds three kinds of files:
//!
//! * `seg-<base_lsn:020>.log` — a segment: a run of records whose LSNs
//!   start at `base_lsn` (taken from the filename) and increase by one per
//!   record. Only the highest segment is ever appended to.
//! * `snap-<next_lsn:020>.snap` — a compacted snapshot: one record (same
//!   framing) whose payload captures all state produced by LSNs
//!   `< next_lsn`. Written to a `.tmp` sibling, fsynced, then renamed, so
//!   a snapshot file is either absent or complete.
//! * `*.tmp` — an interrupted snapshot; deleted on open.
//!
//! Every record is framed `[u32 LE payload_len][u32 LE crc32(payload)]
//! [payload]`. Recovery walks segments in LSN order verifying each frame
//! and **truncates at the first torn or corrupt record** (later segments
//! are dropped wholesale): nothing past a bad frame was ever acknowledged
//! as durable, so losing it is correct — and keeping it would risk
//! resurrecting a half-written mutation.
//!
//! ## Commit protocol
//!
//! Leader/follower group commit, pipelined the way Aether pipelines log
//! flushes (Johnson et al., "Aether: A Scalable Approach to Logging",
//! VLDB 2010): records are staged under a short lock and synced outside
//! it.
//!
//! * [`Log::append`] computes the record's CRC before taking the lock and
//!   holds the lock only to assign the LSN and copy the frame into the
//!   staging buffer. Appends keep staging while a flush is in flight.
//! * [`Log::commit_through`] returns at once when its LSN is already
//!   durable. Otherwise the first caller that finds no flush in flight
//!   becomes the **leader**: under the lock it swaps the staging buffer
//!   for the previous group's cleared one (double buffering keeps both
//!   capacities), marks a flush in flight and drops the lock. It then
//!   writes the whole group with one `write` and one `fsync`, re-locks,
//!   publishes the new durable horizon and the group's index entries,
//!   and wakes every waiter on the flush condvar.
//! * A **follower** waits on that condvar until its LSN is durable, or
//!   until no flush is in flight, in which case its record was staged
//!   after the last leader's take and it leads the next group itself.
//!   The next group thus fills while the current one's fsync runs.
//! * Only one write is ever in flight, so the byte stream reaching the
//!   files, and with it [`CrashPoint`] admission and the shape of a torn
//!   tail, is that of a single flusher. A group whose write or fsync
//!   fails publishes nothing: its followers get the error, never `Ok`.
//!   A real I/O failure leaves the file's tail unknown, so the log then
//!   refuses all further work until it is reopened.
//! * The leader rolls the segment at its take step: when the active
//!   segment has reached `segment_bytes`, the group is written to a new
//!   segment whose base is the group's first LSN.
//! * [`Log::commit`], [`Log::write_snapshot`] and [`Log::arm_crash`] wait
//!   for the quiet state (no flush in flight) before they act.
//!
//! [`Log::append_durable`] is append and commit-through fused for callers
//! without batching ambitions.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use brmi_obs::{Counter, Histogram, Registry};

use crate::crash::CrashPoint;

/// Frame header size: 4-byte length + 4-byte CRC.
const HEADER_BYTES: usize = 8;

/// Tuning knobs for a [`Log`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Seal the active segment and start a new one once it holds at least
    /// this many bytes (checked when the next group is taken).
    pub segment_bytes: u64,
    /// Recovery treats any frame announcing a payload larger than this as
    /// corrupt (a torn length field can claim gigabytes).
    pub max_record_bytes: u32,
}

impl Default for LogConfig {
    fn default() -> LogConfig {
        LogConfig {
            segment_bytes: 64 * 1024,
            max_record_bytes: 1 << 26,
        }
    }
}

/// Failures on the log's hot path.
#[derive(Debug)]
pub enum LogError {
    /// A real I/O error from the filesystem.
    Io(std::io::Error),
    /// The armed [`CrashPoint`] has struck: the simulated machine is down
    /// and no further operation will succeed until the log is reopened.
    Crashed,
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::Io(err) => write!(f, "durable log I/O error: {err}"),
            LogError::Crashed => write!(f, "durable log crashed (injected power cut)"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(err) => Some(err),
            LogError::Crashed => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(err: std::io::Error) -> LogError {
        LogError::Io(err)
    }
}

/// What [`Log::open`] found on disk, in replay order.
#[derive(Debug)]
pub struct Recovered {
    /// The newest intact snapshot, as `(next_lsn, payload)`: the payload
    /// captures all effects of LSNs `< next_lsn`.
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// Every verified record at or above the snapshot floor, as
    /// `(lsn, payload)`, ascending.
    pub records: Vec<(u64, Vec<u8>)>,
    /// Records discarded because they (or an earlier record) failed
    /// verification — the unacknowledged torn tail.
    pub truncated_records: u64,
    /// Bytes discarded with them.
    pub truncated_bytes: u64,
    /// The LSN the reopened log will assign next.
    pub next_lsn: u64,
}

/// A point-in-time copy of the log's counters (see
/// [`Log::register_metrics`] for the metric names).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LogStats {
    /// Records staged via [`Log::append`].
    pub appends: u64,
    /// Payload+frame bytes physically written to segment or snapshot
    /// files.
    pub bytes: u64,
    /// `fsync` calls issued (group commit makes this less than appends
    /// under concurrency).
    pub fsyncs: u64,
    /// Times a log was recovered from this directory.
    pub recoveries: u64,
    /// Torn/corrupt records truncated during recovery.
    pub truncated_records: u64,
    /// Snapshots successfully written.
    pub snapshots: u64,
}

/// Where a durable record lives on disk — the in-memory index entry.
#[derive(Debug, Clone, Copy)]
struct RecordLoc {
    seg_base: u64,
    offset: u64,
    frame_len: u32,
}

#[derive(Debug)]
struct SealedSeg {
    base: u64,
    records: u64,
    path: PathBuf,
}

struct Inner {
    dir: PathBuf,
    config: LogConfig,
    crash: Arc<CrashPoint>,
    /// Active segment file, positioned at its end. The flush leader
    /// writes through a clone of the handle with the lock released.
    file: Arc<File>,
    seg_base: u64,
    seg_records: u64,
    seg_bytes: u64,
    sealed: Vec<SealedSeg>,
    /// Framed records awaiting the next group: LSNs `next_lsn -
    /// staged_lens.len()..next_lsn`, in order.
    staged: Vec<u8>,
    /// Frame length of each staged record.
    staged_lens: Vec<u32>,
    /// The last group's buffers, cleared and kept for their capacity.
    spare: Vec<u8>,
    spare_lens: Vec<u32>,
    next_lsn: u64,
    durable_lsn: u64,
    /// A leader is writing and syncing a group with the lock released.
    flushing: bool,
    /// A group write or fsync failed with a real I/O error.
    failed: bool,
    /// `next_lsn` of the latest snapshot (0 when none).
    snapshot_floor: u64,
    /// lsn → location, for every durable record still on disk.
    index: BTreeMap<u64, RecordLoc>,
}

/// A crash-recoverable segmented append-only log. See the [module
/// docs](self) for the format and the [crate docs](crate) for the
/// durability contract.
pub struct Log {
    inner: Mutex<Inner>,
    /// Signalled whenever a leader finishes its group.
    flushed: Condvar,
    appends: Counter,
    bytes: Counter,
    fsyncs: Counter,
    recoveries: Counter,
    truncated: Counter,
    snapshots: Counter,
    group_records: Histogram,
    fsync_ns: Histogram,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log").finish_non_exhaustive()
    }
}

/// The reflected IEEE CRC-32 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// `CRC_TABLE[b]` is the CRC register after shifting byte `b` through
/// eight polynomial steps.
const CRC_TABLE: [u32; 256] = crc_table();

const fn crc_table() -> [u32; 256] {
    let mut table = [0_u32; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[byte] = crc;
        byte += 1;
    }
    table
}

/// The IEEE CRC-32 (polynomial `0xEDB88320`), one table lookup per byte.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(0xFFFF_FFFF_u32, |crc, &byte| {
        CRC_TABLE[((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8)
    })
}

fn seg_path(dir: &Path, base: u64) -> PathBuf {
    dir.join(format!("seg-{base:020}.log"))
}

fn snap_path(dir: &Path, next_lsn: u64) -> PathBuf {
    dir.join(format!("snap-{next_lsn:020}.snap"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Frame length of a record carrying `payload`.
fn frame_len(payload: &[u8]) -> u32 {
    u32::try_from(HEADER_BYTES + payload.len()).expect("record payload over 4 GiB")
}

/// Appends the frame of a record whose payload CRC is `crc`; callers
/// bound the payload length with [`frame_len`] first.
fn put_frame(out: &mut Vec<u8>, crc: u32, payload: &[u8]) {
    let len = payload.len() as u32;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// Parses one frame at `buf[offset..]`. `Ok(Some(payload_range))` on a
/// verified record, `Ok(None)` for a clean end exactly at the buffer's
/// end, `Err(())` on a torn or corrupt frame.
#[allow(clippy::result_unit_err)]
fn parse_frame(
    buf: &[u8],
    offset: usize,
    max_record_bytes: u32,
) -> Result<Option<std::ops::Range<usize>>, ()> {
    if offset == buf.len() {
        return Ok(None);
    }
    if buf.len() - offset < HEADER_BYTES {
        return Err(());
    }
    let len = u32::from_le_bytes(buf[offset..offset + 4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[offset + 4..offset + 8].try_into().expect("4 bytes"));
    if len > max_record_bytes {
        return Err(());
    }
    let len = len as usize;
    let start = offset + HEADER_BYTES;
    if buf.len() - start < len {
        return Err(());
    }
    if crc32(&buf[start..start + len]) != crc {
        return Err(());
    }
    Ok(Some(start..start + len))
}

impl Log {
    /// Opens (creating if absent) the log in `dir` and recovers whatever
    /// survives there. Equivalent to [`Log::open_with`] armed with a
    /// [`CrashPoint`] that never fires.
    pub fn open(dir: impl AsRef<Path>, config: LogConfig) -> Result<(Log, Recovered), LogError> {
        Log::open_with(dir, config, CrashPoint::never())
    }

    /// Opens the log with an explicit crash point armed on its write
    /// path. Recovery itself only reads, so it cannot trip the point.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: LogConfig,
        crash: Arc<CrashPoint>,
    ) -> Result<(Log, Recovered), LogError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;

        let mut seg_bases: Vec<u64> = Vec::new();
        let mut snap_lsns: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
            } else if let Some(base) = parse_numbered(name, "seg-", ".log") {
                seg_bases.push(base);
            } else if let Some(lsn) = parse_numbered(name, "snap-", ".snap") {
                snap_lsns.push(lsn);
            }
        }
        seg_bases.sort_unstable();
        snap_lsns.sort_unstable();

        // Newest intact snapshot wins; corrupt candidates are removed and
        // the scan falls back to the next-newest.
        let mut snapshot: Option<(u64, Vec<u8>)> = None;
        for &lsn in snap_lsns.iter().rev() {
            let path = snap_path(&dir, lsn);
            let buf = fs::read(&path)?;
            match parse_frame(&buf, 0, config.max_record_bytes) {
                Ok(Some(range)) if range.end == buf.len() => {
                    snapshot = Some((lsn, buf[range].to_vec()));
                    break;
                }
                _ => {
                    let _ = fs::remove_file(&path);
                }
            }
        }
        let snapshot_floor = snapshot.as_ref().map_or(0, |(lsn, _)| *lsn);

        let mut records: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut index: BTreeMap<u64, RecordLoc> = BTreeMap::new();
        let mut sealed: Vec<SealedSeg> = Vec::new();
        let mut truncated_records = 0_u64;
        let mut truncated_bytes = 0_u64;
        let mut torn = false;
        // (base, kept records, kept bytes) of the last surviving segment.
        let mut tail: Option<(u64, u64, u64)> = None;

        for (pos, &base) in seg_bases.iter().enumerate() {
            let path = seg_path(&dir, base);
            if torn {
                // Everything after the first bad record is unacknowledged
                // tail: drop whole later segments.
                truncated_bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                truncated_records += count_records(&path, config.max_record_bytes);
                let _ = fs::remove_file(&path);
                continue;
            }
            let buf = fs::read(&path)?;
            let mut offset = 0_usize;
            let mut kept = 0_u64;
            loop {
                match parse_frame(&buf, offset, config.max_record_bytes) {
                    Ok(None) => break,
                    Ok(Some(range)) => {
                        let lsn = base + kept;
                        let loc = RecordLoc {
                            seg_base: base,
                            offset: offset as u64,
                            frame_len: (HEADER_BYTES + range.len()) as u32,
                        };
                        index.insert(lsn, loc);
                        if lsn >= snapshot_floor {
                            records.push((lsn, buf[range.clone()].to_vec()));
                        }
                        offset = range.end;
                        kept += 1;
                    }
                    Err(()) => {
                        torn = true;
                        truncated_records += 1;
                        truncated_bytes += (buf.len() - offset) as u64;
                        let file = OpenOptions::new().write(true).open(&path)?;
                        file.set_len(offset as u64)?;
                        file.sync_data()?;
                        break;
                    }
                }
            }
            if pos == seg_bases.len() - 1 || torn {
                tail = Some((base, kept, offset as u64));
            } else {
                sealed.push(SealedSeg {
                    base,
                    records: kept,
                    path,
                });
            }
        }

        let (seg_base, seg_records, seg_bytes, file) = match tail {
            Some((base, kept, bytes)) => {
                let mut file = OpenOptions::new()
                    .read(true)
                    .write(true)
                    .open(seg_path(&dir, base))?;
                file.seek(SeekFrom::End(0))?;
                (base, kept, bytes, file)
            }
            None => {
                let base = snapshot_floor;
                let file = OpenOptions::new()
                    .create(true)
                    .truncate(true)
                    .write(true)
                    .read(true)
                    .open(seg_path(&dir, base))?;
                (base, 0, 0, file)
            }
        };
        let next_lsn = (seg_base + seg_records).max(snapshot_floor);

        let log = Log {
            inner: Mutex::new(Inner {
                dir,
                config,
                crash,
                file: Arc::new(file),
                seg_base,
                seg_records,
                seg_bytes,
                sealed,
                staged: Vec::new(),
                staged_lens: Vec::new(),
                spare: Vec::new(),
                spare_lens: Vec::new(),
                next_lsn,
                durable_lsn: next_lsn,
                flushing: false,
                failed: false,
                snapshot_floor,
                index,
            }),
            flushed: Condvar::new(),
            appends: Counter::new(),
            bytes: Counter::new(),
            fsyncs: Counter::new(),
            recoveries: Counter::new(),
            truncated: Counter::new(),
            snapshots: Counter::new(),
            group_records: Histogram::new(),
            fsync_ns: Histogram::new(),
        };
        log.recoveries.inc();
        log.truncated.add(truncated_records);
        let recovered = Recovered {
            snapshot,
            records,
            truncated_records,
            truncated_bytes,
            next_lsn,
        };
        Ok((log, recovered))
    }

    /// Stages `payload` as the next record and returns its LSN. The
    /// record is **not durable** until a [`Log::commit`] (or
    /// [`Log::append_durable`]) covering that LSN returns.
    pub fn append(&self, payload: &[u8]) -> Result<u64, LogError> {
        let frame_len = frame_len(payload);
        let crc = crc32(payload);
        let mut g = self.lock();
        g.check_live()?;
        let lsn = g.next_lsn;
        g.next_lsn += 1;
        put_frame(&mut g.staged, crc, payload);
        g.staged_lens.push(frame_len);
        drop(g);
        self.appends.inc();
        Ok(lsn)
    }

    /// Group commit: once no flush is in flight, flushes every staged
    /// record with one write and one fsync, then returns the new durable
    /// LSN horizon (all LSNs below it are durable). A no-op when nothing
    /// is staged.
    pub fn commit(&self) -> Result<u64, LogError> {
        let g = self.quiet();
        g.check_live()?;
        let (g, result) = self.lead(g);
        result?;
        Ok(g.durable_lsn)
    }

    /// Makes `lsn` durable: returns at once if it already is, waits for an
    /// in-flight group that may cover it, and otherwise leads the next
    /// group (see the [module docs](self)).
    pub fn commit_through(&self, lsn: u64) -> Result<(), LogError> {
        let mut g = self.lock();
        loop {
            if g.durable_lsn > lsn {
                return Ok(());
            }
            g.check_live()?;
            if !g.flushing {
                return self.lead(g).1;
            }
            g = self.flushed.wait(g).expect("durable log poisoned");
        }
    }

    /// [`Log::append`] + [`Log::commit_through`] fused: returns once the
    /// record (and everything staged before it) is durable.
    pub fn append_durable(&self, payload: &[u8]) -> Result<u64, LogError> {
        let lsn = self.append(payload)?;
        self.commit_through(lsn)?;
        Ok(lsn)
    }

    /// Writes a compacted snapshot claiming to capture all effects of
    /// LSNs `< next_lsn`, then garbage-collects segments (and older
    /// snapshots) fully covered by it. Staged records are committed
    /// first so the claim can only cover durable history.
    pub fn write_snapshot(&self, next_lsn: u64, payload: &[u8]) -> Result<(), LogError> {
        let g = self.quiet();
        g.check_live()?;
        let (mut g, result) = self.lead(g);
        result?;
        assert!(
            next_lsn <= g.durable_lsn,
            "snapshot claims undurable lsn {} (durable horizon {})",
            next_lsn,
            g.durable_lsn
        );
        if g.crash.is_crashed() {
            return Err(LogError::Crashed);
        }

        // Frame, write to a .tmp sibling, fsync, rename: the final file
        // is either absent or complete.
        let mut framed = Vec::with_capacity(frame_len(payload) as usize);
        put_frame(&mut framed, crc32(payload), payload);
        let final_path = snap_path(&g.dir, next_lsn);
        let tmp_path = final_path.with_extension("snap.tmp");
        {
            let tmp = File::create(&tmp_path)?;
            self.write_crashing(&g.crash, &tmp, &framed)?;
            if g.crash.is_crashed() {
                return Err(LogError::Crashed);
            }
            self.sync(&tmp)?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.sync_dir(&g.dir)?;
        self.snapshots.inc();
        g.snapshot_floor = g.snapshot_floor.max(next_lsn);

        // Seal the active segment so future appends land past the floor
        // and the GC below can eventually reclaim it.
        if g.seg_records > 0 {
            if g.crash.is_crashed() {
                return Err(LogError::Crashed);
            }
            let base = g.durable_lsn;
            let file = self.create_segment(&g.dir, base)?;
            g.install_segment(file, base);
        }

        // Reclaim segments whose every record the snapshot covers, and
        // superseded snapshots.
        let floor = g.snapshot_floor;
        let mut kept = Vec::new();
        for seg in std::mem::take(&mut g.sealed) {
            if seg.base + seg.records <= floor {
                let _ = fs::remove_file(&seg.path);
                let end = seg.base + seg.records;
                let stale: Vec<u64> = g.index.range(seg.base..end).map(|(lsn, _)| *lsn).collect();
                for lsn in stale {
                    g.index.remove(&lsn);
                }
            } else {
                kept.push(seg);
            }
        }
        g.sealed = kept;
        for entry in fs::read_dir(&g.dir)?.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(lsn) = parse_numbered(name, "snap-", ".snap") {
                if lsn < floor {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Random-access read of a durable record through the in-memory
    /// index. Staged-but-uncommitted LSNs and LSNs reclaimed by snapshot
    /// GC return `None`.
    pub fn read(&self, lsn: u64) -> Result<Option<Vec<u8>>, LogError> {
        let g = self.lock();
        if g.crash.is_crashed() {
            return Err(LogError::Crashed);
        }
        let Some(loc) = g.index.get(&lsn).copied() else {
            return Ok(None);
        };
        let mut file = File::open(seg_path(&g.dir, loc.seg_base))?;
        file.seek(SeekFrom::Start(loc.offset))?;
        let mut frame = vec![0_u8; loc.frame_len as usize];
        file.read_exact(&mut frame)?;
        match parse_frame(&frame, 0, g.config.max_record_bytes) {
            Ok(Some(range)) => Ok(Some(frame[range].to_vec())),
            _ => Err(LogError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("indexed record at lsn {lsn} failed verification"),
            ))),
        }
    }

    /// The LSN the next [`Log::append`] will receive.
    pub fn next_lsn(&self) -> u64 {
        self.lock().next_lsn
    }

    /// All LSNs below this horizon are durable.
    pub fn durable_lsn(&self) -> u64 {
        self.lock().durable_lsn
    }

    /// `next_lsn` of the newest snapshot (0 when none exists).
    pub fn snapshot_floor(&self) -> u64 {
        self.lock().snapshot_floor
    }

    /// Number of segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.lock().sealed.len() + 1
    }

    /// Replaces the armed crash point once no flush is in flight (tests
    /// arm a fresh one per run on a log opened crash-free).
    pub fn arm_crash(&self, point: Arc<CrashPoint>) {
        self.quiet().crash = point;
    }

    /// True once the armed crash point has struck.
    pub fn is_crashed(&self) -> bool {
        self.lock().crash.is_crashed()
    }

    /// A point-in-time copy of the log's counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            appends: self.appends.value(),
            bytes: self.bytes.value(),
            fsyncs: self.fsyncs.value(),
            recoveries: self.recoveries.value(),
            truncated_records: self.truncated.value(),
            snapshots: self.snapshots.value(),
        }
    }

    /// Registers the log's metrics with `registry` under the `durable_*`
    /// families: the counters `durable_appends`, `durable_bytes`,
    /// `durable_fsyncs`, `durable_recoveries`, `durable_truncated_records`,
    /// `durable_snapshots`, and the histograms `durable_group_records`
    /// (records made durable per group-commit fsync) and
    /// `durable_fsync_ns` (wall-clock latency of every fsync the log
    /// counts, group commits and snapshots alike).
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter("durable_appends", &[], &self.appends);
        registry.register_counter("durable_bytes", &[], &self.bytes);
        registry.register_counter("durable_fsyncs", &[], &self.fsyncs);
        registry.register_counter("durable_recoveries", &[], &self.recoveries);
        registry.register_counter("durable_truncated_records", &[], &self.truncated);
        registry.register_counter("durable_snapshots", &[], &self.snapshots);
        registry.register_histogram("durable_group_records", &[], &self.group_records);
        registry.register_histogram("durable_fsync_ns", &[], &self.fsync_ns);
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("durable log poisoned")
    }

    /// Locks the log once no flush is in flight.
    fn quiet(&self) -> MutexGuard<'_, Inner> {
        self.flushed
            .wait_while(self.lock(), |inner| inner.flushing)
            .expect("durable log poisoned")
    }

    /// Leads one group: takes every staged record, writes and fsyncs them
    /// with the lock released, then publishes them as durable. Called with
    /// no flush in flight; returns the re-acquired guard.
    fn lead<'a>(
        &'a self,
        mut g: MutexGuard<'a, Inner>,
    ) -> (MutexGuard<'a, Inner>, Result<(), LogError>) {
        debug_assert!(!g.flushing, "two flush leaders");
        if g.staged_lens.is_empty() {
            return (g, Ok(()));
        }
        let first = g.durable_lsn;
        let end = g.next_lsn;
        debug_assert_eq!(end - first, g.staged_lens.len() as u64);
        let spare = std::mem::take(&mut g.spare);
        let mut buf = std::mem::replace(&mut g.staged, spare);
        let spare_lens = std::mem::take(&mut g.spare_lens);
        let mut lens = std::mem::replace(&mut g.staged_lens, spare_lens);
        g.flushing = true;
        let rotate = g.seg_records > 0 && g.seg_bytes >= g.config.segment_bytes;
        let dir = rotate.then(|| g.dir.clone());
        let crash = Arc::clone(&g.crash);
        let file = Arc::clone(&g.file);
        drop(g);

        let written = self.write_group(&crash, &file, dir.as_deref(), first, &buf);

        let mut g = self.lock();
        g.flushing = false;
        let result = match written {
            Ok(new_segment) => {
                if let Some(file) = new_segment {
                    g.install_segment(file, first);
                }
                let seg_base = g.seg_base;
                let mut offset = g.seg_bytes;
                for (lsn, &frame_len) in (first..end).zip(&lens) {
                    let loc = RecordLoc {
                        seg_base,
                        offset,
                        frame_len,
                    };
                    g.index.insert(lsn, loc);
                    offset += u64::from(frame_len);
                }
                g.seg_bytes = offset;
                g.seg_records += lens.len() as u64;
                g.durable_lsn = end;
                self.group_records.record(lens.len() as u64);
                Ok(())
            }
            Err(err) => {
                g.failed |= !matches!(err, LogError::Crashed);
                Err(err)
            }
        };
        buf.clear();
        lens.clear();
        g.spare = buf;
        g.spare_lens = lens;
        self.flushed.notify_all();
        (g, result)
    }

    /// The unlocked half of [`Log::lead`]: writes the group `buf` and
    /// fsyncs it, into a new segment based at `first` when `rotate_in`
    /// names the log directory, else into `file`. Returns the new
    /// segment, if one was created.
    fn write_group(
        &self,
        crash: &CrashPoint,
        file: &File,
        rotate_in: Option<&Path>,
        first: u64,
        buf: &[u8],
    ) -> Result<Option<File>, LogError> {
        let new_segment = match rotate_in {
            Some(dir) => Some(self.create_segment(dir, first)?),
            None => None,
        };
        let target = new_segment.as_ref().unwrap_or(file);
        self.write_crashing(crash, target, buf)?;
        self.sync(target)?;
        Ok(new_segment)
    }

    /// Writes `buf` through the crash point: a struck budget cuts the
    /// write short at the exact admitted byte (the torn tail a power cut
    /// leaves) and reports [`LogError::Crashed`].
    fn write_crashing(&self, crash: &CrashPoint, file: &File, buf: &[u8]) -> Result<(), LogError> {
        let mut file = file;
        let admitted = crash.admit(buf.len());
        if admitted > 0 {
            file.write_all(&buf[..admitted])?;
            self.bytes.add(admitted as u64);
        }
        if admitted < buf.len() {
            // Persist the torn prefix the way a dying kernel might, so
            // recovery faces the worst case rather than a clean cut.
            let _ = file.sync_data();
            return Err(LogError::Crashed);
        }
        Ok(())
    }

    /// The counted, timed fsync.
    fn sync(&self, file: &File) -> Result<(), LogError> {
        let started = Instant::now();
        file.sync_data()?;
        self.fsync_ns.record_nanos(started.elapsed());
        self.fsyncs.inc();
        Ok(())
    }

    /// Creates the empty segment file based at `base`.
    fn create_segment(&self, dir: &Path, base: u64) -> Result<File, LogError> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .read(true)
            .open(seg_path(dir, base))?;
        self.sync_dir(dir)?;
        Ok(file)
    }

    fn sync_dir(&self, dir: &Path) -> Result<(), LogError> {
        // Directory fsync so renames/creates survive the cut too; best
        // effort on filesystems that refuse to open directories.
        if let Ok(handle) = File::open(dir) {
            let _ = handle.sync_data();
        }
        Ok(())
    }
}

impl Inner {
    /// Refuses work once the machine is down or a write has failed.
    fn check_live(&self) -> Result<(), LogError> {
        if self.crash.is_crashed() {
            return Err(LogError::Crashed);
        }
        if self.failed {
            return Err(LogError::Io(std::io::Error::other(
                "durable log failed an earlier write; reopen it to recover",
            )));
        }
        Ok(())
    }

    /// Seals the active segment (its records already fsynced) and makes
    /// `file`, based at `base`, the active one.
    fn install_segment(&mut self, file: File, base: u64) {
        let sealed = SealedSeg {
            base: self.seg_base,
            records: self.seg_records,
            path: seg_path(&self.dir, self.seg_base),
        };
        self.sealed.push(sealed);
        self.file = Arc::new(file);
        self.seg_base = base;
        self.seg_records = 0;
        self.seg_bytes = 0;
    }
}

/// Best-effort record count of a segment being discarded wholesale (used
/// only for the recovery report's truncation tally).
fn count_records(path: &Path, max_record_bytes: u32) -> u64 {
    let Ok(buf) = fs::read(path) else { return 0 };
    let mut offset = 0_usize;
    let mut count = 0_u64;
    loop {
        match parse_frame(&buf, offset, max_record_bytes) {
            Ok(Some(range)) => {
                offset = range.end;
                count += 1;
            }
            Ok(None) => break,
            Err(()) => {
                count += 1;
                break;
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crash::splitmix64;

    /// The bitwise CRC-32 the table is derived from: eight conditional
    /// polynomial steps per byte.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFF_u32;
        for &byte in data {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn crc32_table_matches_the_bitwise_reference() {
        let mut state = 0x5EED_u64;
        for len in (0..64).chain([255, 256, 1000, 4097]) {
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    state = splitmix64(state);
                    state as u8
                })
                .collect();
            assert_eq!(crc32(&buf), crc32_bitwise(&buf), "length {len}");
        }
    }
}
