//! Process and machine facts read from `/proc`: CPU time, peak memory,
//! the filesystem under a directory, and the run's metadata.

use std::path::Path;
use std::sync::OnceLock;

/// Process user+sys CPU time so far, in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, in clock ticks.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / USER_HZ
}

/// Linux reports stat times in USER_HZ, which is 100 on every mainstream
/// architecture (`getconf CLK_TCK` would need a child process).
const USER_HZ: f64 = 100.0;

/// Peak resident set size so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// The type of the filesystem `dir` lives on, from `/proc/self/mountinfo`
/// (the longest mount point that prefixes its canonical path).
pub fn filesystem_type(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mountinfo) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(sep) = fields.iter().position(|f| *f == "-") else {
            continue;
        };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(sep + 1)) else {
            continue;
        };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_owned()));
        }
    }
    best.map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The running kernel's release string.
pub fn kernel() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into())
}

/// Identifies the code under test. A git checkout reports its commit; a
/// plain source tree (no `.git`) reports an FNV-1a hash of the manifests
/// and Rust sources of the repository's crates and of this benchmark.
pub fn commit() -> String {
    static COMMIT: OnceLock<String> = OnceLock::new();
    COMMIT
        .get_or_init(|| {
            if let Some(head) = git_head(Path::new(".git")) {
                return head;
            }
            let mut files = Vec::new();
            for root in ["Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"] {
                collect_sources(Path::new(root), &mut files);
            }
            files.sort();
            let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
            for file in &files {
                let bytes = std::fs::read(file).unwrap_or_default();
                for b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
                    hash ^= u64::from(*b);
                    hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
            format!("source-fnv1a:{hash:016x}")
        })
        .clone()
}

fn git_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (id, name) = line.split_once(' ')?;
        (name == reference).then(|| id.to_owned())
    })
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        if path.ends_with("target") {
            return;
        }
        if let Ok(entries) = std::fs::read_dir(path) {
            for entry in entries.flatten() {
                collect_sources(&entry.path(), out);
            }
        }
    } else if path
        .extension()
        .is_some_and(|ext| ext == "rs" || ext == "toml" || ext == "lock" || ext == "py")
    {
        out.push(path.to_path_buf());
    }
}
