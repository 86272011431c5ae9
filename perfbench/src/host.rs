//! The host side: building the binaries a user runs, memory high-water
//! marks, and the provenance printed with every result.

use std::os::unix::process::ExitStatusExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus};
use std::sync::atomic::{AtomicU64, Ordering};

/// The repository binaries the end-to-end workloads run.
pub struct Bins {
    pub regen: PathBuf,
    pub study: PathBuf,
}

/// Locate `regenerate_all` and `study` beside this binary; `run.sh`
/// builds all three into one target directory.
pub fn locate_bins() -> Result<Bins, String> {
    if !Path::new("crates/bench/Cargo.toml").exists() {
        return Err("run from the repository root (crates/ not found)".into());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let release = exe.parent().ok_or("benchmark binary has no directory")?;
    let bins = Bins {
        regen: release.join("regenerate_all"),
        study: release.join("study"),
    };
    for bin in [&bins.regen, &bins.study] {
        if !bin.exists() {
            return Err(format!(
                "{} not built (run perfbench/run.sh)",
                bin.display()
            ));
        }
    }
    Ok(bins)
}

/// A scratch directory for op outputs, inside the target directory.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .and_then(Path::parent)
        .ok_or("benchmark binary is not in a target dir")?
        .join("perfbench-scratch")
        .join(format!("{tag}-{}", std::process::id()));
    reset_dir(&dir)?;
    Ok(dir)
}

/// Empty `dir`, creating it if needed.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// This process's peak resident set (VmHWM), KiB.
pub fn self_hwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
}

/// Largest peak resident set (KiB) of a child reaped by [`wait_child`].
static CHILD_PEAK_KB: AtomicU64 = AtomicU64::new(0);

/// Reap `child` and fold its peak resident set, which holds those of
/// the processes it reaped in turn (the study's workers), into
/// [`children_peak_kb`]. Children reaped elsewhere, such as the speed
/// reference's, do not count.
pub fn wait_child(child: Child) -> Result<ExitStatus, String> {
    let mut status = 0;
    let mut ru = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the 64-bit Linux `struct rusage` layout,
    // both out-pointers outlive the call, and `child` has not been
    // reaped: it is consumed here, so std never waits for it.
    let rc = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
    if rc < 0 {
        return Err(format!("wait4: {}", std::io::Error::last_os_error()));
    }
    CHILD_PEAK_KB.fetch_max(ru.maxrss.max(0) as u64, Ordering::Relaxed);
    Ok(ExitStatus::from_raw(status))
}

/// Largest peak resident set (KiB) of any child reaped by
/// [`wait_child`]: the `regenerate_all` and `study` processes and the
/// study's workers.
pub fn children_peak_kb() -> u64 {
    CHILD_PEAK_KB.load(Ordering::Relaxed)
}

/// Where and on what the numbers were measured.
pub struct Provenance {
    pub rev: String,
    pub nproc: usize,
    pub l2_bytes: u64,
    pub llc_bytes: u64,
}

impl Provenance {
    pub fn gather() -> Provenance {
        let (l2, llc) = cache_sizes();
        Provenance {
            rev: rev(),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            l2_bytes: l2,
            llc_bytes: llc,
        }
    }
}

/// The git revision when the checkout is a repository, else a digest
/// of the sources the binaries were built from.
fn rev() -> String {
    if Path::new(".git").exists() {
        let out = Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_DIR", ".git")
            .output();
        if let Some(o) = out.ok().filter(|o| o.status.success()) {
            return String::from_utf8_lossy(&o.stdout).trim().to_owned();
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "crates"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over path and contents.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("src-{h:016x}")
}

fn collect_files(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_dir() {
        if let Ok(entries) = std::fs::read_dir(p) {
            for e in entries.flatten() {
                collect_files(&e.path(), out);
            }
        }
    } else if p.is_file() {
        out.push(p.to_path_buf());
    }
}

/// (L2, last-level) data cache sizes of CPU 0, bytes (0 if unknown).
fn cache_sizes() -> (u64, u64) {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut l2 = 0;
    let mut llc = (0, 0);
    for i in 0..8 {
        let dir = base.join(format!("index{i}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).unwrap_or_default();
        let level: u32 = match read("level").trim().parse() {
            Ok(l) => l,
            Err(_) => continue,
        };
        if read("type").trim() == "Instruction" {
            continue;
        }
        let size = parse_size(read("size").trim());
        if level == 2 {
            l2 = size;
        }
        if level >= llc.0 {
            llc = (level, size);
        }
    }
    (l2, llc.1)
}

fn parse_size(s: &str) -> u64 {
    let (num, mult) = match s.chars().last() {
        Some('K') => (&s[..s.len() - 1], 1 << 10),
        Some('M') => (&s[..s.len() - 1], 1 << 20),
        Some('G') => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().map(|n| n * mult).unwrap_or(0)
}
