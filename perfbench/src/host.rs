//! What the benchmark reads about its host and its own process: the run
//! fingerprint, peak memory, steal time, per-thread kernel time and
//! context switches. Every reader returns `None` where `/proc` lacks the field,
//! so a missing counter shows as absent rather than as zero.

use std::fs;
use std::path::Path;

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The process's peak resident set (`VmHWM`), in MB.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let kib = status_field("/proc/self/status", "VmHWM:")?;
    Some(kib as f64 * 1024.0 / 1e6)
}

/// Host-wide steal ticks (`/proc/stat`, first `cpu` line, 8th field):
/// time the hypervisor ran someone else while this VM wanted the CPU.
#[must_use]
pub fn steal_ticks() -> Option<u64> {
    let text = fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Scheduler counters of one thread of this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadTimes {
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Time spent in the kernel, in clock ticks of [`TICK_SECS`].
    pub sys_ticks: u64,
}

/// Length of the clock tick `/proc/<pid>/task/<tid>/stat` counts in
/// (`USER_HZ`, fixed at 100 on Linux).
pub const TICK_SECS: f64 = 0.01;

fn thread_times(dir: &Path) -> Option<ThreadTimes> {
    let status = dir.join("status");
    let status = status.to_str()?;
    let stat = fs::read_to_string(dir.join("stat")).ok()?;
    // Fields after the parenthesised name start at field 3; stime is 15.
    let after_name = &stat[stat.rfind(')')? + 1..];
    Some(ThreadTimes {
        ctx_switches: status_field(status, "voluntary_ctxt_switches:")?
            + status_field(status, "nonvoluntary_ctxt_switches:")?,
        sys_ticks: after_name.split_whitespace().nth(12)?.parse().ok()?,
    })
}

/// Counters of this process's thread whose name starts with `prefix`
/// (the first one found).
#[must_use]
pub fn named_thread_times(prefix: &str) -> Option<ThreadTimes> {
    for entry in fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = entry.path();
        let comm = fs::read_to_string(dir.join("comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            return thread_times(&dir);
        }
    }
    None
}

/// Counters of the main thread, which runs the benchmark's client.
#[must_use]
pub fn main_thread_times() -> Option<ThreadTimes> {
    thread_times(Path::new(&format!(
        "/proc/self/task/{}",
        std::process::id()
    )))
}

/// 64-bit FNV-1a over the repository's sources as found from the working
/// directory (`Cargo.lock` and every file under `crates/`, in sorted
/// path order). The checkout the benchmark runs in is not a git
/// repository, so this stands in for the commit id.
#[must_use]
pub fn source_hash() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = fs::read_dir(dir) else { return };
        for entry in rd.flatten() {
            let p = entry.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = vec![Path::new("Cargo.lock").to_path_buf()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut seen = 0;
    for f in &files {
        let Ok(bytes) = fs::read(f) else { continue };
        seen += 1;
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    if seen == 0 {
        "unknown".into()
    } else {
        format!("{h:016x}")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_features() -> Vec<&'static str> {
    let mut f = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("ssse3") {
            f.push("ssse3");
        }
        if std::arch::is_x86_feature_detected!("sse4.2") {
            f.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("popcnt") {
            f.push("popcnt");
        }
        if std::arch::is_x86_feature_detected!("bmi2") {
            f.push("bmi2");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            f.push("avx2");
        }
    }
    f
}

/// The run fingerprint as one JSON object: enough to tell a noisy run
/// (steal ticks, another CPU) from a regression.
#[must_use]
pub fn fingerprint(workload: &str, seed: u64, trace: bool, steal_delta: Option<u64>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_owned());
    let features: Vec<String> = cpu_features().iter().map(|f| json_str(f)).collect();
    format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"cpu_features\": [{}], \
         \"cargo_features\": \"default (no obs, no simd)\", \"source_fnv64\": {}, \
         \"shards\": 1, \"steal_ticks\": {}}}}}",
        json_str(workload),
        json_str(&cpu),
        json_str(&kernel),
        features.join(", "),
        json_str(&source_hash()),
        steal_delta.map_or_else(|| "null".into(), |d| d.to_string()),
    )
}
