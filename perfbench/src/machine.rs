//! What a result was measured on: the stamp printed beside every result,
//! and the process's peak resident set.

use std::path::Path;

use bo3_core::configio::Json;

use crate::report::obj;

/// Peak resident set size of this process (`VmHWM`) in MB (10⁶ bytes).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Cores the process may use.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|line| line.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown".to_string(), |(_, model)| model.trim().to_string())
}

/// Size of the cache at `level` seen by cpu0, as the kernel prints it
/// (`2048K`), or `unknown`.
fn cache_size(level: u32) -> String {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return "unknown".to_string();
    };
    for entry in entries.flatten() {
        let read = |file: &str| {
            std::fs::read_to_string(entry.path().join(file))
                .map(|s| s.trim().to_string())
                .unwrap_or_default()
        };
        if read("level") == level.to_string() && read("type") != "Instruction" {
            return read("size");
        }
    }
    "unknown".to_string()
}

/// The source revision: the git commit when the benchmark runs inside a
/// git checkout, otherwise an FNV-1a digest of the program's sources
/// (`crates/**/*.rs` and the manifests), so two runs of the same code
/// carry the same stamp either way.
fn revision() -> String {
    if Path::new(".git").exists() {
        let git = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output();
        if let Ok(out) = git {
            if out.status.success() {
                return String::from_utf8_lossy(&out.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_sources(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("src-fnv1a-{hash:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}

/// The run's stamp as a JSON object.
pub fn stamp(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    workers: usize,
    clients: usize,
) -> Json {
    let count = |c: usize| Json::UInt(c as u64);
    obj(vec![
        ("workload", Json::Str(workload.to_string())),
        ("seed", Json::UInt(seed)),
        ("seconds", Json::Float(seconds)),
        ("trace", Json::UInt(u64::from(traced))),
        ("revision", Json::Str(revision())),
        ("available_parallelism", count(available_parallelism())),
        ("engine_threads", count(threads)),
        ("serve_workers", count(workers)),
        ("clients", count(clients)),
        ("cpu_model", Json::Str(cpu_model())),
        ("l2", Json::Str(cache_size(2))),
        ("l3", Json::Str(cache_size(3))),
    ])
}
