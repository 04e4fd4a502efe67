//! Host facts and provenance recorded with every result, plus the
//! process-level measurements (peak RSS) that belong to no layer.

use std::path::{Path, PathBuf};

/// The repository checkout the benchmark was built from: the parent of
/// this package's directory. Goldens are read from `reports/` under it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// Worker threads the census and matrix `xN` runs use: every core the
/// process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, used to fingerprint the sources the benchmark measured.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name != "target" && name != "out" && !name.starts_with('.') {
                collect_sources(&path, out);
            }
        } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
            out.push(path);
        }
    }
}

/// Digest of every Rust source and manifest under `crates/`, `shims/`
/// and the benchmark itself, plus the root manifests. It identifies the
/// measured code even where the checkout is not a git repository.
pub fn source_digest(root: &Path) -> String {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    for dir in ["crates", "shims", "perfbench"] {
        collect_sources(&root.join(dir), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            fnv(
                &mut h,
                f.strip_prefix(root)
                    .unwrap_or(f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            fnv(&mut h, &bytes);
        }
    }
    format!("{h:016x}")
}

/// `(rev, dirty)` when the checkout is a git work tree, else `None`.
/// Only a `.git` in the checkout itself counts, so nothing outside the
/// checkout is consulted.
pub fn git_rev(root: &Path) -> Option<(String, bool)> {
    if !root.join(".git").exists() {
        return None;
    }
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rev = git(&["rev-parse", "HEAD"])?;
    let dirty = !git(&["status", "--porcelain", "--untracked-files=no"])?.is_empty();
    Some((rev, dirty))
}

/// The compiler that built this benchmark (and, through the path
/// dependencies, the program it measures).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
