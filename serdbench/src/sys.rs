//! Process facts and run stamps: peak RSS, core counts, source identity,
//! and the working and output directories inside the checkout.

use crate::stats::fnv1a64;
use std::path::{Path, PathBuf};

/// The checkout root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives one level below the checkout root")
        .to_path_buf()
}

/// Peak resident set size of this process in MiB (`VmHWM`), read in-process
/// because the machine may have no `/usr/bin/time`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Logical cores the OS offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit when the checkout is a git work tree, read from
/// `.git` without running git; `"none"` otherwise.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (id, name) = l.split_once(' ')?;
                (name == reference).then(|| id.to_string())
            })
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a digest of the program's sources (every file under `crates/` and
/// `src/`, plus the root manifest and lock file, in path order): identifies
/// the code under test where no git metadata exists.
pub fn source_digest() -> String {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src"] {
        collect_files(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut acc = Vec::with_capacity(files.len() * 8);
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            let rel = f.strip_prefix(&root).unwrap_or(f);
            acc.extend_from_slice(&fnv1a64(rel.to_string_lossy().as_bytes()).to_le_bytes());
            acc.extend_from_slice(&fnv1a64(&bytes).to_le_bytes());
        }
    }
    format!("{:016x}", fnv1a64(&acc))
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

/// A fresh per-run working directory under `.bench_work/` in the checkout,
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    pub fn new(tag: &str) -> std::io::Result<WorkDir> {
        let path = repo_root()
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Where runs leave their result and trace files (`.bench_out/`).
pub fn out_dir() -> PathBuf {
    repo_root().join(".bench_out")
}
