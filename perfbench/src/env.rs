//! The environment fingerprint printed with every result, so numbers
//! from different machines, compilers or sources are never compared
//! silently.

use crate::stats::fnv1a;
use std::path::{Path, PathBuf};

/// Where the workspace sources live: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: String,
    /// `HEAD` of the repository, or `none` when built outside a git
    /// checkout.
    pub git_commit: String,
    /// Hash of every workspace source and manifest: identifies the code
    /// even where there is no git metadata.
    pub source_hash: u64,
}

impl Fingerprint {
    pub fn capture() -> Fingerprint {
        let root = repo_root();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            rustc: env!("KF_PERFBENCH_RUSTC").to_string(),
            git_commit: git_commit(&root).unwrap_or_else(|| "none".to_string()),
            source_hash: source_hash(&root),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Resolve `HEAD` by reading `.git` directly (loose ref, then
/// `packed-refs`), so a checkout nested in some other repository is
/// never mistaken for it.
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

fn source_hash(root: &Path) -> u64 {
    let mut files = Vec::new();
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        collect(&root.join(top), &mut files);
    }
    files.sort();
    let mut acc = Vec::with_capacity(files.len() * 24);
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        acc.extend_from_slice(rel.to_string_lossy().as_bytes());
        let content = std::fs::read(path).unwrap_or_default();
        acc.extend_from_slice(&fnv1a(&content).to_le_bytes());
    }
    fnv1a(&acc)
}

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    }
}
