//! What the benchmark needs from the host: a scratch directory inside the
//! build directory, and the process's peak resident set.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `<cargo target dir>/benchmark`: next to the `release`/`debug` directory
/// the running binary was built into, so everything the benchmark writes
/// stays inside the checkout whatever the target directory is called.
/// (`cdb_store::ScratchDir` is rooted in the system temp directory, which
/// the benchmark contract forbids.)
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe
        .ancestors()
        .find(|p| p.file_name().is_some_and(|n| n == "release" || n == "debug"))
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("target"));
    target.join("benchmark")
}

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under [`output_dir`], removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create `<output_dir>/<label>-<pid>-<n>`.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = output_dir().join(format!("{label}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Scratch(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of the regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|d| d.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
            .unwrap_or(0)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
