//! Scratch directories for the durable databases.
//!
//! They live under the directory the benchmark is started from (the
//! contract confines it to its checkout, so not the system temp dir) and
//! are removed when the guard drops — at exit and while a panic unwinds.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const PARENT: &str = ".bench_scratch";

pub struct Scratch {
    root: PathBuf,
    dirs: AtomicUsize,
}

impl Scratch {
    pub fn new() -> std::io::Result<Scratch> {
        // unique per guard, so concurrent tests of one process do not share
        static GUARDS: AtomicUsize = AtomicUsize::new(0);
        let guard = GUARDS.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(PARENT).join(format!("run-{}-{guard}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root)?;
        }
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            dirs: AtomicUsize::new(0),
        })
    }

    /// A new, empty directory inside this run's scratch space.  Never the
    /// same one twice: a database directory that is opened again would be
    /// recovered, not created.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.fetch_add(1, Ordering::Relaxed);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("scratch directory");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // succeeds only when no other run is using the parent
        let _ = std::fs::remove_dir(PARENT);
    }
}

/// Bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_is_removed_on_drop_and_on_panic() {
        let scratch = Scratch::new().unwrap();
        let dir = scratch.fresh_dir("db");
        assert_ne!(dir, scratch.fresh_dir("db"));
        std::fs::write(dir.join("file"), b"12345").unwrap();
        assert_eq!(dir_bytes(&dir), 5);
        let root = scratch.root.clone();
        let unwound = std::panic::catch_unwind(move || {
            let _held = scratch;
            panic!("a failing run");
        });
        assert!(unwound.is_err());
        assert!(!root.exists());
    }
}
