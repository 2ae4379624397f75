//! Cooperative single-writer locking for on-disk ledgers.
//!
//! A campaign directory must have at most one live writer: two processes (or
//! two campaign drivers in one process) appending to the same segment ledger
//! would interleave records and corrupt the recovery story. [`LedgerLock`]
//! implements the classic pid-file protocol with `O_CREAT|O_EXCL` semantics:
//! acquiring creates `LOCK` atomically (`create_new`), failing if it already
//! exists, and dropping the guard removes the file.
//!
//! The lock is **advisory and cooperative** — it guards against accidental
//! double-opens by well-behaved code, not against hostile writers. A crash
//! leaves a stale `LOCK` behind by design (there is no daemon around to
//! clean it up); an owner that *knows* it has exclusive claim over the
//! directory tree — like the service daemon scanning its own campaign root
//! at startup — clears stale locks with [`LedgerLock::break_stale`] before
//! re-acquiring.

use crate::{Result, StoreError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the lock inside a locked directory.
pub const LOCK_FILE: &str = "LOCK";

/// An exclusive advisory lock on a ledger directory, released on drop.
#[derive(Debug)]
pub struct LedgerLock {
    path: PathBuf,
}

impl LedgerLock {
    /// Acquires the lock on `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created or
    /// when another holder's `LOCK` file already exists (the error message
    /// includes the holder recorded inside the file, typically its pid).
    pub fn acquire(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        crate::segment::create_dir_durable(dir)?;
        let path = dir.join(LOCK_FILE);
        match fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut file) => {
                // Best-effort holder stamp for diagnostics; the atomic
                // create is what provides exclusion.
                let _ = writeln!(file, "pid {}", std::process::id());
                Ok(LedgerLock { path })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder = fs::read_to_string(&path).unwrap_or_default();
                let holder = holder.trim();
                Err(StoreError::Io {
                    path: path.display().to_string(),
                    message: if holder.is_empty() {
                        "ledger is locked by another writer".to_string()
                    } else {
                        format!("ledger is locked by another writer ({holder})")
                    },
                })
            }
            Err(e) => Err(StoreError::Io {
                path: path.display().to_string(),
                message: format!("acquiring ledger lock: {e}"),
            }),
        }
    }

    /// Removes a leftover `LOCK` file in `dir`, returning whether one was
    /// removed. Only for callers with exclusive claim over the directory
    /// (e.g. the service daemon recovering its own campaign root after a
    /// crash); breaking a *live* writer's lock voids the exclusion.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the file exists but cannot be
    /// removed.
    pub fn break_stale(dir: impl AsRef<Path>) -> Result<bool> {
        let path = dir.as_ref().join(LOCK_FILE);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io {
                path: path.display().to_string(),
                message: format!("breaking stale ledger lock: {e}"),
            }),
        }
    }

    /// Path of the held lock file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for LedgerLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "fedstore-lock-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn acquire_is_exclusive_until_dropped() {
        let dir = temp_dir("exclusive");
        let lock = LedgerLock::acquire(&dir).unwrap();
        assert!(lock.path().exists());
        let contended = LedgerLock::acquire(&dir);
        assert!(matches!(contended, Err(StoreError::Io { .. })));
        let message = contended.unwrap_err().to_string();
        assert!(message.contains("locked by another writer"), "{message}");
        drop(lock);
        // Released on drop: a new writer can claim the directory.
        let relocked = LedgerLock::acquire(&dir).unwrap();
        drop(relocked);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn break_stale_clears_a_crashed_writers_lock() {
        let dir = temp_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // Simulate a crash: the LOCK file survives its writer.
        fs::write(dir.join(LOCK_FILE), "pid 999999\n").unwrap();
        assert!(LedgerLock::acquire(&dir).is_err());
        assert!(LedgerLock::break_stale(&dir).unwrap());
        assert!(!LedgerLock::break_stale(&dir).unwrap(), "idempotent");
        let lock = LedgerLock::acquire(&dir).unwrap();
        drop(lock);
        let _ = fs::remove_dir_all(&dir);
    }
}
