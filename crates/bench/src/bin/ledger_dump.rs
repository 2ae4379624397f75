//! Streams a trial ledger to stdout as JSON lines, one entry per line.
//!
//! ```text
//! ledger_dump <DIR> [--limit N]
//! ```
//!
//! `DIR` is a segment-ledger directory (the binary format written by
//! `TrialStore::open_segments`, e.g. a fedserve campaign's `ledger/` dir).
//! It streams in bounded memory, so a multi-million-record ledger dumps
//! without loading it whole. A record's line is `TrialRecord::to_line`; a
//! note's line is `{"note":<its JSON>}` (a note that is not JSON shows as a
//! JSON string), in ledger order. `--limit N` caps the record lines only:
//! every note is printed. This is the ledger's one text view, for reading
//! and diffing. It is write-only — nothing imports it back; the segment
//! directory is the ledger.

use fedstore::segment::{self, LedgerEntry};
use serde::Value;
use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("ledger_dump: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut path: Option<&str> = None;
    let mut limit: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--limit" => {
                let value = iter.next().ok_or("--limit needs a number")?;
                limit = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --limit value {value:?}"))?,
                );
            }
            "--help" | "-h" => {
                println!("usage: ledger_dump <DIR> [--limit N]");
                return Ok(());
            }
            other if path.is_none() => path = Some(other),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    let path = path.ok_or("usage: ledger_dump <DIR> [--limit N]")?;
    let target = std::path::Path::new(path);
    if !target.is_dir() {
        return Err(format!(
            "{path} is not a segment-ledger directory\nusage: ledger_dump <DIR> [--limit N]"
        ));
    }

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    let mut records: u64 = 0;
    let mut emit = |entry: LedgerEntry| -> Result<(), String> {
        let line = match entry {
            // Past a `limit` the scan only skips records.
            LedgerEntry::Record(_) if limit.is_some_and(|cap| records >= cap) => return Ok(()),
            LedgerEntry::Record(record) => {
                records += 1;
                record
                    .to_line()
                    .map_err(|e| format!("encoding record: {e}"))?
            }
            LedgerEntry::Note(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let note =
                    serde_json::parse_str(&text).unwrap_or_else(|_| Value::Str(text.into_owned()));
                serde_json::to_string(&Value::Map(vec![("note".into(), note)]))
                    .map_err(|e| format!("encoding note: {e}"))?
            }
        };
        writeln!(out, "{line}").map_err(|e| format!("writing stdout: {e}"))
    };

    // Stream entries in ledger order.
    segment::for_each_entry(target, |entry| {
        emit(entry).map_err(|message| fedstore::StoreError::Io {
            path: target.display().to_string(),
            message,
        })
    })
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| format!("flushing stdout: {e}"))?;
    Ok(())
}
