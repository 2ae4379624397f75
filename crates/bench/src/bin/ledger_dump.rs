//! Streams a trial ledger to stdout as JSON lines, one record per line.
//!
//! ```text
//! ledger_dump <DIR> [--limit N]
//! ```
//!
//! `DIR` is a segment-ledger directory (the binary format written by
//! `TrialStore::open_segments`, e.g. a fedserve campaign's `ledger/` dir).
//! It streams in bounded memory, so a multi-million-record ledger dumps
//! without loading it whole. Each line is `TrialRecord::to_line`: the
//! ledger's one text view, for reading and diffing. It is write-only —
//! nothing imports it back; the segment directory is the ledger.

use fedstore::record::TrialRecord;
use fedstore::segment;
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
    let mut emitted: u64 = 0;
    let mut emit = |record: &TrialRecord| -> Result<bool, String> {
        if limit.is_some_and(|cap| emitted >= cap) {
            return Ok(false);
        }
        let line = record
            .to_line()
            .map_err(|e| format!("encoding record: {e}"))?;
        writeln!(out, "{line}").map_err(|e| format!("writing stdout: {e}"))?;
        emitted += 1;
        Ok(true)
    };

    // Stream records in ledger order; past a `limit` the scan only skips.
    let mut done = false;
    segment::for_each_record(target, |record| {
        if done {
            return Ok(());
        }
        match emit(&record) {
            Ok(true) => Ok(()),
            Ok(false) => {
                done = true;
                Ok(())
            }
            Err(message) => Err(fedstore::StoreError::Io {
                path: target.display().to_string(),
                message,
            }),
        }
    })
    .map_err(|e| e.to_string())?;
    out.flush().map_err(|e| format!("flushing stdout: {e}"))?;
    Ok(())
}
