//! The campaign registry and socket frontend.
//!
//! A [`Service`] owns one shared worker pool, one fair gate, and a
//! directory tree of campaigns:
//!
//! ```text
//! <root>/campaigns/<name>/
//!     ledger/       the campaign's segment ledger: a `Spec` note, the
//!                   records (one sync per driver turn), and a `Settled`
//!                   note once terminal
//!     LOCK          single-writer pid file while a driver is live
//! ```
//!
//! That tree *is* the service's persistent state, and the ledger is its one
//! durable format: the campaign's spec and terminal status are JSON notes
//! in it (see [`fedstore::TrialStore::append_note`]), each synced before
//! anyone hears of it. A `Submit` answers only once its `Spec` note is
//! synced; a terminal state is published only once its `Settled` note is.
//! A campaign is terminal iff its last note is `Settled`. [`Service::open`]
//! breaks each campaign's stale lock and streams its ledger's notes: a
//! terminal campaign is merely reported; any other campaign with a `Spec`
//! note had its process die (or suspend) mid-run, so the service opens its
//! ledger and respawns its driver, which replays the ledger prefix
//! bit-exactly and continues. A directory with no ledger, no notes (its
//! `Submit` was never answered), a note that does not decode or a segment
//! of another format version is left on disk, skipped and counted
//! (`serve.campaigns_skipped`). Crash-restart therefore needs no
//! coordination beyond what the objective layer already guarantees.
//!
//! Each campaign runs on its own driver thread with its own fedtrace
//! registry; the frontend ([`Service::serve`] over a [`ServeListener`])
//! is a thread-per-connection loop speaking the [`proto`]
//! framing. Unix sockets and TCP differ only in the listener constructor.

use crate::campaign::{run_campaign, CampaignFlags, CampaignOutcome};
use crate::dispatch::FairGate;
use crate::proto::{self, ErrorCode, Request, Response};
use crate::spec::{CampaignSpec, CampaignState, CampaignStatus};
use crate::{Result, ServeError};
use fedsim::SharedPool;
use fedstore::segment::LedgerEntry;
use fedstore::{LedgerLock, TrialStore};
use serde::{Deserialize, Serialize};
use std::collections::btree_map::{BTreeMap, Entry};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Sizing knobs of a service instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Real worker threads in the shared pool (`0` = all cores).
    pub threads: usize,
    /// Gate-wide cap on admitted evaluations; `0` sizes it to the pool.
    pub global_in_flight: usize,
}

/// One campaign's registry cell.
struct Cell {
    status: CampaignStatus,
    flags: Arc<CampaignFlags>,
    metrics: CampaignMetrics,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// What [`Service::metrics`] reads for one campaign.
enum CampaignMetrics {
    /// The running driver's trace, registry and wall profile both growing.
    Live(Arc<fedtrace::Trace>),
    /// The registry as the campaign settled. Its trace is dropped with it,
    /// so a settled campaign holds no wall profile.
    Settled(fedtrace::MetricsSnapshot),
}

/// Registry state shared with driver threads.
struct State {
    cells: Mutex<BTreeMap<String, Cell>>,
    settled: Condvar,
}

/// A campaign's ledger directory, under its campaign directory.
const LEDGER: &str = "ledger";

/// What the service keeps in a campaign's ledger besides its records, one
/// JSON note each: the spec it was submitted with, first, and the status it
/// settled in, last, once terminal.
#[derive(Serialize, Deserialize)]
enum Note {
    Spec(CampaignSpec),
    Settled(CampaignStatus),
}

impl Note {
    /// Appends the note; under the ledger's default per-insert durability it
    /// is synced before this returns.
    fn append_to(&self, store: &mut TrialStore) -> Result<()> {
        let json = serde_json::to_string(self).map_err(|e| ServeError::Io {
            message: format!("encoding a ledger note: {e}"),
        })?;
        Ok(store.append_note(json.as_bytes())?)
    }

    fn decode(bytes: &[u8]) -> Option<Note> {
        let text = std::str::from_utf8(bytes).ok()?;
        serde_json::from_str(text).ok()
    }
}

/// Takes a campaign directory's lock and opens its ledger (default
/// per-insert durability: every note and every driver turn is synced before
/// anything reads it): what a submit and a recovery both hand the driver.
fn open_campaign(dir: &Path) -> Result<(LedgerLock, TrialStore)> {
    let lock = LedgerLock::acquire(dir)?;
    let store = TrialStore::open_segments(dir.join(LEDGER))?;
    Ok((lock, store))
}

/// Service-level metric names.
const M_SUBMITTED: &str = "serve.campaigns_submitted";
const M_RESUMED: &str = "serve.campaigns_resumed";
const M_SETTLED: &str = "serve.campaigns_settled";
const M_SKIPPED: &str = "serve.campaigns_skipped";
const M_FRAMES: &str = "serve.frames_rx";
const M_PROTO_ERRORS: &str = "serve.proto_errors";

/// The multi-tenant tuning service (see module docs).
pub struct Service {
    root: PathBuf,
    pool: Arc<SharedPool>,
    gate: Arc<FairGate>,
    trace: Arc<fedtrace::Trace>,
    state: Arc<State>,
    shutdown: Arc<AtomicBool>,
}

impl Service {
    /// Opens (or creates) a service root and resumes every incomplete
    /// campaign found in it.
    ///
    /// # Errors
    ///
    /// Only a failure to create or scan `<root>/campaigns` itself: a
    /// campaign directory that cannot be restored is skipped and counted.
    pub fn open(root: impl AsRef<Path>, config: ServiceConfig) -> Result<Arc<Self>> {
        let root = root.as_ref().to_path_buf();
        let campaigns = root.join("campaigns");
        fedstore::segment::create_dir_durable(&campaigns)?;
        let threads = if config.threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            config.threads
        };
        let global = if config.global_in_flight == 0 {
            threads
        } else {
            config.global_in_flight
        };
        let service = Arc::new(Service {
            root,
            pool: Arc::new(SharedPool::new(threads)),
            gate: Arc::new(FairGate::new(global)),
            trace: Arc::new(fedtrace::Trace::new()),
            state: Arc::new(State {
                cells: Mutex::new(BTreeMap::new()),
                settled: Condvar::new(),
            }),
            shutdown: Arc::new(AtomicBool::new(false)),
        });
        service.recover(&campaigns)?;
        Ok(service)
    }

    /// The service root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Scans the campaign tree, reporting terminal campaigns, respawning
    /// incomplete ones and counting the directories it skips.
    fn recover(self: &Arc<Self>, campaigns: &Path) -> Result<()> {
        let entries = std::fs::read_dir(campaigns).map_err(|e| ServeError::Io {
            message: format!("scanning {}: {e}", campaigns.display()),
        })?;
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| path.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            if !self.recover_campaign(&dir) {
                self.trace.registry().counter(M_SKIPPED).add(1);
            }
        }
        Ok(())
    }

    /// Restores one campaign from its ledger notes, or returns `false` and
    /// leaves the directory as it is, less a stale lock and a torn tail.
    fn recover_campaign(self: &Arc<Self>, dir: &Path) -> bool {
        let Some(name) = dir.file_name().and_then(|name| name.to_str()) else {
            return false;
        };
        // We own this tree exclusively, so a leftover lock is stale by
        // definition, also in a directory whose ledger was never created.
        let ledger = dir.join(LEDGER);
        if LedgerLock::break_stale(dir).is_err() || !ledger.is_dir() {
            return false;
        }
        // Classify on the notes alone: the scan repairs a torn tail but
        // indexes no record, so a terminal campaign costs one pass.
        let mut raw = Vec::new();
        let scanned = fedstore::segment::recover_with(&ledger, |entry| {
            if let LedgerEntry::Note(bytes) = entry {
                raw.push(bytes);
            }
            Ok(())
        });
        let notes: Option<Vec<Note>> = scanned
            .ok()
            .and_then(|_| raw.iter().map(|bytes| Note::decode(bytes)).collect());
        match notes.as_deref() {
            Some([Note::Spec(spec), .., Note::Settled(status)]) if spec.name == name => {
                self.locked_cells().insert(
                    spec.name.clone(),
                    Cell {
                        status: status.clone(),
                        flags: Arc::new(CampaignFlags::default()),
                        metrics: CampaignMetrics::Settled(fedtrace::MetricsSnapshot::empty()),
                        handle: None,
                    },
                );
                true
            }
            Some([Note::Spec(spec), ..]) if spec.name == name => {
                let spec = spec.clone();
                let resumed = self
                    .start(name, || {
                        let (lock, store) = open_campaign(dir)?;
                        Ok((spec, lock, store))
                    })
                    .is_ok();
                if resumed {
                    self.trace.registry().counter(M_RESUMED).add(1);
                }
                resumed
            }
            _ => false,
        }
    }

    fn locked_cells(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Cell>> {
        match self.state.cells.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn campaign_dir(&self, name: &str) -> PathBuf {
        self.root.join("campaigns").join(name)
    }

    /// Registers a new campaign, makes its spec durable in its ledger, and
    /// starts its driver.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSpec`] / [`ServeError::DuplicateCampaign`] /
    /// [`ServeError::ShuttingDown`], or filesystem failures.
    pub fn submit(self: &Arc<Self>, spec: CampaignSpec) -> Result<()> {
        spec.validate()?;
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let name = spec.name.clone();
        let dir = self.campaign_dir(&name);
        self.start(&name, || {
            let (lock, mut store) = open_campaign(&dir)?;
            if store.notes().next().is_some() {
                // A campaign another process left here that this one could
                // not restore: its directory is not reusable.
                return Err(ServeError::DuplicateCampaign { name: name.clone() });
            }
            Note::Spec(spec.clone()).append_to(&mut store)?;
            Ok((spec, lock, store))
        })?;
        self.trace.registry().counter(M_SUBMITTED).add(1);
        Ok(())
    }

    /// Reserves `name` as a Pending cell, under the same registry lock as
    /// the duplicate check, then starts a driver thread on the campaign
    /// `open` hands over; the reservation goes again if either fails.
    fn start(
        self: &Arc<Self>,
        name: &str,
        open: impl FnOnce() -> Result<(CampaignSpec, LedgerLock, TrialStore)>,
    ) -> Result<()> {
        let flags = Arc::new(CampaignFlags::default());
        let trace = Arc::new(fedtrace::Trace::new());
        match self.locked_cells().entry(name.to_string()) {
            Entry::Occupied(_) => {
                return Err(ServeError::DuplicateCampaign {
                    name: name.to_string(),
                })
            }
            Entry::Vacant(slot) => slot.insert(Cell {
                status: CampaignStatus::fresh(name),
                flags: Arc::clone(&flags),
                metrics: CampaignMetrics::Live(Arc::clone(&trace)),
                handle: None,
            }),
        };
        let opened = open();
        // The shutdown check, the spawn and the handle's store happen under
        // the registry lock `raise_and_join` sweeps handles under, so every
        // driver spawned is joined; a spec already synced resumes on the
        // next open.
        let mut cells = self.locked_cells();
        let started = opened.and_then(|(spec, lock, store)| {
            if self.shutdown.load(Ordering::Relaxed) {
                return Err(ServeError::ShuttingDown);
            }
            let service = Arc::clone(self);
            std::thread::Builder::new()
                .name(format!("fedserve-{name}"))
                .spawn(move || service.drive(spec, lock, store, flags, trace))
                .map_err(|e| ServeError::Io {
                    message: format!("spawning campaign driver: {e}"),
                })
        });
        match started {
            Ok(handle) => {
                if let Some(cell) = cells.get_mut(name) {
                    cell.status.state = CampaignState::Running;
                    cell.handle = Some(handle);
                }
                Ok(())
            }
            Err(e) => {
                cells.remove(name);
                self.state.settled.notify_all();
                Err(e)
            }
        }
    }

    /// Body of one campaign driver thread: run, settle, and only then
    /// release the campaign's lock.
    fn drive(
        self: Arc<Self>,
        spec: CampaignSpec,
        _lock: LedgerLock,
        store: TrialStore,
        flags: Arc<CampaignFlags>,
        trace: Arc<fedtrace::Trace>,
    ) {
        let mut publish = |status: &CampaignStatus| {
            if let Some(cell) = self.locked_cells().get_mut(&spec.name) {
                cell.status.clone_from(status);
            }
        };
        let result = run_campaign(
            &spec,
            store,
            &self.pool,
            &self.gate,
            &flags,
            Some(trace),
            &mut publish,
        );
        self.settle(&spec.name, result);
    }

    /// Stores a driver's settled status, or marks the last published one
    /// failed or suspended when the driver ended in an error. A terminal
    /// status is first appended to the ledger as a `Settled` note, synced;
    /// only then does the cell publish it and swap its trace for the final
    /// snapshot.
    fn settle(&self, name: &str, result: Result<CampaignOutcome>) {
        let Some(mut status) = self.locked_cells().get(name).map(|c| c.status.clone()) else {
            return;
        };
        let store = match result {
            Ok(out) => {
                status = out.status;
                Some(out.store)
            }
            Err(ServeError::Killed) => {
                // Simulated crash: leave no terminal note so the next open
                // resumes from the ledger, exactly like a real process
                // death.
                status.state = CampaignState::Suspended;
                status.error = Some("killed (crash simulation)".to_string());
                None
            }
            Err(e) => {
                status.state = CampaignState::Failed;
                status.error = Some(e.to_string());
                None
            }
        };
        if status.state.is_terminal() {
            // A failed driver's store went down with it; this thread still
            // holds the campaign's lock, so reopen the ledger.
            let ledger = self.campaign_dir(name).join(LEDGER);
            let recorded = store
                .map_or_else(|| TrialStore::open_segments(ledger), Ok)
                .map_err(ServeError::from)
                .and_then(|mut store| Note::Settled(status.clone()).append_to(&mut store));
            if let Err(e) = recorded {
                // Not on disk, so not terminal: the next open resumes the
                // campaign, which settles the same way again.
                status.state = CampaignState::Suspended;
                status.error = Some(format!("recording the settled status failed: {e}"));
            }
        }
        if let Some(cell) = self.locked_cells().get_mut(name) {
            if let CampaignMetrics::Live(trace) = &cell.metrics {
                cell.metrics = CampaignMetrics::Settled(trace.snapshot());
            }
            cell.status = status;
        }
        self.trace.registry().counter(M_SETTLED).add(1);
        self.state.settled.notify_all();
    }

    /// Statuses of all campaigns (name-sorted), or of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`] when `name` is not registered.
    pub fn status(&self, name: Option<&str>) -> Result<Vec<CampaignStatus>> {
        let cells = self.locked_cells();
        match name {
            None => Ok(cells.values().map(|cell| cell.status.clone()).collect()),
            Some(name) => cells
                .get(name)
                .map(|cell| vec![cell.status.clone()])
                .ok_or_else(|| ServeError::UnknownCampaign {
                    name: name.to_string(),
                }),
        }
    }

    /// Blocks until the named campaign settles (completes, stops, fails,
    /// exhausts a budget, or suspends), returning its status.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`], or [`ServeError::WaitTimeout`] if
    /// the deadline passes first.
    pub fn wait(&self, name: &str, timeout: Duration) -> Result<CampaignStatus> {
        let deadline = Instant::now() + timeout;
        let mut cells = self.locked_cells();
        loop {
            let Some(cell) = cells.get(name) else {
                return Err(ServeError::UnknownCampaign {
                    name: name.to_string(),
                });
            };
            if cell.status.state.is_settled() {
                return Ok(cell.status.clone());
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(ServeError::WaitTimeout {
                    name: name.to_string(),
                });
            }
            let (guard, _) = self
                .state
                .settled
                .wait_timeout(cells, remaining)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            cells = guard;
        }
    }

    /// Requests a cooperative stop of one campaign (terminal once drained).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownCampaign`].
    pub fn stop(&self, name: &str) -> Result<()> {
        let cells = self.locked_cells();
        let Some(cell) = cells.get(name) else {
            return Err(ServeError::UnknownCampaign {
                name: name.to_string(),
            });
        };
        cell.flags.stop.store(true, Ordering::Relaxed);
        Ok(())
    }

    /// Gracefully shuts the service down: no new submissions, every running
    /// campaign suspends (resumable on the next [`Service::open`]), and all
    /// driver threads are joined.
    pub fn shutdown(&self) {
        self.raise_and_join(|flags| &flags.suspend);
    }

    /// Simulates a crash: every driver aborts as soon as it observes the
    /// flag, leaving only its ledger on disk (no `Settled` note, locks
    /// possibly stale) — exactly the state a killed process leaves. The
    /// next [`Service::open`] on the same root must resume bit-exactly.
    pub fn kill(&self) {
        self.raise_and_join(|flags| &flags.kill);
    }

    /// Takes no new submissions, raises `flag` on every campaign and joins
    /// every driver thread.
    fn raise_and_join(&self, flag: fn(&CampaignFlags) -> &AtomicBool) {
        self.shutdown.store(true, Ordering::Relaxed);
        let handles: Vec<_> = self
            .locked_cells()
            .values_mut()
            .map(|cell| {
                flag(&cell.flags).store(true, Ordering::Relaxed);
                cell.handle.take()
            })
            .collect();
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }

    /// Merged metrics: the service registry, every running campaign's
    /// registry and every settled campaign's final snapshot.
    pub fn metrics(&self) -> fedtrace::MetricsSnapshot {
        let mut snapshot = self.trace.snapshot();
        let cells = self.locked_cells();
        for cell in cells.values() {
            match &cell.metrics {
                CampaignMetrics::Live(trace) => snapshot.merge(&trace.snapshot()),
                CampaignMetrics::Settled(last) => snapshot.merge(last),
            }
        }
        snapshot
    }

    /// Serves connections until a `Shutdown` request (or
    /// [`Service::shutdown`] from another thread) stops the loop. Each
    /// connection gets its own handler thread.
    ///
    /// # Errors
    ///
    /// Propagates listener accept failures (individual connection errors
    /// only terminate that connection).
    pub fn serve(self: &Arc<Self>, listener: &mut dyn ServeListener) -> Result<()> {
        loop {
            if self.shutdown.load(Ordering::Relaxed) {
                return Ok(());
            }
            match listener.accept_conn().map_err(|e| ServeError::Io {
                message: format!("accepting connection: {e}"),
            })? {
                Some(conn) => {
                    let service = Arc::clone(self);
                    let _ = std::thread::Builder::new()
                        .name("fedserve-conn".to_string())
                        .spawn(move || service.handle_conn(conn));
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    /// Speaks the framed protocol on one connection until the peer closes,
    /// an unrecoverable frame arrives, or the service shuts down.
    fn handle_conn(self: Arc<Self>, mut conn: Box<dyn Conn>) {
        loop {
            let request = match proto::read_message::<Request>(&mut conn) {
                Ok(Some(request)) => request,
                Ok(None) => return, // clean close
                Err(e) => {
                    // Satellite contract: malformed frames get a structured
                    // error reply, never a silent drop. Only unresyncable
                    // framing errors close the connection (after replying).
                    self.trace.registry().counter(M_PROTO_ERRORS).add(1);
                    let reply = Response::Error {
                        code: e.code(),
                        message: e.to_string(),
                    };
                    if proto::write_message(&mut conn, &reply).is_err() || !e.recoverable() {
                        return;
                    }
                    continue;
                }
            };
            self.trace.registry().counter(M_FRAMES).add(1);
            let (reply, hangup) = self.answer(request);
            if proto::write_message(&mut conn, &reply).is_err() || hangup {
                return;
            }
        }
    }

    /// Maps one request to its response; the bool asks the connection loop
    /// to hang up after replying.
    fn answer(self: &Arc<Self>, request: Request) -> (Response, bool) {
        match request {
            Request::Ping => (Response::Pong, false),
            Request::Submit { spec } => {
                let name = spec.name.clone();
                match self.submit(spec) {
                    Ok(()) => (Response::Submitted { name }, false),
                    Err(e) => (error_response(&e), false),
                }
            }
            Request::Status { name } => match self.status(name.as_deref()) {
                Ok(campaigns) => (Response::Status { campaigns }, false),
                Err(e) => (error_response(&e), false),
            },
            Request::Wait { name, timeout_ms } => {
                match self.wait(&name, Duration::from_millis(timeout_ms)) {
                    Ok(status) => (
                        Response::Status {
                            campaigns: vec![status],
                        },
                        false,
                    ),
                    Err(e) => (error_response(&e), false),
                }
            }
            Request::Stop { name } => match self.stop(&name) {
                Ok(()) => (Response::Stopping { name }, false),
                Err(e) => (error_response(&e), false),
            },
            Request::Metrics => (
                Response::Metrics {
                    snapshot: self.metrics(),
                },
                false,
            ),
            Request::Shutdown => {
                // Reply first, then suspend campaigns; the serve loop exits
                // on the flag.
                let service = Arc::clone(self);
                let _ = std::thread::Builder::new()
                    .name("fedserve-shutdown".to_string())
                    .spawn(move || service.shutdown());
                (Response::ShuttingDown, true)
            }
        }
    }
}

/// Maps a service error to its wire representation.
fn error_response(e: &ServeError) -> Response {
    let code = match e {
        ServeError::InvalidSpec { .. } => ErrorCode::InvalidSpec,
        ServeError::DuplicateCampaign { .. } => ErrorCode::Duplicate,
        ServeError::UnknownCampaign { .. } => ErrorCode::Unknown,
        ServeError::WaitTimeout { .. } => ErrorCode::Timeout,
        ServeError::ShuttingDown => ErrorCode::ShuttingDown,
        ServeError::Proto(frame) => frame.code(),
        _ => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: e.to_string(),
    }
}

/// A bidirectional byte stream: a connection the service accepted, or the
/// one a [`Client`](crate::Client) runs over.
pub trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// A transport the service can accept connections from. Implementations
/// must poll non-blockingly: `Ok(None)` when no connection is pending.
pub trait ServeListener {
    /// Accepts one pending connection, if any.
    ///
    /// # Errors
    ///
    /// Fatal listener failures (individual connection hiccups should be
    /// swallowed and reported as `Ok(None)`).
    fn accept_conn(&mut self) -> std::io::Result<Option<Box<dyn Conn>>>;

    /// Human-readable bound address, for logs.
    fn describe(&self) -> String;
}

/// Unix-domain-socket listener.
pub struct UnixServeListener {
    listener: std::os::unix::net::UnixListener,
    path: PathBuf,
}

impl UnixServeListener {
    /// Binds `path`, replacing a leftover socket file from a dead server.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = std::os::unix::net::UnixListener::bind(&path)?;
        listener.set_nonblocking(true)?;
        Ok(UnixServeListener { listener, path })
    }
}

impl ServeListener for UnixServeListener {
    fn accept_conn(&mut self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn describe(&self) -> String {
        format!("unix:{}", self.path.display())
    }
}

impl Drop for UnixServeListener {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// TCP listener (loopback development / cross-host access).
pub struct TcpServeListener {
    listener: std::net::TcpListener,
}

impl TcpServeListener {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port `0` picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        let listener = std::net::TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpServeListener { listener })
    }

    /// The actually bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }
}

impl ServeListener for TcpServeListener {
    fn accept_conn(&mut self) -> std::io::Result<Option<Box<dyn Conn>>> {
        match self.listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                stream.set_nodelay(true)?;
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn describe(&self) -> String {
        self.listener
            .local_addr()
            .map_or_else(|_| "tcp:?".to_string(), |addr| format!("tcp:{addr}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::ledger_accounting;
    use crate::spec::tests::demo_spec;

    #[test]
    fn a_settled_campaign_keeps_its_counters_and_drops_its_trace() {
        let _accounting = ledger_accounting();
        let root = std::env::temp_dir().join(format!("fedserve_settle_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Service::open(&root, ServiceConfig::default()).unwrap();
        service.submit(demo_spec("settles")).unwrap();
        let status = service.wait("settles", Duration::from_secs(60)).unwrap();
        assert_eq!(status.state, CampaignState::Completed);
        assert!(matches!(
            service.locked_cells()["settles"].metrics,
            CampaignMetrics::Settled(_)
        ));
        let metrics = service.metrics();
        let dispatched = metrics.counter("async-asha.dispatched").unwrap_or(0);
        assert_eq!(dispatched, status.evaluations as u64);
        assert_eq!(metrics.counter(M_SETTLED), Some(1));
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_hostile_ladder_settles_instead_of_spinning() {
        let _accounting = ledger_accounting();
        let root = std::env::temp_dir().join(format!("fedserve_hostile_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let service = Service::open(&root, ServiceConfig::default()).unwrap();
        let mut spec = demo_spec("hostile");
        // 2 · 2^63 wraps to 0 unless the ladder saturates: the campaign's
        // driver thread would spin for ever.
        spec.scheduler = crate::spec::SchedulerSpec::AsyncAsha {
            trials: 1,
            eta: 1 << 63,
            min_resource: 2,
            max_resource: 3,
        };
        service.submit(spec).unwrap();
        let status = service.wait("hostile", Duration::from_secs(60)).unwrap();
        assert_eq!(status.state, CampaignState::Completed);
        assert_eq!(status.evaluations, 1);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}
