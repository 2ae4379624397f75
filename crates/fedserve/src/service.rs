//! The campaign registry and socket frontend.
//!
//! A [`Service`] owns one shared worker pool, one fair gate, and a
//! directory tree of campaigns:
//!
//! ```text
//! <root>/campaigns/<name>/
//!     spec.json     the full CampaignSpec (written once at submit)
//!     ledger/       the campaign's segment ledger (one sync per driver turn)
//!     LOCK          single-writer pid file while a driver is live
//!     DONE.json     terminal CampaignStatus (absent while incomplete)
//! ```
//!
//! That tree *is* the service's persistent state — there is no separate
//! database. [`Service::open`] scans it: campaigns with `DONE.json` are
//! terminal and merely reported; campaigns without it had their process die
//! (or suspend) mid-run, so the service breaks their stale locks and
//! respawns their drivers, which replay the ledger prefix bit-exactly and
//! continue. Crash-restart therefore needs no coordination beyond what the
//! objective layer already guarantees.
//!
//! Each campaign runs on its own driver thread with its own fedtrace
//! registry; the frontend ([`Service::serve`] over a [`ServeListener`])
//! is a thread-per-connection loop speaking the [`proto`]
//! framing. Unix sockets and TCP differ only in the listener constructor.

use crate::campaign::{run_campaign, CampaignFlags, CampaignOutcome, HaltReason, Progress};
use crate::dispatch::FairGate;
use crate::proto::{self, ErrorCode, Request, Response};
use crate::spec::{CampaignSpec, CampaignState, CampaignStatus, Selection};
use crate::{Result, ServeError};
use fedsim::SharedPool;
use fedstore::{Durability, LedgerLock, TrialStore};
use std::collections::BTreeMap;
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
    trace: Arc<fedtrace::Trace>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// Registry state shared with driver threads.
struct State {
    cells: Mutex<BTreeMap<String, Cell>>,
    settled: Condvar,
}

/// Service-level metric names.
const M_SUBMITTED: &str = "serve.campaigns_submitted";
const M_RESUMED: &str = "serve.campaigns_resumed";
const M_SETTLED: &str = "serve.campaigns_settled";
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
    /// Propagates filesystem failures and undecodable on-disk state.
    pub fn open(root: impl AsRef<Path>, config: ServiceConfig) -> Result<Arc<Self>> {
        let root = root.as_ref().to_path_buf();
        let campaigns = root.join("campaigns");
        std::fs::create_dir_all(&campaigns).map_err(|e| ServeError::Io {
            message: format!("creating {}: {e}", campaigns.display()),
        })?;
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

    /// Scans the campaign tree, reporting terminal campaigns and
    /// respawning incomplete ones.
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
            let spec_path = dir.join("spec.json");
            if !spec_path.exists() {
                continue;
            }
            let spec: CampaignSpec = read_json(&spec_path)?;
            let done_path = dir.join("DONE.json");
            if done_path.exists() {
                // Terminal: report as-is, never respawn.
                let status: CampaignStatus = read_json(&done_path)?;
                let mut cells = self.locked_cells();
                cells.insert(
                    spec.name.clone(),
                    Cell {
                        status,
                        flags: Arc::new(CampaignFlags::default()),
                        trace: Arc::new(fedtrace::Trace::new()),
                        handle: None,
                    },
                );
                continue;
            }
            // Incomplete: the previous process died or suspended. We own
            // this tree exclusively, so a leftover lock is stale by
            // definition.
            LedgerLock::break_stale(&dir)?;
            self.trace.registry().counter(M_RESUMED).add(1);
            self.spawn(spec)?;
        }
        Ok(())
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

    /// Registers a new campaign, persists its spec, and starts its driver.
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
        {
            let cells = self.locked_cells();
            if cells.contains_key(&spec.name) {
                return Err(ServeError::DuplicateCampaign {
                    name: spec.name.clone(),
                });
            }
        }
        let dir = self.campaign_dir(&spec.name);
        std::fs::create_dir_all(&dir).map_err(|e| ServeError::Io {
            message: format!("creating {}: {e}", dir.display()),
        })?;
        write_json(&dir.join("spec.json"), &spec)?;
        self.trace.registry().counter(M_SUBMITTED).add(1);
        self.spawn(spec)
    }

    /// Inserts a Running cell and spawns the driver thread for `spec`.
    fn spawn(self: &Arc<Self>, spec: CampaignSpec) -> Result<()> {
        let name = spec.name.clone();
        let flags = Arc::new(CampaignFlags::default());
        let trace = Arc::new(fedtrace::Trace::new());
        if self.shutdown.load(Ordering::Relaxed) {
            return Err(ServeError::ShuttingDown);
        }
        let mut status = CampaignStatus::fresh(&name);
        status.state = CampaignState::Running;
        {
            let mut cells = self.locked_cells();
            cells.insert(
                name.clone(),
                Cell {
                    status,
                    flags: Arc::clone(&flags),
                    trace: Arc::clone(&trace),
                    handle: None,
                },
            );
        }
        let service = Arc::clone(self);
        let thread_name = format!("fedserve-{name}");
        let handle = std::thread::Builder::new()
            .name(thread_name)
            .spawn(move || service.drive(spec, flags, trace))
            .map_err(|e| ServeError::Io {
                message: format!("spawning campaign driver: {e}"),
            })?;
        let mut cells = self.locked_cells();
        if let Some(cell) = cells.get_mut(&name) {
            cell.handle = Some(handle);
        }
        Ok(())
    }

    /// Body of one campaign driver thread: lock, recover, run, settle.
    fn drive(
        self: Arc<Self>,
        spec: CampaignSpec,
        flags: Arc<CampaignFlags>,
        trace: Arc<fedtrace::Trace>,
    ) {
        let dir = self.campaign_dir(&spec.name);
        let name = spec.name.clone();
        let result = (|| -> Result<CampaignOutcome> {
            let _lock = LedgerLock::acquire(&dir)?;
            let mut store = TrialStore::open_segments(dir.join("ledger"))?;
            // Sync at every batch boundary, and the driver marks exactly one
            // per turn: a turn's commits are on disk before the scheduler or
            // a status reply sees any of them.
            store.set_durability(Durability::PerInsert);
            let state = Arc::clone(&self.state);
            let progress_name = name.clone();
            let mut on_progress = move |p: Progress| {
                let mut cells = match state.cells.lock() {
                    Ok(guard) => guard,
                    Err(poisoned) => poisoned.into_inner(),
                };
                if let Some(cell) = cells.get_mut(&progress_name) {
                    cell.status.evaluations = p.evaluations;
                    cell.status.resource_spent = p.resource_spent;
                    cell.status.sim_elapsed = p.sim_time;
                    cell.status.ledger_hits = p.ledger_hits;
                    cell.status.ledger_misses = p.ledger_misses;
                }
            };
            run_campaign(
                &spec,
                store,
                &self.pool,
                &self.gate,
                &flags,
                Some(trace),
                &mut on_progress,
            )
        })();
        self.settle(&name, &dir, result);
    }

    /// Folds a driver result into the cell's terminal (or suspended)
    /// status and persists `DONE.json` for terminal states.
    fn settle(&self, name: &str, dir: &Path, result: Result<CampaignOutcome>) {
        let status = {
            let mut cells = self.locked_cells();
            let Some(cell) = cells.get_mut(name) else {
                return;
            };
            match &result {
                Ok(out) => {
                    cell.status.evaluations = out.evaluations;
                    cell.status.resource_spent = out.resource_spent;
                    cell.status.sim_elapsed = out.outcome.sim_elapsed;
                    cell.status.ledger_hits = out.ledger_hits;
                    cell.status.ledger_misses = out.ledger_misses;
                    cell.status.selection = out.outcome.outcome.best().map(|best| Selection {
                        trial_id: best.trial_id,
                        config: best.config.values().to_vec(),
                        score: best.score,
                        resource: best.resource,
                        sim_time: best.sim_time,
                    });
                    cell.status.state = match out.halt {
                        None if out.outcome.finished => CampaignState::Completed,
                        // No halt but unfinished: the simulated budget cut
                        // the schedule off.
                        None => CampaignState::BudgetExhausted,
                        Some(HaltReason::Stopped) => CampaignState::Stopped,
                        Some(HaltReason::Suspended) => CampaignState::Suspended,
                        Some(HaltReason::BudgetEvaluations | HaltReason::BudgetResource) => {
                            CampaignState::BudgetExhausted
                        }
                    };
                }
                Err(ServeError::Killed) => {
                    // Simulated crash: leave no terminal marker so the next
                    // open resumes from the ledger, exactly like a real
                    // process death.
                    cell.status.state = CampaignState::Suspended;
                    cell.status.error = Some("killed (crash simulation)".to_string());
                }
                Err(e) => {
                    cell.status.state = CampaignState::Failed;
                    cell.status.error = Some(e.to_string());
                }
            }
            cell.status.clone()
        };
        if status.state.is_terminal() {
            // Persist terminal statuses; failures to do so leave the
            // campaign resumable, which is safe (it will settle the same
            // way again).
            let _ = write_json(&dir.join("DONE.json"), &status);
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
        self.shutdown.store(true, Ordering::Relaxed);
        let handles: Vec<_> = {
            let mut cells = self.locked_cells();
            cells
                .values_mut()
                .map(|cell| {
                    cell.flags.suspend.store(true, Ordering::Relaxed);
                    cell.handle.take()
                })
                .collect()
        };
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }

    /// Simulates a crash: every driver aborts as soon as it observes the
    /// flag, leaving only spec + ledger on disk (no terminal markers, locks
    /// possibly stale) — exactly the state a killed process leaves. The
    /// next [`Service::open`] on the same root must resume bit-exactly.
    pub fn kill(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        let handles: Vec<_> = {
            let mut cells = self.locked_cells();
            cells
                .values_mut()
                .map(|cell| {
                    cell.flags.kill.store(true, Ordering::Relaxed);
                    cell.handle.take()
                })
                .collect()
        };
        for handle in handles.into_iter().flatten() {
            let _ = handle.join();
        }
    }

    /// Merged metrics: the service registry plus every campaign registry.
    pub fn metrics(&self) -> fedtrace::MetricsSnapshot {
        let mut snapshot = self.trace.snapshot();
        let cells = self.locked_cells();
        for cell in cells.values() {
            snapshot.merge(&cell.trace.snapshot());
        }
        snapshot
    }

    /// Whether [`Service::shutdown`] or [`Service::kill`] has been called.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
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

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T> {
    let text = std::fs::read_to_string(path).map_err(|e| ServeError::Io {
        message: format!("reading {}: {e}", path.display()),
    })?;
    serde_json::from_str(&text).map_err(|e| ServeError::Io {
        message: format!("decoding {}: {e}", path.display()),
    })
}

/// Writes `value` as JSON via temp-file + rename, so readers never observe
/// a torn file.
fn write_json<T: serde::Serialize>(path: &Path, value: &T) -> Result<()> {
    let json = serde_json::to_string_pretty(value).map_err(|e| ServeError::Io {
        message: format!("encoding {}: {e}", path.display()),
    })?;
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, json.as_bytes()).map_err(|e| ServeError::Io {
        message: format!("writing {}: {e}", tmp.display()),
    })?;
    std::fs::rename(&tmp, path).map_err(|e| ServeError::Io {
        message: format!("publishing {}: {e}", path.display()),
    })
}

/// One accepted connection: a bidirectional byte stream.
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
