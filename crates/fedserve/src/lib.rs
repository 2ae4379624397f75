//! The multi-tenant tuning service: many concurrent campaigns, one machine.
//!
//! Every piece of a long-lived campaign *server* exists elsewhere in this
//! workspace — fedstore's crash-recoverable segment ledger, fedhpo's ask/tell
//! [`Scheduler`](fedhpo::Scheduler), and fedtune_core's sans-io
//! [`ExecutorCore`](fedtune_core::ExecutorCore) whose completions can be fed
//! from the outside in any order. This crate fuses them into a daemon (the
//! Optuna `storage=` / Ray Tune driver role) that runs many campaigns
//! concurrently against one shared real-thread pool:
//!
//! - [`proto`] — a std-only length-prefixed JSON protocol spoken over unix
//!   sockets and TCP behind one listener trait, plus the [`Client`] library.
//! - [`spec`] — serializable campaign specifications (search space,
//!   scheduler, objective, cost model, limits) that double as the `Spec`
//!   note in the campaign's ledger a crashed service restarts from.
//! - [`dispatch`] — deficit-round-robin fair-share admission: ready
//!   dispatches from all campaigns multiplex onto the bounded worker pool
//!   with per-campaign max-in-flight and queue-depth caps.
//! - [`campaign`] — one driver per campaign, pumping its `ExecutorCore`
//!   non-blockingly through grants and completions, and the one function
//!   that builds a campaign's [`CampaignStatus`], live and settled.
//! - [`service`] — the registry: per-campaign directories (own segment
//!   ledger, lock, fedtrace registry), budget enforcement, crash-restart
//!   from the ledgers alone, and the socket frontend.
//!
//! # Isolation and determinism
//!
//! Each campaign owns its scheduler, RNG, ledger, and trace registry; a
//! panicking evaluation or exhausted budget terminates *that* campaign only
//! (the shared pool isolates job panics). Because every evaluation is a pure
//! function of its canonical `(config, resource, noise_rep)` coordinates and
//! commits happen in dispatch order, a campaign's selections and
//! `sim_elapsed` are bit-identical whether it runs alone through
//! [`fedtune_core::drive`], shares the daemon with other tenants, or is
//! killed and resumed from its ledger — the service-level integration tests
//! assert all three.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod client;
pub mod dispatch;
pub mod objective;
pub mod proto;
pub mod service;
pub mod spec;

pub use campaign::CampaignOutcome;
pub use client::Client;
pub use dispatch::{DrrConfig, DrrState, FairGate, GateError};
pub use objective::{build_objective, AnalyticEval};
pub use proto::{
    decode_frame, encode_frame, ErrorCode, FrameError, Request, Response, MAGIC, MAX_FRAME,
};
pub use service::{ServeListener, Service, ServiceConfig, TcpServeListener, UnixServeListener};
pub use spec::{
    CampaignLimits, CampaignSpec, CampaignState, CampaignStatus, CostSpec, DimSpec, ObjectiveSpec,
    SchedulerSpec, Selection,
};

use std::fmt;

/// Errors produced by the tuning service.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// A campaign specification failed validation.
    InvalidSpec {
        /// What was wrong with it.
        message: String,
    },
    /// A filesystem or socket operation failed.
    Io {
        /// What failed.
        message: String,
    },
    /// A protocol frame could not be read or written.
    Proto(proto::FrameError),
    /// The executor core or an evaluation failed.
    Core {
        /// The underlying failure.
        message: String,
    },
    /// The campaign's ledger failed.
    Store {
        /// The underlying failure.
        message: String,
    },
    /// A submitted campaign name is already registered.
    DuplicateCampaign {
        /// The colliding name.
        name: String,
    },
    /// A request referenced a campaign the registry does not know.
    UnknownCampaign {
        /// The missing name.
        name: String,
    },
    /// An evaluation task panicked on a worker thread.
    EvalPanicked,
    /// The campaign driver observed the service kill flag (simulated crash);
    /// no terminal state is recorded so a restart resumes from the ledger.
    Killed,
    /// The service is shutting down and not accepting work.
    ShuttingDown,
    /// The server answered a client request with a structured error.
    Remote {
        /// Machine-readable error code.
        code: proto::ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// Waiting on a campaign timed out before it reached a terminal state.
    WaitTimeout {
        /// The campaign waited on.
        name: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::InvalidSpec { message } => {
                write!(f, "invalid campaign spec: {message}")
            }
            ServeError::Io { message } => write!(f, "service io error: {message}"),
            ServeError::Proto(e) => write!(f, "protocol error: {e}"),
            ServeError::Core { message } => write!(f, "executor error: {message}"),
            ServeError::Store { message } => write!(f, "ledger error: {message}"),
            ServeError::DuplicateCampaign { name } => {
                write!(f, "campaign {name:?} already exists")
            }
            ServeError::UnknownCampaign { name } => write!(f, "unknown campaign {name:?}"),
            ServeError::EvalPanicked => write!(f, "an evaluation task panicked"),
            ServeError::Killed => write!(f, "service killed mid-campaign"),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Remote { code, message } => {
                write!(f, "server error [{code:?}]: {message}")
            }
            ServeError::WaitTimeout { name } => {
                write!(f, "timed out waiting for campaign {name:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<proto::FrameError> for ServeError {
    fn from(e: proto::FrameError) -> Self {
        ServeError::Proto(e)
    }
}

impl From<fedtune_core::CoreError> for ServeError {
    fn from(e: fedtune_core::CoreError) -> Self {
        match e {
            fedtune_core::CoreError::EvalPanicked => ServeError::EvalPanicked,
            other => ServeError::Core {
                message: other.to_string(),
            },
        }
    }
}

impl From<fedstore::StoreError> for ServeError {
    fn from(e: fedstore::StoreError) -> Self {
        ServeError::Store {
            message: e.to_string(),
        }
    }
}

impl From<fedhpo::HpoError> for ServeError {
    fn from(e: fedhpo::HpoError) -> Self {
        ServeError::Core {
            message: e.to_string(),
        }
    }
}

/// Convenience alias for service results.
pub type Result<T> = std::result::Result<T, ServeError>;
