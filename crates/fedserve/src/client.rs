//! Client library for the tuning service protocol.
//!
//! A [`Client`] wraps any bidirectional byte stream (unix socket, TCP, or
//! an in-memory pipe in tests) and speaks the framed request/response
//! protocol from [`proto`]. Convenience wrappers mirror the
//! service API one-to-one; a structured `Response::Error` from the server
//! surfaces as [`ServeError::Remote`].

use crate::proto::{self, Request, Response};
use crate::service::Conn;
use crate::spec::{CampaignSpec, CampaignStatus};
use crate::{Result, ServeError};
use fedtrace::MetricsSnapshot;
use std::path::Path;

/// A connected protocol client.
pub struct Client {
    stream: Box<dyn Conn>,
}

impl Client {
    /// Wraps an already-connected stream.
    pub fn new(stream: Box<dyn Conn>) -> Self {
        Client { stream }
    }

    /// Connects to a unix-domain socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the socket cannot be reached.
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref();
        let stream = std::os::unix::net::UnixStream::connect(path).map_err(|e| ServeError::Io {
            message: format!("connecting to {}: {e}", path.display()),
        })?;
        Ok(Client::new(Box::new(stream)))
    }

    /// Connects to a TCP endpoint (`host:port`).
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the endpoint cannot be reached.
    pub fn connect_tcp(addr: &str) -> Result<Self> {
        let stream = std::net::TcpStream::connect(addr).map_err(|e| ServeError::Io {
            message: format!("connecting to {addr}: {e}"),
        })?;
        let _ = stream.set_nodelay(true);
        Ok(Client::new(Box::new(stream)))
    }

    /// Sends one request and reads one response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure, [`ServeError::Proto`] on a
    /// malformed reply.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        proto::write_message(&mut self.stream, request).map_err(|e| ServeError::Io {
            message: format!("sending request: {e}"),
        })?;
        match proto::read_message::<Response>(&mut self.stream)? {
            Some(response) => Ok(response),
            None => Err(ServeError::Io {
                message: "server closed the connection mid-request".to_string(),
            }),
        }
    }

    /// Round-trips a ping.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected reply.
    pub fn ping(&mut self) -> Result<()> {
        match self.request(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Submits a campaign; returns its registered name.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] for validation/duplicate rejections.
    pub fn submit(&mut self, spec: CampaignSpec) -> Result<String> {
        match self.request(&Request::Submit { spec })? {
            Response::Submitted { name } => Ok(name),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the status of every campaign, or of one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when `name` is unknown.
    pub fn status(&mut self, name: Option<&str>) -> Result<Vec<CampaignStatus>> {
        let request = Request::Status {
            name: name.map(str::to_string),
        };
        match self.request(&request)? {
            Response::Status { campaigns } => Ok(campaigns),
            other => Err(unexpected(&other)),
        }
    }

    /// Blocks server-side until the campaign settles (or `timeout_ms`
    /// elapses), returning its settled status.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] with a `Timeout` code when the deadline
    /// passes first.
    pub fn wait(&mut self, name: &str, timeout_ms: u64) -> Result<CampaignStatus> {
        let request = Request::Wait {
            name: name.to_string(),
            timeout_ms,
        };
        match self.request(&request)? {
            Response::Status { mut campaigns } if !campaigns.is_empty() => Ok(campaigns.remove(0)),
            other => Err(unexpected(&other)),
        }
    }

    /// Requests a cooperative stop of one campaign.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] when `name` is unknown.
    pub fn stop(&mut self, name: &str) -> Result<()> {
        let request = Request::Stop {
            name: name.to_string(),
        };
        match self.request(&request)? {
            Response::Stopping { .. } => Ok(()),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetches the merged service + per-campaign metrics snapshot.
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected reply.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot> {
        match self.request(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            other => Err(unexpected(&other)),
        }
    }

    /// Asks the service to shut down gracefully (running campaigns
    /// suspend, resumable at the next open).
    ///
    /// # Errors
    ///
    /// Transport failures, or an unexpected reply.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(&other)),
        }
    }
}

/// Folds an off-script reply into an error (`Error` frames become
/// [`ServeError::Remote`]).
fn unexpected(response: &Response) -> ServeError {
    match response {
        Response::Error { code, message } => ServeError::Remote {
            code: *code,
            message: message.clone(),
        },
        other => ServeError::Io {
            message: format!("unexpected server reply: {other:?}"),
        },
    }
}
