//! A small blocking client for the line protocol — used by the CLI's
//! `submit` subcommand and by the service test suites.

use crate::protocol::{JobResult, JobSpec};
use magis_obs::json::Json;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// Why a client call failed.
#[derive(Debug)]
pub enum ServeError {
    /// Transport or protocol-framing failure.
    Io(String),
    /// The server refused the request (admission control, bad spec, …).
    Rejected {
        /// HTTP-flavored status code (429 for backpressure).
        code: u64,
        /// Human-readable reason.
        error: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "connection error: {e}"),
            ServeError::Rejected { code, error } => write!(f, "rejected ({code}): {error}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Outcome of a `submit` with `wait: true`.
#[derive(Debug)]
pub struct WaitOutcome {
    /// The job id the server assigned.
    pub id: u64,
    /// The terminal result, or the failure/interruption message.
    pub result: Result<JobResult, String>,
    /// Whether the result came from the cross-request result cache.
    pub cached: bool,
    /// Number of `progress` events streamed before completion.
    pub progress_events: usize,
}

/// One connection to a `magis-serve` daemon.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a daemon. Requests are single small lines, so the
    /// socket sends each at once (`TCP_NODELAY`), like the server's end.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        let io = |e: std::io::Error| ServeError::Io(e.to_string());
        let stream = TcpStream::connect(addr).map_err(io)?;
        stream.set_nodelay(true).map_err(io)?;
        let reader = BufReader::new(stream.try_clone().map_err(io)?);
        Ok(Client { stream, reader })
    }

    fn send(&mut self, j: &Json) -> Result<(), ServeError> {
        self.stream
            .write_all((j.render() + "\n").as_bytes())
            .and_then(|()| self.stream.flush())
            .map_err(|e| ServeError::Io(e.to_string()))
    }

    fn recv(&mut self) -> Result<Json, ServeError> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.reader.read_line(&mut line).map_err(|e| ServeError::Io(e.to_string()))?;
            if n == 0 {
                return Err(ServeError::Io("server closed the connection".into()));
            }
            if line.trim().is_empty() {
                continue;
            }
            return Json::parse(line.trim()).map_err(|e| ServeError::Io(e.to_string()));
        }
    }

    /// Turns a reply into `Ok` payload or a [`ServeError::Rejected`].
    fn checked(reply: Json) -> Result<Json, ServeError> {
        if matches!(reply.get("ok"), Some(Json::Bool(true))) {
            return Ok(reply);
        }
        Err(ServeError::Rejected {
            code: reply.get("code").and_then(Json::as_u64).unwrap_or(0),
            error: reply
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string(),
        })
    }

    /// Liveness probe; returns the server's `{queued, running}` counts.
    pub fn ping(&mut self) -> Result<Json, ServeError> {
        self.send(&Json::Obj(vec![("cmd".to_string(), Json::Str("ping".into()))]))?;
        Self::checked(self.recv()?)
    }

    /// Queries one job's state.
    pub fn status(&mut self, id: u64) -> Result<Json, ServeError> {
        self.send(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("status".into())),
            ("id".into(), Json::UInt(id)),
        ]))?;
        Self::checked(self.recv()?)
    }

    fn submit_inner(&mut self, spec: &JobSpec, wait: bool) -> Result<u64, ServeError> {
        self.send(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("submit".into())),
            ("wait".into(), Json::Bool(wait)),
            ("job".into(), spec.to_json()),
        ]))?;
        let ack = Self::checked(self.recv()?)?;
        ack.get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ServeError::Io("ack carried no job id".into()))
    }

    /// Submits a job without waiting; returns the assigned job id.
    pub fn submit_nowait(&mut self, spec: &JobSpec) -> Result<u64, ServeError> {
        self.submit_inner(spec, false)
    }

    /// Submits a job and blocks until its terminal `done` event,
    /// consuming the progress stream along the way.
    pub fn submit_and_wait(&mut self, spec: &JobSpec) -> Result<WaitOutcome, ServeError> {
        self.submit_and_wait_with(spec, |_| {})
    }

    /// Like [`submit_and_wait`](Client::submit_and_wait), but hands
    /// every `progress` frame to `on_progress` as it arrives (the CLI's
    /// live ticker hangs off this).
    pub fn submit_and_wait_with(
        &mut self,
        spec: &JobSpec,
        mut on_progress: impl FnMut(&Json),
    ) -> Result<WaitOutcome, ServeError> {
        let id = self.submit_inner(spec, true)?;
        self.drain_events(id, &mut on_progress)
    }

    /// Attaches to a job already in flight (or already settled) and
    /// streams its progress frames until the terminal `done` event —
    /// the `watch` verb. Any number of clients may watch one job.
    pub fn watch(
        &mut self,
        id: u64,
        mut on_progress: impl FnMut(&Json),
    ) -> Result<WaitOutcome, ServeError> {
        self.send(&Json::Obj(vec![
            ("cmd".to_string(), Json::Str("watch".into())),
            ("id".into(), Json::UInt(id)),
        ]))?;
        Self::checked(self.recv()?)?;
        self.drain_events(id, &mut on_progress)
    }

    /// Fetches the server's metric registry rendered as Prometheus
    /// text exposition.
    pub fn metrics(&mut self) -> Result<String, ServeError> {
        self.send(&Json::Obj(vec![("cmd".to_string(), Json::Str("metrics".into()))]))?;
        let r = Self::checked(self.recv()?)?;
        r.get("metrics")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Io("metrics reply carried no text".into()))
    }

    /// Consumes `progress` events (feeding each to `on_progress`) until
    /// the `done` event, which it parses into a [`WaitOutcome`].
    fn drain_events(
        &mut self,
        id: u64,
        on_progress: &mut dyn FnMut(&Json),
    ) -> Result<WaitOutcome, ServeError> {
        let mut progress_events = 0usize;
        loop {
            let ev = self.recv()?;
            match ev.get("event").and_then(Json::as_str) {
                Some("progress") => {
                    progress_events += 1;
                    on_progress(&ev);
                }
                Some("done") => {
                    let ok = matches!(ev.get("ok"), Some(Json::Bool(true)));
                    let cached = matches!(ev.get("cached"), Some(Json::Bool(true)));
                    let result = if ok {
                        let r = ev.get("result").ok_or_else(|| {
                            ServeError::Io("done event carried no result".into())
                        })?;
                        Ok(JobResult::from_json(r).map_err(ServeError::Io)?)
                    } else {
                        Err(ev
                            .get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown failure")
                            .to_string())
                    };
                    return Ok(WaitOutcome { id, result, cached, progress_events });
                }
                _ => return Err(ServeError::Io(format!("unexpected event: {}", ev.render()))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connections_send_each_request_at_once() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = Client::connect(listener.local_addr().unwrap()).unwrap();
        assert!(client.stream.nodelay().unwrap());
    }
}
