//! The line-protocol front-end: one JSON request per line in, one
//! response line out ([`crate::proto`]), over stdin/stdout, a Unix
//! socket, or an authenticated TCP listener — and the client half that
//! `rted query` and `rted metrics` speak.
//!
//! [`run`] serves until a `shutdown` request is answered with `bye` (or
//! stdin ends, in stdio mode). Every socket connection is one thread
//! and one [`crate::Client`] of the shared service. A `shutdown` stops
//! every listener and closes every other open connection for reading:
//! requests already in flight still get their answer, idle connections
//! end, and `run` returns.

use crate::proto::{parse_request_line, render_response, render_response_with};
use crate::proto::{Request, RequestId, Response};
use crate::server::{relock, Server};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The longest request line a front-end accepts, newline excluded.
/// Without a cap, a client that sends bytes and never a newline grows
/// the line buffer until the process runs out of memory. 16 MiB is
/// thousands of times the longest line the bundled scripts and
/// benchmark send (an insert batch of 16 inline trees: a few KiB).
pub const MAX_REQUEST_BYTES: usize = 16 << 20;

/// The front-end settings of `rted serve`. With neither `socket` nor
/// `tcp`, [`run`] serves stdin/stdout.
#[derive(Debug, Default)]
pub struct Front {
    /// Unix socket path to bind. A stale socket there is replaced; any
    /// other file makes [`run`] fail and is left untouched.
    pub socket: Option<PathBuf>,
    /// A bound TCP listener; `status` reports its address.
    pub tcp: Option<TcpListener>,
    /// Shared secret every TCP connection must send as its first line.
    pub auth_token: Option<String>,
    /// Read and write timeout on every TCP connection, so a stalled
    /// peer cannot pin its connection thread forever.
    pub timeout: Option<Duration>,
    /// Requests whose wall time (queue wait included) crosses this are
    /// logged to stderr and counted in `serve_slow_queries_total`.
    pub slow: Option<Duration>,
}

/// Serves `server` on the fronts `front` names until a `shutdown`
/// request is answered or stdin ends, then returns; the caller shuts
/// the server down. Fails when the Unix socket cannot be bound.
pub fn run(server: &Server, front: Front) -> Result<(), String> {
    if let Some(listener) = &front.tcp {
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let gated = front.auth_token.as_ref().map_or("", |_| " (auth required)");
        eprintln!("rted serve: listening on tcp {addr}{gated}");
        *relock(server.shared.tcp_addr.lock()) = Some(addr.to_string());
    }
    if front.tcp.is_none() && front.socket.is_none() {
        let (stdin, mut stdout) = (io::stdin().lock(), io::stdout().lock());
        serve_connection(server, stdin, &mut stdout, front.slow, None);
        return Ok(());
    }
    #[cfg(unix)]
    let unix = front.socket.as_deref().map(bind_socket).transpose()?;
    #[cfg(not(unix))]
    if front.socket.is_some() {
        return Err("--socket requires a Unix platform; use --tcp or the stdin/stdout mode".into());
    }
    let running = &Running {
        server,
        front: &front,
        stop: AtomicBool::new(false),
        open: Mutex::default(),
    };
    std::thread::scope(|scope| {
        if let Some(listener) = &front.tcp {
            let timeouts = |stream: &io::Result<TcpStream>| {
                if let Ok(stream) = stream {
                    let _ = stream.set_read_timeout(front.timeout);
                    let _ = stream.set_write_timeout(front.timeout);
                }
            };
            let auth = front.auth_token.as_deref();
            scope.spawn(move || running.accept(listener.incoming().inspect(timeouts), auth));
        }
        #[cfg(unix)]
        if let Some(listener) = &unix {
            scope.spawn(move || running.accept(listener.incoming(), None));
        }
    });
    if let Some(path) = &front.socket {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

/// Binds the Unix socket at `path`, replacing a stale socket from an
/// earlier run and nothing else: any other file there fails the bind.
#[cfg(unix)]
fn bind_socket(path: &std::path::Path) -> Result<UnixListener, String> {
    use std::os::unix::fs::FileTypeExt;
    if std::fs::symlink_metadata(path).is_ok_and(|m| m.file_type().is_socket()) {
        let _ = std::fs::remove_file(path);
    }
    let listener =
        UnixListener::bind(path).map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
    eprintln!("rted serve: listening on {}", path.display());
    Ok(listener)
}

/// What the accept loop needs of a connection besides `Read + Write`.
/// `try_clone` is kept out of the vtable so open connections can sit in
/// one registry as `Box<dyn Stream>`.
trait Stream: Read + Write + Send {
    fn try_clone(&self) -> io::Result<Self>
    where
        Self: Sized;
    fn shutdown(&self, how: Shutdown) -> io::Result<()>;
}

impl Stream for TcpStream {
    fn try_clone(&self) -> io::Result<Self> {
        TcpStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        TcpStream::shutdown(self, how)
    }
}

#[cfg(unix)]
impl Stream for UnixStream {
    fn try_clone(&self) -> io::Result<Self> {
        UnixStream::try_clone(self)
    }
    fn shutdown(&self, how: Shutdown) -> io::Result<()> {
        UnixStream::shutdown(self, how)
    }
}

/// The running socket fronts: the stop switch and the open connections.
struct Running<'a> {
    server: &'a Server,
    front: &'a Front,
    stop: AtomicBool,
    open: Mutex<Registry>,
}

/// The last connection id handed out, and a clone of every open
/// connection by id, so a `shutdown` can close their read sides.
type Registry = (u64, HashMap<u64, Box<dyn Stream>>);

impl Running<'_> {
    /// The accept loop of one listener: every connection is served on a
    /// thread of its own until it ends; returns once the fronts stop
    /// and every connection has ended. With `auth`, each connection's
    /// first line must be that token.
    fn accept<S: Stream + 'static>(
        &self,
        incoming: impl Iterator<Item = io::Result<S>>,
        auth: Option<&str>,
    ) {
        std::thread::scope(|scope| {
            for stream in incoming {
                if self.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(mut stream) = stream else { continue };
                scope.spawn(move || {
                    let (Ok(read_half), Ok(handle)) = (stream.try_clone(), stream.try_clone())
                    else {
                        return;
                    };
                    // Registered under the lock `request_stop` sweeps under,
                    // so no connection can slip in after the sweep and then
                    // idle forever.
                    let id = {
                        let open = &mut *relock(self.open.lock());
                        if self.stop.load(Ordering::SeqCst) {
                            return;
                        }
                        open.0 += 1;
                        open.1.insert(open.0, Box::new(handle));
                        open.0
                    };
                    let reader = BufReader::new(read_half);
                    let slow = self.front.slow;
                    let is_shutdown =
                        serve_connection(self.server, reader, &mut stream, slow, auth);
                    relock(self.open.lock()).1.remove(&id);
                    if is_shutdown {
                        self.request_stop();
                    }
                });
            }
        });
    }

    /// Flips the stop switch, closes every open connection for reading
    /// (a blocked read sees EOF; a request in flight is still answered)
    /// and self-connects to every listener so blocked `accept` calls
    /// observe the switch.
    fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for conn in relock(self.open.lock()).1.values() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        if let Some(Ok(addr)) = self.front.tcp.as_ref().map(TcpListener::local_addr) {
            let _ = TcpStream::connect(addr);
        }
        #[cfg(unix)]
        if let Some(path) = &self.front.socket {
            let _ = UnixStream::connect(path);
        }
    }
}

/// Serves one connection as one client of `server`: reads request lines
/// from `reader` and writes one response line per request to `writer`,
/// until EOF, a read error, a line that is not UTF-8 (which ends the
/// connection silently), or an answered `shutdown` — and returns
/// whether it was the last. Counts as one connection in the metrics.
/// A request `id`, when present, is echoed in its response, so a
/// pipelined client can keep many requests in flight.
///
/// With `auth`, the first non-empty line must be the shared token — on
/// mismatch the connection gets one error line and ends without
/// touching the service. A line longer than [`MAX_REQUEST_BYTES`] gets
/// one error line and ends the connection too. Both refusals are
/// counted (`serve_auth_failures_total`, `serve_oversize_lines_total`).
///
/// With `slow`, a request whose wall time (queue wait included) crosses
/// it is logged to stderr with its op and `id`, so the offending query
/// can be found in the client's pipeline, and counted.
pub fn serve_connection(
    server: &Server,
    mut reader: impl BufRead,
    writer: &mut impl Write,
    slow: Option<Duration>,
    auth: Option<&str>,
) -> bool {
    let metrics = &server.shared.metrics;
    metrics.connections_total.inc();
    metrics.connections_open.add(1);
    let mut client = server.client();
    let mut authed = auth.is_none();
    let mut buf = Vec::new();
    let is_shutdown = loop {
        buf.clear();
        let limit = MAX_REQUEST_BYTES as u64 + 1;
        match (&mut reader).take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break false,
            Ok(_) => {}
        }
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        } else if buf.len() > MAX_REQUEST_BYTES {
            metrics.oversize_lines.inc();
            refuse(
                writer,
                format!("request line exceeds {MAX_REQUEST_BYTES} bytes"),
            );
            break false;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            break false;
        };
        if line.trim().is_empty() {
            continue;
        }
        if !authed {
            if token_matches(line.trim(), auth.unwrap_or_default()) {
                authed = true;
                continue;
            }
            metrics.auth_failures.inc();
            refuse(writer, "authentication failed".into());
            break false;
        }
        let (id, parsed) = parse_request_line(line);
        let response = match parsed {
            Err(e) => Response::Error(e),
            Ok(Request::Shutdown) => Response::Bye,
            Ok(request) => {
                let kind = request.kind();
                let started = Instant::now();
                let response = client.call(request);
                if let Some(threshold) = slow {
                    let took = started.elapsed();
                    if took >= threshold {
                        metrics.slow_queries.inc();
                        let op = kind.map_or("shutdown", |k| k.name());
                        eprintln!("{}", slow_line(op, id.as_ref(), took, threshold));
                    }
                }
                response
            }
        };
        let out = render_response_with(&response, id.as_ref());
        if writeln!(writer, "{out}")
            .and_then(|_| writer.flush())
            .is_err()
        {
            break false;
        }
        if matches!(response, Response::Bye) {
            break true;
        }
    };
    metrics.connections_open.add(-1);
    is_shutdown
}

/// The slow-query log line (no newline). The id is rendered as in the
/// response echo, JSON-escaped, so a client's id cannot forge log lines.
fn slow_line(op: &str, id: Option<&RequestId>, took: Duration, threshold: Duration) -> String {
    let mut line = format!("rted serve: slow {op} request");
    if let Some(id) = id {
        line.push_str(" id=");
        id.render(&mut line);
    }
    line.push_str(&format!(": {took:?} (threshold {threshold:?})"));
    line
}

/// Writes the one error line of a refused connection.
fn refuse(writer: &mut impl Write, msg: String) {
    let line = render_response(&Response::Error(msg));
    let _ = writeln!(writer, "{line}").and_then(|_| writer.flush());
}

/// Constant-work token comparison (no early exit on the first
/// mismatching byte).
fn token_matches(given: &str, expected: &str) -> bool {
    given.len() == expected.len()
        && given
            .bytes()
            .zip(expected.bytes())
            .fold(0u8, |acc, (a, b)| acc | (a ^ b))
            == 0
}

/// Where [`connect`] finds a running front-end.
#[derive(Debug, Clone, Copy)]
pub enum Endpoint<'a> {
    /// A Unix socket path.
    Socket(&'a str),
    /// A TCP address, and the shared-secret token to send first, if any.
    Tcp(&'a str, Option<&'a str>),
}

/// A client connection to a running front-end.
pub struct Connection(BufReader<Box<dyn Stream>>);

/// Connects to a running front-end. Over TCP the token line, when
/// given, precedes the first request; the server answers nothing to it
/// on success.
pub fn connect(endpoint: Endpoint) -> Result<Connection, String> {
    let stream: Box<dyn Stream> = match endpoint {
        #[cfg(unix)]
        Endpoint::Socket(path) => Box::new(
            UnixStream::connect(path).map_err(|e| format!("cannot connect to {path}: {e}"))?,
        ),
        #[cfg(not(unix))]
        Endpoint::Socket(_) => return Err("--socket requires a Unix platform; use --tcp".into()),
        Endpoint::Tcp(addr, token) => {
            let mut stream =
                TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
            if let Some(token) = token {
                writeln!(stream, "{token}")
                    .and_then(|_| stream.flush())
                    .map_err(|e| format!("tcp write: {e}"))?;
            }
            Box::new(stream)
        }
    };
    Ok(Connection(BufReader::new(stream)))
}

impl Connection {
    /// Sends one request line and reads its one response line (trailing
    /// newline stripped).
    pub fn exchange(&mut self, request: &str) -> Result<String, String> {
        let stream = self.0.get_mut();
        writeln!(stream, "{request}")
            .and_then(|_| stream.flush())
            .map_err(|e| format!("connection write: {e}"))?;
        let mut line = String::new();
        match self.0.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => {
                line.truncate(line.trim_end_matches('\n').len());
                Ok(line)
            }
            Err(e) => Err(format!("connection read: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_line_escapes_the_request_id() {
        let ms = Duration::from_millis;
        let forged = RequestId::Str("q\"\nrted serve: slow status request".into());
        let line = slow_line("range", Some(&forged), ms(12), ms(10));
        assert_eq!(line.lines().count(), 1, "{line}");
        assert_eq!(
            line,
            r#"rted serve: slow range request id="q\"\nrted serve: slow status request": 12ms (threshold 10ms)"#
        );
        let line = slow_line("diff", Some(&RequestId::Num(7.0)), ms(3), ms(1));
        assert_eq!(
            line,
            "rted serve: slow diff request id=7: 3ms (threshold 1ms)"
        );
        let line = slow_line("status", None, ms(3), ms(1));
        assert_eq!(line, "rted serve: slow status request: 3ms (threshold 1ms)");
    }
}
