//! The line-protocol front-end (`rted_serve::front`) over in-memory
//! streams and loopback sockets: request-line framing, TCP auth,
//! concurrent Unix-socket connections, the refusal, connection and
//! slow-query counters, the socket-path rule, and `shutdown` ending
//! idle connections.

use rted_obs::MetricValue;
use rted_serve::front::{self, Endpoint, Front, MAX_REQUEST_BYTES};
use rted_serve::{MetricsFormat, Request, Response, Server, ServerConfig};
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn server() -> Server {
    let tree = rted_tree::parse_bracket("{a{b}}").unwrap();
    Server::in_memory(vec![tree], ServerConfig::default())
}

/// A counter or gauge of `server`, read through a `metrics` request.
fn metric(server: &Server, name: &str) -> i64 {
    match server.call(Request::Metrics {
        format: MetricsFormat::Json,
    }) {
        Response::Metrics(snap) => match snap.get(name) {
            Some(MetricValue::Counter(v)) => *v as i64,
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("{name}: {other:?}"),
        },
        other => panic!("{other:?}"),
    }
}

/// Runs `input` through one connection of `server` and returns the
/// response lines.
fn converse(server: &Server, input: Vec<u8>) -> Vec<String> {
    let mut out = Vec::new();
    front::serve_connection(server, Cursor::new(input), &mut out, None, None);
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

/// A socket path of this test process that no other test uses.
fn socket_path(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("rted-front-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Starts `front::run` on a thread of its own; the receiver gets its
/// result. A detached thread rather than a scope, so a `run` that never
/// returns fails the test at a `recv_timeout` instead of hanging it.
fn spawn_run(server: &Arc<Server>, front: Front) -> mpsc::Receiver<Result<(), String>> {
    let (done, finished) = mpsc::channel();
    let server = Arc::clone(server);
    std::thread::spawn(move || done.send(front::run(&server, front)));
    finished
}

/// Connects to the Unix socket at `path` once `run` has bound it.
#[cfg(unix)]
fn connect_socket(path: &Path) -> front::Connection {
    let socket = path.to_str().unwrap();
    for _ in 0..400 {
        if let Ok(conn) = front::connect(Endpoint::Socket(socket)) {
            return conn;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("{socket} was never bound");
}

const SHUTDOWN: &str = r#"{"op":"shutdown"}"#;
const BYE: &str = r#"{"ok":true,"bye":true}"#;
const RETURNS_WITHIN: Duration = Duration::from_secs(2);

#[test]
fn oversize_line_is_refused_after_earlier_lines_are_answered() {
    let server = server();
    let mut input = b"{\"op\":\"distance\",\"left\":0,\"right\":0}\n".to_vec();
    input.resize(input.len() + MAX_REQUEST_BYTES + 1, b' ');
    input.extend_from_slice(b"\n{\"op\":\"status\"}\n");
    let lines = converse(&server, input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert_eq!(lines[0], r#"{"ok":true,"distance":0}"#);
    assert!(lines[1].starts_with(r#"{"ok":false,"error":"request line exceeds"#));
    assert_eq!(metric(&server, "serve_oversize_lines_total"), 1);
}

#[test]
fn line_at_the_limit_is_read() {
    let request = b"{\"op\":\"distance\",\"left\":0,\"right\":0}";
    let mut input = vec![b' '; MAX_REQUEST_BYTES - request.len()];
    input.extend_from_slice(request);
    input.push(b'\n');
    assert_eq!(converse(&server(), input), [r#"{"ok":true,"distance":0}"#]);
}

#[test]
fn non_utf8_line_ends_the_connection_silently() {
    let mut input = b"{\"op\":\"distance\",\"left\":0,\"right\":0}\n".to_vec();
    input.extend_from_slice(b"\xff\xfe\n{\"op\":\"status\"}\n");
    assert_eq!(converse(&server(), input), [r#"{"ok":true,"distance":0}"#]);
}

#[test]
fn zero_slow_threshold_counts_every_answered_request() {
    let server = server();
    let input = b"{\"op\":\"distance\",\"left\":0,\"right\":0}\n{\"op\":\"status\"}\n\
                  {\"op\":\"range\",\"tree\":\"{a}\",\"tau\":2,\"id\":7}\n";
    let mut out = Vec::new();
    let slow = Some(Duration::ZERO);
    front::serve_connection(&server, Cursor::new(input.to_vec()), &mut out, slow, None);
    assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    assert_eq!(metric(&server, "serve_slow_queries_total"), 3);
}

#[test]
fn tcp_auth_refuses_a_wrong_token_and_admits_the_right_one() {
    let server = Arc::new(server());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let front = Front {
        tcp: Some(listener),
        auth_token: Some("s3cret".into()),
        timeout: Some(Duration::from_secs(10)),
        ..Front::default()
    };
    let finished = spawn_run(&server, front);

    // One write, so the request after the wrong token reaches the server
    // too: it must not be served.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"wrong\n{\"op\":\"status\"}\n").unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert_eq!(
        answer,
        "{\"ok\":false,\"error\":\"authentication failed\"}\n"
    );
    match server.call(Request::Status) {
        Response::Status(status) => assert_eq!(status.requests_by_type, [0; 11]),
        other => panic!("{other:?}"),
    }
    assert_eq!(metric(&server, "serve_auth_failures_total"), 1);

    let mut conn = front::connect(Endpoint::Tcp(&addr, Some("s3cret"))).unwrap();
    let status = conn.exchange(r#"{"op":"status"}"#).unwrap();
    assert!(status.starts_with(r#"{"ok":true,"#), "{status}");
    assert!(status.contains(&format!(r#""tcp":"{addr}""#)), "{status}");
    assert_eq!(conn.exchange(SHUTDOWN).unwrap(), BYE);
    assert_eq!(finished.recv_timeout(RETURNS_WITHIN), Ok(Ok(())));
    assert_eq!(metric(&server, "serve_auth_failures_total"), 1);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_concurrent_connections() {
    let server = Arc::new(server());
    let path = socket_path("concurrent.sock");
    let front = Front {
        socket: Some(path.clone()),
        ..Front::default()
    };
    let finished = spawn_run(&server, front);
    // Both stay open: the second is answered while the first waits.
    let mut first = connect_socket(&path);
    let mut second = connect_socket(&path);
    let distance = r#"{"op":"distance","left":0,"right":0}"#;
    let answer = r#"{"ok":true,"distance":0}"#;
    assert_eq!(second.exchange(distance).unwrap(), answer);
    assert_eq!(first.exchange(distance).unwrap(), answer);
    assert_eq!(metric(&server, "serve_connections_total"), 2);
    assert_eq!(metric(&server, "serve_connections_open"), 2);
    drop(second);
    assert_eq!(first.exchange(SHUTDOWN).unwrap(), BYE);
    assert_eq!(finished.recv_timeout(RETURNS_WITHIN), Ok(Ok(())));
}

#[cfg(unix)]
#[test]
fn socket_path_holding_a_regular_file_is_left_untouched() {
    let path = socket_path("notes.txt");
    std::fs::write(&path, "keep me\n").unwrap();
    let front = Front {
        socket: Some(path.clone()),
        ..Front::default()
    };
    let result = spawn_run(&Arc::new(server()), front).recv_timeout(RETURNS_WITHIN);
    let err = result.expect("run returns").unwrap_err();
    assert!(
        err.starts_with(&format!("cannot bind {}: ", path.display())),
        "{err}"
    );
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep me\n");
    std::fs::remove_file(&path).unwrap();
}

#[cfg(unix)]
#[test]
fn shutdown_ends_idle_connections_and_returns() {
    let server = Arc::new(server());
    let path = socket_path("shutdown.sock");
    // A stale socket from an earlier run is replaced.
    drop(std::os::unix::net::UnixListener::bind(&path).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let front = Front {
        socket: Some(path.clone()),
        tcp: Some(listener),
        ..Front::default()
    };
    let finished = spawn_run(&server, front);

    // The idle client: answered once, so its connection is registered.
    let idle = TcpStream::connect(&addr).unwrap();
    let mut idle_reader = BufReader::new(idle.try_clone().unwrap());
    (&idle).write_all(b"{\"op\":\"status\"}\n").unwrap();
    let mut line = String::new();
    idle_reader.read_line(&mut line).unwrap();
    assert!(line.starts_with(r#"{"ok":true,"#), "{line}");

    let mut conn = connect_socket(&path);
    assert_eq!(conn.exchange(SHUTDOWN).unwrap(), BYE);
    let result = finished.recv_timeout(RETURNS_WITHIN);
    assert_eq!(result, Ok(Ok(())), "run must return while a client idles");
    line.clear();
    assert_eq!(idle_reader.read_line(&mut line).unwrap(), 0, "{line}");
    assert_eq!(metric(&server, "serve_connections_open"), 0);
    assert!(!path.exists(), "the socket file is removed");
}
