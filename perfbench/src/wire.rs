//! Driving the shipped binary: server processes, the closed-loop TCP
//! client and one-shot CLI calls.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The operations the workloads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Distance,
    Diff,
    Range,
    TopK,
    Join,
    Insert,
    Remove,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Distance => "distance",
            Op::Diff => "diff",
            Op::Range => "range",
            Op::TopK => "topk",
            Op::Join => "join",
            Op::Insert => "insert",
            Op::Remove => "remove",
        }
    }
}

/// One request: its protocol line and the index of its reference answer.
#[derive(Debug, Clone)]
pub struct Req {
    pub op: Op,
    pub line: String,
    pub key: usize,
}

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    pub op: Op,
    pub key: usize,
    pub latency_ns: u64,
    /// When the answer (or the failure) arrived.
    pub end: Instant,
    /// `None` when the connection failed before an answer arrived.
    pub response: Option<String>,
}

/// A connection's request source. Streams that depend on earlier
/// answers (the write workload's removes) learn them through `answered`.
pub trait Stream: Send {
    fn next(&mut self) -> Req;
    fn answered(&mut self, _req: &Req, _response: &str) {}
}

/// Cycles through a fixed request list, starting at `pos` and taking
/// every `step`-th entry.
pub struct Cycle {
    pub reqs: std::sync::Arc<Vec<Req>>,
    pub pos: usize,
    pub step: usize,
}

impl Stream for Cycle {
    fn next(&mut self) -> Req {
        let r = self.reqs[self.pos % self.reqs.len()].clone();
        self.pos += self.step;
        r
    }
}

/// A line-oriented TCP connection to the service.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: String,
}

impl Conn {
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            buf: String::new(),
        })
    }

    /// Sends one request line and returns the response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.buf.clear();
        if self.reader.read_line(&mut self.buf)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.buf.trim_end().to_string())
    }

    /// Sends every line without waiting (a writer thread feeds the
    /// socket) and returns the answers in order.
    pub fn pipeline(&mut self, lines: &[String]) -> std::io::Result<Vec<String>> {
        let mut writer = self.writer.try_clone()?;
        let sent: Vec<u8> = lines
            .iter()
            .flat_map(|l| l.bytes().chain([b'\n']))
            .collect();
        let feeder = std::thread::spawn(move || writer.write_all(&sent));
        let mut answers = Vec::with_capacity(lines.len());
        for _ in lines {
            self.buf.clear();
            if self.reader.read_line(&mut self.buf)? == 0 {
                break;
            }
            answers.push(self.buf.trim_end().to_string());
        }
        feeder.join().expect("feeder thread panicked")?;
        Ok(answers)
    }
}

/// Runs one closed-loop client per stream until `deadline`: each sends
/// its next request only after the previous answer arrived. Returns the
/// streams (with whatever state they accumulated) and every sample.
pub fn closed_loop<S: Stream + 'static>(
    addr: &str,
    streams: Vec<S>,
    deadline: Instant,
) -> (Vec<S>, Vec<Sample>) {
    let handles: Vec<_> = streams
        .into_iter()
        .map(|mut stream| {
            let addr = addr.to_string();
            std::thread::spawn(move || {
                let mut samples = Vec::new();
                // A refused connection fails its first request.
                let mut conn = Conn::open(&addr).ok();
                while Instant::now() < deadline {
                    let req = stream.next();
                    let t0 = Instant::now();
                    let response = conn.as_mut().and_then(|c| c.call(&req.line).ok());
                    let end = Instant::now();
                    let latency_ns = (end - t0).as_nanos() as u64;
                    if let Some(r) = &response {
                        stream.answered(&req, r);
                    }
                    let failed = response.is_none();
                    samples.push(Sample {
                        op: req.op,
                        key: req.key,
                        latency_ns,
                        end,
                        response,
                    });
                    if failed {
                        break;
                    }
                }
                (stream, samples)
            })
        })
        .collect();
    let mut streams = Vec::new();
    let mut samples = Vec::new();
    for h in handles {
        let (s, mut v) = h.join().expect("client thread panicked");
        streams.push(s);
        samples.append(&mut v);
    }
    (streams, samples)
}

/// A running `rted serve` process on a loopback TCP port.
pub struct Server {
    child: Child,
    pub addr: String,
}

impl Server {
    /// Starts `rted serve <args> --tcp 127.0.0.1:0 --workers 2` and waits
    /// until it answers a `status` request. Returns the server and the
    /// seconds from spawn to that answer.
    pub fn start(rted: &Path, args: &[String], log: &Path) -> Result<(Server, f64), String> {
        let t0 = Instant::now();
        let err = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(rted)
            .arg("serve")
            .args(args)
            .args(["--tcp", "127.0.0.1:0", "--workers", "2"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", rted.display()))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let limit = t0 + Duration::from_secs(120);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // Only a complete line: the server may be mid-write.
            let line = text
                .split("listening on tcp ")
                .nth(1)
                .and_then(|r| r.split_once('\n'));
            if let Some((rest, _)) = line {
                server.addr = rest.split_whitespace().next().unwrap_or("").to_string();
                break;
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("rted serve exited with {status}: {text}"));
            }
            if Instant::now() > limit {
                server.kill();
                return Err("rted serve did not come up".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let status = Conn::open(&server.addr)
            .and_then(|mut c| c.call("{\"op\":\"status\"}"))
            .map_err(|e| format!("first status: {e}"))?;
        if !status.contains("\"ok\":true") {
            return Err(format!("first status failed: {status}"));
        }
        Ok((server, t0.elapsed().as_secs_f64()))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The server's peak resident set (VmHWM), in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Graceful stop through the protocol; falls back to a kill.
    pub fn shutdown(mut self) {
        let asked = Conn::open(&self.addr).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        if asked.is_ok() {
            let limit = Instant::now() + Duration::from_secs(30);
            while Instant::now() < limit {
                if let Ok(Some(_)) = self.child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        self.kill();
    }

    /// `kill -9`, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// Runs `rted <args>` to completion, returning stdout and the wall time.
pub fn run_cli(rted: &Path, args: &[String]) -> Result<(String, f64), String> {
    let t0 = Instant::now();
    let out = Command::new(rted)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn {}: {e}", rted.display()))?;
    let secs = t0.elapsed().as_secs_f64();
    if !out.status.success() {
        return Err(format!(
            "rted {} exited with {}: {}",
            args.join(" "),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((String::from_utf8_lossy(&out.stdout).into_owned(), secs))
}

/// `rted index build INDEX FILE`, timed.
pub fn index_build(rted: &Path, index: &Path, file: &Path) -> Result<f64, String> {
    let _ = std::fs::remove_file(index);
    run_cli(
        rted,
        &[
            "index".into(),
            "build".into(),
            path_arg(index),
            path_arg(file),
        ],
    )
    .map(|r| r.1)
}

pub fn path_arg(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}

/// Largest resident set of any child this process has waited for, in
/// MB (`getrusage(RUSAGE_CHILDREN)`).
pub fn children_peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// The per-run scratch directory inside the checkout.
pub fn work_dir(workload: &str, seed: u64) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work").join(format!("{workload}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::fs::canonicalize(&dir).map_err(|e| e.to_string())
}
