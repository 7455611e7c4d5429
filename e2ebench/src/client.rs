//! Open-loop HTTP client: one thread sends every request at its scheduled
//! time and multiplexes all open connections over non-blocking sockets,
//! reading the streamed NDJSON tokens as they arrive.
//!
//! Each request is timed from when it was *due*, so a stall in the server
//! also charges the wait it imposes on requests scheduled behind it. The
//! generator's own lateness (send time minus due time) is recorded per
//! request, so a run whose generator fell behind can be thrown out.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One scheduled request.
pub struct Planned {
    /// Offset from the start of the schedule.
    pub due: Duration,
    /// The complete HTTP request.
    pub request: Vec<u8>,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Ok,
    /// 429 from the front-end's load-shedding watermark.
    Shed,
    /// Refused at admission (queue full, bad request, draining) or retired
    /// with an outcome other than `done`/`deadline`.
    Rejected,
    /// Retired by the scheduler's deadline.
    Deadline,
    /// No complete answer within the client timeout, or a 408.
    Timeout,
    /// Connect, write or read failed, or the stream ended early.
    Transport,
}

/// Everything the client saw of one request.
#[derive(Debug, Clone)]
pub struct Record {
    pub class: Class,
    pub due: Instant,
    pub sent: Instant,
    pub connected: Option<Instant>,
    pub written: Option<Instant>,
    pub head: Option<Instant>,
    pub token_times: Vec<Instant>,
    pub tokens: Vec<u32>,
    /// The token list of the final `done` line (checked against the stream).
    pub final_tokens: Option<Vec<u32>>,
    pub finished: Instant,
}

impl Record {
    /// Send time minus due time.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }

    /// Due time to first streamed token.
    pub fn ttft(&self) -> Option<Duration> {
        self.token_times
            .first()
            .map(|t| t.saturating_duration_since(self.due))
    }

    /// Gaps between consecutive streamed tokens.
    pub fn itl(&self) -> impl Iterator<Item = Duration> + '_ {
        self.token_times
            .windows(2)
            .map(|w| w[1].saturating_duration_since(w[0]))
    }
}

enum Parse {
    Head,
    ChunkSize,
    ChunkData(usize),
    ChunkEnd,
    Body(usize),
    Done,
}

struct Conn {
    idx: usize,
    stream: TcpStream,
    buf: Vec<u8>,
    line: Vec<u8>,
    parse: Parse,
    status: u16,
    rec: Record,
    class: Option<Class>,
}

impl Conn {
    /// Consumes as much of `buf` as forms complete protocol units.
    fn advance(&mut self, now: Instant) {
        loop {
            match self.parse {
                Parse::Head => {
                    let Some(end) = find(&self.buf, b"\r\n\r\n") else {
                        return;
                    };
                    let head = String::from_utf8_lossy(&self.buf[..end]).to_ascii_lowercase();
                    self.buf.drain(..end + 4);
                    self.rec.head = Some(now);
                    self.status = head
                        .split_whitespace()
                        .nth(1)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or(0);
                    let length = head
                        .lines()
                        .find_map(|l| l.strip_prefix("content-length:"))
                        .and_then(|v| v.trim().parse().ok());
                    self.parse = if head.contains("transfer-encoding: chunked") {
                        Parse::ChunkSize
                    } else {
                        Parse::Body(length.unwrap_or(0))
                    };
                }
                Parse::ChunkSize => {
                    let Some(end) = find(&self.buf, b"\r\n") else {
                        return;
                    };
                    let text = String::from_utf8_lossy(&self.buf[..end]).to_string();
                    self.buf.drain(..end + 2);
                    let size = text.split(';').next().unwrap_or("").trim();
                    match usize::from_str_radix(size, 16) {
                        Ok(0) => self.parse = Parse::Done,
                        Ok(n) => self.parse = Parse::ChunkData(n),
                        Err(_) => {
                            self.class.get_or_insert(Class::Transport);
                            self.parse = Parse::Done;
                        }
                    }
                }
                Parse::ChunkData(left) => {
                    if self.buf.is_empty() {
                        return;
                    }
                    let take = left.min(self.buf.len());
                    self.line.extend(self.buf.drain(..take));
                    self.lines(now);
                    self.parse = if take == left {
                        Parse::ChunkEnd
                    } else {
                        Parse::ChunkData(left - take)
                    };
                }
                Parse::ChunkEnd => {
                    if self.buf.len() < 2 {
                        return;
                    }
                    self.buf.drain(..2);
                    self.parse = Parse::ChunkSize;
                }
                Parse::Body(left) => {
                    if self.buf.len() < left {
                        return;
                    }
                    let body = String::from_utf8_lossy(&self.buf[..left]).to_string();
                    self.buf.drain(..left);
                    self.class.get_or_insert(match self.status {
                        429 if body.contains("shedding") => Class::Shed,
                        408 => Class::Timeout,
                        _ => Class::Rejected,
                    });
                    self.parse = Parse::Done;
                }
                Parse::Done => return,
            }
        }
    }

    /// Handles every complete NDJSON line in the line buffer.
    fn lines(&mut self, now: Instant) {
        while let Some(end) = self.line.iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&self.line[..end]).to_string();
            self.line.drain(..=end);
            if let Some(tok) = field(&line, "\"token\":") {
                match tok.parse() {
                    Ok(t) => {
                        self.rec.tokens.push(t);
                        self.rec.token_times.push(now);
                    }
                    Err(_) => {
                        self.class.get_or_insert(Class::Transport);
                    }
                }
            } else if line.contains("\"done\":true") {
                let outcome = field(&line, "\"outcome\":\"").unwrap_or_default();
                self.rec.final_tokens = line.split_once("\"tokens\":[").map(|(_, rest)| {
                    rest.split(']')
                        .next()
                        .unwrap_or("")
                        .split(',')
                        .filter_map(|t| t.trim().parse().ok())
                        .collect()
                });
                self.class.get_or_insert(match outcome.as_str() {
                    "done" => Class::Ok,
                    "deadline" => Class::Deadline,
                    _ => Class::Rejected,
                });
            } else if line.contains("\"error\"") {
                self.class.get_or_insert(if line.contains("timeout") {
                    Class::Timeout
                } else {
                    Class::Transport
                });
            }
        }
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The text after `key` up to the next `"`, `,` or `}`.
fn field(line: &str, key: &str) -> Option<String> {
    let (_, rest) = line.split_once(key)?;
    let end = rest.find(['"', ',', '}']).unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// Builds a streaming `POST /generate` request on its own connection.
pub fn generate_request(body: &str) -> Vec<u8> {
    format!(
        "POST /generate HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

const POLLIN: i16 = 0x1;

/// Blocks until one of `conns` is readable or `wait` passes.
fn wait_readable(conns: &[Conn], wait: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: wait.as_secs() as std::os::raw::c_long,
        tv_nsec: std::os::raw::c_long::from(wait.subsec_nanos() as i32),
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `struct pollfd`-layout entries whose descriptors stay open for the
    // call (the `TcpStream`s in `conns` outlive it); `ts` is a valid
    // timespec; a null signal mask leaves the mask unchanged. The result
    // is ignored: readiness is re-checked by non-blocking reads.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Sends `plan` open-loop to `addr` and returns one record per request,
/// in plan order. A request with no complete answer `timeout` after its
/// due time is recorded as [`Class::Timeout`].
pub fn run(addr: SocketAddr, plan: &[Planned], timeout: Duration) -> Vec<Record> {
    // A short lead so the first due time is not already in the past.
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut out: Vec<Option<Record>> = (0..plan.len()).map(|_| None).collect();
    let mut conns: Vec<Conn> = Vec::new();
    let mut next = 0;
    let mut scratch = [0u8; 16 * 1024];
    while next < plan.len() || !conns.is_empty() {
        // Send everything that is due.
        while next < plan.len() && t0 + plan[next].due <= Instant::now() {
            let due = t0 + plan[next].due;
            let sent = Instant::now();
            let mut rec = Record {
                class: Class::Transport,
                due,
                sent,
                connected: None,
                written: None,
                head: None,
                token_times: Vec::new(),
                tokens: Vec::new(),
                final_tokens: None,
                finished: sent,
            };
            let opened = TcpStream::connect(addr).and_then(|mut s| {
                rec.connected = Some(Instant::now());
                s.set_nodelay(true)?;
                s.write_all(&plan[next].request)?;
                rec.written = Some(Instant::now());
                s.set_nonblocking(true)?;
                Ok(s)
            });
            match opened {
                Ok(stream) => conns.push(Conn {
                    idx: next,
                    stream,
                    buf: Vec::new(),
                    line: Vec::new(),
                    parse: Parse::Head,
                    status: 0,
                    rec,
                    class: None,
                }),
                Err(_) => {
                    rec.finished = Instant::now();
                    out[next] = Some(rec);
                }
            }
            next += 1;
        }
        let now = Instant::now();
        let until_next = if next < plan.len() {
            (t0 + plan[next].due).saturating_duration_since(now)
        } else {
            Duration::from_millis(10)
        };
        wait_readable(&conns, until_next.min(Duration::from_millis(10)));

        // Drain every readable connection; retire finished ones.
        let now = Instant::now();
        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut closed = false;
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conn.buf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        closed = true;
                        break;
                    }
                }
            }
            conn.advance(now);
            let done = matches!(conn.parse, Parse::Done);
            let expired = now.saturating_duration_since(conn.rec.due) > timeout;
            if done || closed || expired {
                let mut conn = conns.swap_remove(i);
                conn.rec.finished = now;
                // A verdict read from the wire wins; otherwise the request
                // ran out of time or its stream ended without one.
                conn.rec.class = match conn.class {
                    Some(c) => c,
                    None if expired => Class::Timeout,
                    None => Class::Transport,
                };
                out[conn.idx] = Some(conn.rec);
            } else {
                i += 1;
            }
        }
    }
    out.into_iter()
        .map(|r| r.expect("every planned request is recorded"))
        .collect()
}
