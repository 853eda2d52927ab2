//! Open-loop load: every operation has an intended send time, and each
//! connection sends on schedule whether or not earlier answers have
//! arrived (HTTP/1.1 pipelining), so a slow server builds a queue instead
//! of slowing the load down. Latency is timed from the intended send time.
//!
//! One thread drives each connection. A session operation that needs the
//! id of a session whose create has not been answered yet waits for it;
//! that wait shows up as generator lateness.

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What an operation does; session operations name the workload-level
/// session they act on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `POST /v1/predict`.
    Predict,
    /// `POST /v1/sessions`.
    Create(usize),
    /// `POST /v1/sessions/{id}/checkins`.
    Append(usize),
    /// `POST /v1/sessions/{id}/predict`.
    SessionPredict(usize),
    /// `DELETE /v1/sessions/{id}`.
    Delete(usize),
}

#[derive(Debug, Clone)]
pub struct Op {
    /// Intended send time, from the start of the phase.
    pub due: Duration,
    pub conn: usize,
    pub kind: Kind,
    pub body: String,
}

/// What happened to one operation. `status` 0 means a transport failure
/// (or that the operation was never sent because its connection died).
#[derive(Debug, Clone, Default)]
pub struct Record {
    pub sent: Duration,
    pub done: Duration,
    pub status: u16,
    pub body: String,
}

/// A client-side span: `(name, start, end)` from the phase start, kept in
/// memory while the phase runs.
pub type ClientSpan = (&'static str, Duration, Duration);

/// One connection's records (tagged with their op index) and spans.
type Driven = (Vec<(usize, Record)>, Vec<ClientSpan>);

/// Largest number of unanswered requests one connection may hold; past it
/// the generator waits (and falls behind) rather than overfilling socket
/// buffers.
const MAX_INFLIGHT: usize = 256;

/// No answer for this long means the server is wedged.
const STALL: Duration = Duration::from_secs(30);

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes. `ppoll` sleeps
/// on a high-resolution timer; socket read timeouts round to scheduler
/// ticks, which would make the generator late by milliseconds.
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::unix::io::AsRawFd;
    const POLLIN: i16 = 0x001;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out `struct pollfd` /
    // `struct timespec` values for the duration of the call, `nfds` is 1
    // to match the single entry, and a null signal mask is permitted.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

fn wire(op: &Op, ids: &HashMap<usize, u64>) -> Vec<u8> {
    let id = |s: &usize| ids.get(s).copied().unwrap_or(0);
    let (method, path) = match &op.kind {
        Kind::Predict => ("POST", "/v1/predict".to_string()),
        Kind::Create(_) => ("POST", "/v1/sessions".to_string()),
        Kind::Append(s) => ("POST", format!("/v1/sessions/s{}/checkins", id(s))),
        Kind::SessionPredict(s) => ("POST", format!("/v1/sessions/s{}/predict", id(s))),
        Kind::Delete(s) => ("DELETE", format!("/v1/sessions/s{}", id(s))),
    };
    request_bytes(method, &path, &op.body)
}

/// The bytes of one keep-alive request.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: keep-alive\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits one complete response off the front of `buf`:
/// `(status, body, bytes consumed)`.
fn take_response(buf: &[u8]) -> Option<(u16, String, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let end = head_end + len;
    if buf.len() < end {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[head_end..end]).into_owned();
    Some((status, body, end))
}

/// The session id in a create answer (`{"session":"s17",…}`).
fn session_id(body: &str) -> Option<u64> {
    let rest = body.split("\"session\":\"s").nth(1)?;
    rest.split('"').next()?.parse().ok()
}

/// Runs `ops` (sorted by `due`) over `conns` keep-alive connections to
/// `addr`, one thread each; returns one record per op, in op order, and
/// the client spans when `spans` is set.
pub fn run(addr: &str, ops: &[Op], conns: usize, spans: bool) -> (Vec<Record>, Vec<ClientSpan>) {
    let per_conn: Vec<Vec<usize>> = (0..conns)
        .map(|c| (0..ops.len()).filter(|&i| ops[i].conn == c).collect())
        .collect();
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        let s = TcpStream::connect(addr).expect("open-loop connect");
        s.set_nodelay(true).expect("nodelay");
        streams.push(s);
    }
    let start = Instant::now();
    let results: Vec<Driven> = std::thread::scope(|scope| {
        let mut jobs: Vec<_> = streams.into_iter().zip(&per_conn).collect();
        let (first_stream, first_mine) = jobs.remove(0);
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(stream, mine)| scope.spawn(move || drive(stream, ops, mine, start, spans)))
            .collect();
        let mut out = vec![drive(first_stream, ops, first_mine, start, spans)];
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop connection thread")),
        );
        out
    });
    let mut records = vec![Record::default(); ops.len()];
    let mut all_spans = Vec::new();
    for (recs, spans) in results {
        for (i, r) in recs {
            records[i] = r;
        }
        all_spans.extend(spans);
    }
    (records, all_spans)
}

fn drive(
    mut stream: TcpStream,
    ops: &[Op],
    mine: &[usize],
    start: Instant,
    trace: bool,
) -> (Vec<(usize, Record)>, Vec<ClientSpan>) {
    let mut out: Vec<(usize, Record)> = Vec::with_capacity(mine.len());
    let mut spans: Vec<ClientSpan> = Vec::new();
    let mut ids: HashMap<usize, u64> = HashMap::new();
    let mut inflight: VecDeque<(usize, Duration)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next = 0usize;
    let mut last_progress = Instant::now();
    let fail_rest = |out: &mut Vec<(usize, Record)>,
                     inflight: &mut VecDeque<(usize, Duration)>,
                     next: usize| {
        for (i, sent) in inflight.drain(..) {
            out.push((
                i,
                Record {
                    sent,
                    ..Record::default()
                },
            ));
        }
        for &i in &mine[next..] {
            out.push((i, Record::default()));
        }
    };
    loop {
        let now = start.elapsed();
        let mut wait = STALL;
        if let Some(&i) = mine.get(next) {
            let op = &ops[i];
            // With nothing in flight the create can no longer be answered,
            // so the op goes out as is and fails at the server.
            let ready = inflight.is_empty()
                || match op.kind {
                    Kind::Append(s) | Kind::SessionPredict(s) | Kind::Delete(s) => {
                        ids.contains_key(&s)
                    }
                    Kind::Predict | Kind::Create(_) => true,
                };
            let room = inflight.len() < MAX_INFLIGHT;
            if ready && room && op.due <= now {
                if stream.write_all(&wire(op, &ids)).is_err() {
                    fail_rest(&mut out, &mut inflight, next);
                    break;
                }
                let sent = start.elapsed();
                if trace {
                    spans.push(("client.schedule_wait", op.due, sent));
                }
                inflight.push_back((i, sent));
                next += 1;
                continue;
            }
            if ready && room {
                wait = op.due - now;
                if inflight.is_empty() {
                    std::thread::sleep(wait);
                    continue;
                }
            }
        } else if inflight.is_empty() {
            break;
        }
        // Wait for an answer, but no longer than until the next send.
        if !wait_readable(&stream, wait) {
            if last_progress.elapsed() > STALL && !inflight.is_empty() {
                fail_rest(&mut out, &mut inflight, next);
                break;
            }
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                fail_rest(&mut out, &mut inflight, next);
                break;
            }
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                let done = start.elapsed();
                last_progress = Instant::now();
                while let Some((status, body, used)) = take_response(&buf) {
                    buf.drain(..used);
                    let Some((i, sent)) = inflight.pop_front() else {
                        break;
                    };
                    if let Kind::Create(s) = ops[i].kind {
                        ids.insert(s, session_id(&body).unwrap_or(0));
                    }
                    if trace {
                        spans.push(("client.request", sent, done));
                    }
                    out.push((
                        i,
                        Record {
                            sent,
                            done,
                            status,
                            body,
                        },
                    ));
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                fail_rest(&mut out, &mut inflight, next);
                break;
            }
        }
    }
    (out, spans)
}
