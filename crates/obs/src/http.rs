//! A tiny dependency-free HTTP/1.1 server for observability endpoints.
//!
//! `sdcheckerd` (and anything else that wants a scrape surface) needs
//! exactly one thing from HTTP: answer small GET requests with small
//! text bodies. This module provides that on `std::net::TcpListener`
//! alone — no async runtime, no external crates — with a cooperative
//! shutdown flag so a daemon can stop serving cleanly on SIGTERM.
//!
//! The server is deliberately minimal: requests are parsed to a method
//! and a path (query strings and headers beyond the terminating blank
//! line are ignored), every response carries `Content-Length` and
//! `Connection: close`, and each connection is handled inline on the
//! serving thread. A Prometheus scraper or a `curl` loop is the intended
//! client, not a browser fleet.
//!
//! Between accept attempts the serving thread parks for at most
//! `ACCEPT_POLL`. Unparking it (`JoinHandle::thread().unpark()`) makes
//! it accept at once and answer every connection already queued: a
//! daemon unparks it each time it publishes fresh data, so a request
//! that was waiting is answered from that data without waiting out the
//! tick. The tick still bounds how often a client looping on one
//! endpoint is answered: once per tick, plus once per wake.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// The content type Prometheus expects from a `/metrics` endpoint
/// (text exposition format version 0.0.4).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Maximum bytes of request head (request line + headers) we accept.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// How long one connection may take to deliver its *entire* request
/// head. This is an overall deadline, not a per-read timeout: a client
/// trickling one byte every 1.9 s can otherwise hold the single-threaded
/// accept loop hostage indefinitely.
const READ_TIMEOUT: Duration = Duration::from_secs(2);

/// How long writing one response may take before the connection is
/// abandoned (a client that never drains its receive buffer).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The longest the accept loop parks before it checks the shutdown
/// flag and the listener again; an unpark ends the wait sooner.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A parsed request: method and path, nothing more.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `HEAD`, ... (uppercased as sent).
    pub method: String,
    /// The request target, e.g. `/metrics` (query string stripped).
    pub path: String,
}

/// A response to write back: status, content type, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` response.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// A `200 OK` JSON response.
    pub fn json(body: impl Into<Vec<u8>>) -> Response {
        Response::ok("application/json", body)
    }

    /// A plain-text response with an arbitrary status code.
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_string(),
            body: body.into(),
        }
    }

    /// The stock `404 Not Found` response.
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// A bound listener serving requests until a shutdown flag is raised.
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
}

impl HttpServer {
    /// Bind to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the serve loop can observe `stop`
        // between connections instead of parking forever in accept(2).
        listener.set_nonblocking(true)?;
        Ok(HttpServer { listener })
    }

    /// The actual bound address (resolves port 0 to the assigned port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve requests until `stop` turns true. Each accepted connection
    /// is parsed, handed to `handler`, answered, and closed; connection-
    /// level errors (malformed requests, client hangups) are answered
    /// with `400` where possible and never abort the loop. With nothing
    /// queued the thread parks for at most [`ACCEPT_POLL`]; unpark it to
    /// have it accept at once (and after raising `stop`, to end it now).
    ///
    /// An accept error that belongs to one incoming connection, or to
    /// descriptors or memory running out, is counted in
    /// `http_accept_errors_total` and retried after one park. Only an
    /// error that leaves the listener itself unusable ends serving.
    pub fn serve<F>(&self, stop: &AtomicBool, handler: F) -> io::Result<()>
    where
        F: Fn(&Request) -> Response,
    {
        while !stop.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    // Best effort per connection: a broken client must
                    // not take the scrape endpoint down.
                    let _ = handle_connection(stream, &handler);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::park_timeout(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if listener_unusable(&e) => return Err(e),
                Err(_) => {
                    crate::count("http_accept_errors_total", 1);
                    std::thread::park_timeout(ACCEPT_POLL);
                }
            }
        }
        Ok(())
    }
}

/// Whether an accept(2) error says the listening socket itself is
/// unusable, so that no retry can succeed: `EBADF`, `EFAULT`, `EINVAL`
/// (not listening) or `ENOTSOCK`. Every other error is worth a retry.
/// Linux hands a new connection's pending network errors (`ENETDOWN`,
/// `EPROTO`, `ENOPROTOOPT`, `EHOSTDOWN`, `ENONET`, `EHOSTUNREACH`,
/// `EOPNOTSUPP`, `ENETUNREACH`) to the caller to retry; `ECONNABORTED`
/// ends one connection; and exhausted descriptors or memory (`EMFILE`,
/// `ENFILE`, `ENOBUFS`, `ENOMEM`) may be gone by the next attempt.
fn listener_unusable(e: &io::Error) -> bool {
    const EBADF: i32 = 9;
    const EFAULT: i32 = 14;
    const EINVAL: i32 = 22;
    #[cfg(target_os = "linux")]
    const ENOTSOCK: i32 = 88;
    #[cfg(not(target_os = "linux"))]
    const ENOTSOCK: i32 = 38;
    matches!(e.raw_os_error(), Some(EBADF | EFAULT | EINVAL | ENOTSOCK))
}

/// Read the request head, dispatch to the handler, write the response.
/// Abusive clients get a status, not a hung listener: a head that takes
/// longer than [`READ_TIMEOUT`] in total draws `408`, one larger than
/// [`MAX_HEAD_BYTES`] draws `431`, anything else malformed draws `400`.
fn handle_connection<F>(mut stream: TcpStream, handler: &F) -> io::Result<()>
where
    F: Fn(&Request) -> Response,
{
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(e) => {
            let response = match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => {
                    Response::text(408, "request timeout\n")
                }
                io::ErrorKind::InvalidData => Response::text(431, "request head too large\n"),
                _ => Response::text(400, "bad request\n"),
            };
            let _ = write_response(&mut stream, &response);
            return Ok(());
        }
    };
    let response = match parse_request(&head) {
        Some(req) if req.method == "GET" || req.method == "HEAD" => {
            // A panicking handler (a bug on one render path, a poisoned
            // invariant) must cost one response, not the serving thread:
            // catch it and degrade to 503 so the scrape surface and every
            // other endpoint stay up.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&req))).unwrap_or_else(
                |_| Response::text(503, "handler panicked; endpoint temporarily unavailable\n"),
            )
        }
        Some(_) => Response::text(405, "method not allowed\n"),
        None => Response::text(400, "bad request\n"),
    };
    write_response(&mut stream, &response)
}

/// Read bytes until the `\r\n\r\n` head terminator (or a size/time cap).
///
/// The per-read timeout shrinks toward an overall [`READ_TIMEOUT`]
/// deadline, so slow-loris clients (one byte per read, each just under
/// the per-read limit) still get cut off at the deadline with a
/// `TimedOut` error rather than dripping forever.
fn read_head(stream: &mut TcpStream) -> io::Result<Vec<u8>> {
    let deadline = std::time::Instant::now() + READ_TIMEOUT;
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 1024];
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request head deadline exceeded",
            ));
        }
        // set_read_timeout rejects a zero Duration; the guard above
        // keeps `remaining` positive.
        stream.set_read_timeout(Some(remaining))?;
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "request head deadline exceeded",
                ));
            }
            Err(e) => return Err(e),
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before request head",
            ));
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            return Ok(head);
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
    }
}

/// Parse `METHOD /path HTTP/1.x` out of the request head.
fn parse_request(head: &[u8]) -> Option<Request> {
    let text = String::from_utf8_lossy(head);
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/") {
        return None;
    }
    // Strip any query string; the endpoints here take no parameters.
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return None;
    }
    Some(Request { method, path })
}

/// Write the status line, minimal headers, and body.
fn write_response(stream: &mut TcpStream, r: &Response) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        r.status,
        r.reason(),
        r.content_type,
        r.body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&r.body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_and_shuts_down() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server
                .serve(&stop2, |req| match req.path.as_str() {
                    "/metrics" => Response::ok(PROMETHEUS_CONTENT_TYPE, "x_total 1\n"),
                    "/health" => Response::json("{\"ok\": true}"),
                    _ => Response::not_found(),
                })
                .unwrap();
        });

        let got = roundtrip(addr, "GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");
        assert!(
            got.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            "{got}"
        );
        assert!(got.ends_with("x_total 1\n"), "{got}");

        let got = roundtrip(addr, "GET /health?verbose=1 HTTP/1.1\r\n\r\n");
        assert!(got.contains("application/json"), "{got}");
        assert!(got.ends_with("{\"ok\": true}"), "{got}");

        let got = roundtrip(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 404 Not Found\r\n"), "{got}");

        let got = roundtrip(addr, "POST /metrics HTTP/1.1\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 405"), "{got}");

        let got = roundtrip(addr, "garbage\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 400"), "{got}");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn abusive_clients_get_statuses_not_hung_threads() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server.serve(&stop2, |_| Response::json("{}")).unwrap();
        });

        // A half-open socket: the client sends a partial request line and
        // then goes silent. The server must answer 408 at the overall
        // deadline instead of waiting on the connection forever.
        let started = std::time::Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET /metrics HT").unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{out}");
        assert!(
            started.elapsed() < READ_TIMEOUT + Duration::from_secs(3),
            "half-open connection held the listener for {:?}",
            started.elapsed()
        );

        // And with the listener back, a normal request still works.
        let got = roundtrip(addr, "GET / HTTP/1.1\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");

        // An oversized head draws 431, not an unbounded buffer.
        let mut s = TcpStream::connect(addr).unwrap();
        let filler = format!("GET / HTTP/1.1\r\nX-Filler: {}\r\n", "a".repeat(1000));
        let mut sent = 0;
        while sent <= MAX_HEAD_BYTES {
            if s.write_all(filler.as_bytes()).is_err() {
                break; // server already answered and closed
            }
            sent += filler.len();
        }
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(
            out.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{out}"
        );

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn panicking_handler_degrades_to_503_and_keeps_serving() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server
                .serve(&stop2, |req| match req.path.as_str() {
                    "/boom" => panic!("render path bug"),
                    _ => Response::json("{}"),
                })
                .unwrap();
        });

        // Silence the default panic hook's backtrace spam for the
        // deliberate panic below; restore it afterwards.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let got = roundtrip(addr, "GET /boom HTTP/1.1\r\n\r\n");
        std::panic::set_hook(prev_hook);
        assert!(
            got.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{got}"
        );

        // The serving thread survived: the next request still works.
        let got = roundtrip(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert!(got.starts_with("HTTP/1.1 200 OK\r\n"), "{got}");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap();
    }

    #[test]
    fn a_parked_server_answers_at_once_when_woken() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server.serve(&stop2, |_| Response::json("{}")).unwrap();
        });
        let serving = handle.thread().clone();

        // Each request reaches a server parked on an empty queue; left
        // alone it would answer on its next tick, 20 trips ≈ 20 ticks.
        let trips = 20;
        let started = std::time::Instant::now();
        for _ in 0..trips {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            serving.unpark();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        }
        let took = started.elapsed();
        assert!(
            took < ACCEPT_POLL * trips / 2,
            "{trips} woken round trips took {took:?}"
        );

        stop.store(true, Ordering::SeqCst);
        serving.unpark();
        handle.join().unwrap();
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn only_an_unusable_listener_ends_serving() {
        // The numbers are Linux's; the kinds std gives some of them
        // confirm they are the right ones.
        let err = io::Error::from_raw_os_error;
        assert_eq!(err(103).kind(), io::ErrorKind::ConnectionAborted);
        assert_eq!(err(100).kind(), io::ErrorKind::NetworkDown);
        assert_eq!(err(101).kind(), io::ErrorKind::NetworkUnreachable);
        assert_eq!(err(113).kind(), io::ErrorKind::HostUnreachable);
        assert_eq!(err(12).kind(), io::ErrorKind::OutOfMemory);
        assert_eq!(err(22).kind(), io::ErrorKind::InvalidInput);
        for (name, code) in [
            ("ENETDOWN", 100),
            ("EPROTO", 71),
            ("ENOPROTOOPT", 92),
            ("EHOSTDOWN", 112),
            ("ENONET", 64),
            ("EHOSTUNREACH", 113),
            ("EOPNOTSUPP", 95),
            ("ENETUNREACH", 101),
            ("ECONNABORTED", 103),
            ("EPERM", 1),
            ("EMFILE", 24),
            ("ENFILE", 23),
            ("ENOBUFS", 105),
            ("ENOMEM", 12),
        ] {
            assert!(!listener_unusable(&err(code)), "{name} is retried");
        }
        for (name, code) in [
            ("EBADF", 9),
            ("EFAULT", 14),
            ("EINVAL", 22),
            ("ENOTSOCK", 88),
        ] {
            assert!(listener_unusable(&err(code)), "{name} ends serving");
        }
    }

    #[test]
    fn parse_request_shapes() {
        let req = parse_request(b"GET /report.json?x=1 HTTP/1.1\r\nHost: h\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/report.json");
        assert!(parse_request(b"GET\r\n\r\n").is_none());
        assert!(parse_request(b"GET /x SMTP/1.0\r\n\r\n").is_none());
        assert!(parse_request(b"GET relative HTTP/1.0\r\n\r\n").is_none());
    }
}
