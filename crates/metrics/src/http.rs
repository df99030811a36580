//! Minimal dependency-free HTTP plumbing shared by the exposition
//! endpoint ([`MetricsServer`]) and the emulation-as-a-service daemon
//! (`dssoc-serve`).
//!
//! This is deliberately not a web framework: a leader/followers pool of
//! threads that each block in `accept` themselves and serve the one
//! request (`Connection: close`) of the connection they take, bounded
//! request parsing (request line, headers, `Content-Length` body), and
//! a plain [`Response`] writer. A thread that takes a connection first
//! makes sure another thread is still accepting (spawning one only if
//! it was the last), so a blocked handler — a long-poll or an event
//! stream — never stalls other clients; afterwards it goes back to
//! `accept`, or exits if enough threads already wait there. Binding
//! port 0 picks a free port; [`HttpServer::addr`] reports what was
//! bound. Dropping the server closes the port (self-connects unblock
//! the waiting accepts) while in-flight requests finish.
//!
//! A tiny blocking client ([`request`]) rounds the module out so the
//! CLI's `submit` subcommand and the integration tests need no external
//! HTTP dependency either.
//!
//! [`MetricsServer`]: crate::server::MetricsServer

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Per-connection hardening limits: how much, and for how long, one
/// client may occupy a connection thread.
///
/// The pre-existing per-read timeout alone is not enough: a slow-loris
/// client trickling one byte every second resets it forever and pins
/// the thread. [`HttpLimits::request_deadline`] is the fix — an overall
/// wall-clock budget for reading one complete request, enforced across
/// reads; crossing it answers `408 Request Timeout`. Writes get the
/// per-I/O timeout too, so a client that stops reading the response
/// can't pin the thread either.
#[derive(Debug, Clone)]
pub struct HttpLimits {
    /// Total wall-clock budget for reading one complete request.
    pub request_deadline: Duration,
    /// Per-socket-operation (read and write) timeout.
    pub io_timeout: Duration,
    /// Largest accepted request head (request line + headers).
    pub max_head_bytes: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            request_deadline: Duration::from_secs(10),
            io_timeout: Duration::from_secs(2),
            max_head_bytes: 16 * 1024,
            max_body_bytes: 4 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, `DELETE`, ...).
    pub method: String,
    /// Decoded path without the query string (e.g. `/jobs/3`).
    pub path: String,
    /// Query parameters in request order (`?wait_ms=500`).
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in request order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was given).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Path segments, skipping empty ones (`/jobs/3/result` gives
    /// `["jobs", "3", "result"]`).
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// Streaming-response producer: called once with a [`ChunkSink`] after
/// the response head is written; every [`ChunkSink::send`] becomes one
/// HTTP chunk on the wire. `Fn` (not `FnOnce`) keeps [`Response`]
/// cloneable and handler-shareable.
pub type StreamFn = dyn Fn(&mut ChunkSink) + Send + Sync;

/// One HTTP response to write back.
#[derive(Clone)]
pub struct Response {
    /// Status code (reason phrase derived via [`status_reason`]).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body (ignored when `streamer` is set).
    pub body: Vec<u8>,
    /// When set, the response is sent `Transfer-Encoding: chunked` and
    /// this producer writes the body incrementally (long-poll event
    /// streams). `body` is ignored.
    pub streamer: Option<Arc<StreamFn>>,
}

impl std::fmt::Debug for Response {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Response")
            .field("status", &self.status)
            .field("content_type", &self.content_type)
            .field("body", &self.body)
            .field("streamer", &self.streamer.as_ref().map(|_| "<stream>"))
            .finish()
    }
}

impl Response {
    /// A response with an explicit status, content type, and body.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
            streamer: None,
        }
    }

    /// A chunked streaming response: `producer` is invoked on the
    /// connection thread after the head is written and emits body
    /// chunks through the [`ChunkSink`] until it returns (the chunked
    /// terminator is written for it). Client disconnects surface as
    /// `false` from [`ChunkSink::send`] — producers should stop then.
    pub fn stream(
        status: u16,
        content_type: &str,
        producer: impl Fn(&mut ChunkSink) + Send + Sync + 'static,
    ) -> Response {
        Response {
            status,
            content_type: content_type.to_string(),
            body: Vec::new(),
            streamer: Some(Arc::new(producer)),
        }
    }

    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "text/plain", body.into().into_bytes())
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::new(status, "application/json", body.into().into_bytes())
    }

    /// The stock `404 Not Found` response.
    pub fn not_found() -> Response {
        Response::text(404, "not found\n")
    }

    /// The stock `405 Method Not Allowed` response.
    pub fn method_not_allowed() -> Response {
        Response::text(405, "method not allowed\n")
    }
}

/// Reason phrase for the status codes this workspace emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Request handler shared across connection threads.
pub type Handler = dyn Fn(&Request) -> Response + Send + Sync;

/// Most pool threads left blocked in `accept` between requests. A
/// thread that finishes its request while this many are already
/// waiting exits instead of rejoining. Bursts still get one thread per
/// concurrent connection; only the idle cache is bounded.
const IDLE_CAP: usize = 4;

/// Handle to a running HTTP endpoint; dropping it shuts the endpoint
/// down (in-flight connection threads finish their one request).
pub struct HttpServer {
    addr: SocketAddr,
    pool: Arc<Pool>,
}

/// What every pool thread shares.
struct Pool {
    name: String,
    handler: Arc<Handler>,
    limits: HttpLimits,
    state: Mutex<PoolState>,
    /// Signalled when a thread leaves the accepting set after shutdown.
    left: Condvar,
}

struct PoolState {
    /// The listener; `None` once the server is dropped. A thread holds
    /// its own clone only while it accepts, so the port closes as soon
    /// as the last accepting thread lets go, whatever handlers still run.
    listener: Option<Arc<TcpListener>>,
    /// Threads in (or on their way into) `accept`, each holding a clone
    /// of `listener`.
    accepting: usize,
}

impl Pool {
    fn state(&self) -> MutexGuard<'_, PoolState> {
        // Every update is one field write, so a poisoned guard still
        // holds a consistent state.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Starts one more pool thread. It takes over the `accepting` slot
    /// and the listener clone it is handed; if the spawn fails, the
    /// clone is dropped with the closure and the caller gives the slot
    /// back.
    fn spawn(self: &Arc<Self>, listener: Arc<TcpListener>) -> std::io::Result<()> {
        let pool = Arc::clone(self);
        std::thread::Builder::new()
            .name(self.name.clone())
            .spawn(move || serve_connections(&pool, listener))
            .map(drop)
    }
}

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and dispatches every request
    /// to `handler` until dropped. `name` labels the server's threads.
    pub fn start<A: ToSocketAddrs>(
        name: &str,
        addr: A,
        handler: Arc<Handler>,
    ) -> std::io::Result<HttpServer> {
        Self::start_with_limits(name, addr, handler, HttpLimits::default())
    }

    /// [`Self::start`] with explicit connection-hardening limits.
    pub fn start_with_limits<A: ToSocketAddrs>(
        name: &str,
        addr: A,
        handler: Arc<Handler>,
        limits: HttpLimits,
    ) -> std::io::Result<HttpServer> {
        let listener = Arc::new(TcpListener::bind(addr)?);
        let local = listener.local_addr()?;
        let pool = Arc::new(Pool {
            name: name.to_string(),
            handler,
            limits,
            state: Mutex::new(PoolState { listener: Some(Arc::clone(&listener)), accepting: 1 }),
            left: Condvar::new(),
        });
        pool.spawn(listener)?;
        Ok(HttpServer { addr: local, pool })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        let mut state = self.pool.state();
        state.listener = None;
        // Wake every thread blocked in `accept`: each connection wakes
        // one, which sees the listener gone and lets go of its clone.
        // Waiting for all of them means the port is closed, and no
        // thread is left in `accept`, once `drop` returns.
        while state.accepting > 0 {
            let blocked = state.accepting;
            drop(state);
            for _ in 0..blocked {
                let _ = TcpStream::connect(self.addr);
            }
            state = self.pool.state();
            state = self
                .pool
                .left
                .wait_timeout_while(state, Duration::from_millis(100), |s| s.accepting > 0)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// One pool thread: accept a connection, make sure another thread is
/// still accepting, serve the one request, then accept again, unless
/// enough threads already wait or the server was dropped.
///
/// No thread leaves the accepting set before another is in it, so
/// handlers that block (a `?wait_ms` long-poll, a chunked stream) never
/// stop new connections from being accepted.
fn serve_connections(pool: &Arc<Pool>, mut listener: Arc<TcpListener>) {
    loop {
        let accepted = listener.accept();
        drop(listener);
        let mut state = pool.state();
        state.accepting -= 1;
        let replacement = match &state.listener {
            None => {
                // Dropped: whatever was accepted is closed unanswered.
                pool.left.notify_all();
                return;
            }
            Some(shared) if state.accepting == 0 => Some(Arc::clone(shared)),
            Some(_) => None,
        };
        state.accepting += usize::from(replacement.is_some());
        drop(state);
        if let Some(replacement) = replacement {
            if pool.spawn(replacement).is_err() {
                // Nobody accepts until this thread rejoins: connections
                // wait in the backlog meanwhile.
                pool.state().accepting -= 1;
                pool.left.notify_all();
            }
        }
        if let Ok((stream, _)) = accepted {
            serve_one(stream, pool);
        }
        let mut state = pool.state();
        match &state.listener {
            Some(shared) if state.accepting < IDLE_CAP => {
                listener = Arc::clone(shared);
                state.accepting += 1;
            }
            _ => return,
        }
    }
}

/// Reads one request from `stream`, answers it and closes the
/// connection.
fn serve_one(mut stream: TcpStream, pool: &Pool) {
    // A response is written whole, or flushed chunk by chunk when
    // streamed: Nagle's algorithm could only delay it.
    let _ = stream.set_nodelay(true);
    let response = match read_request(&mut stream, &pool.limits) {
        Ok(request) => (pool.handler)(&request),
        Err(e) => match e.response() {
            Some(response) => response,
            None => return,
        },
    };
    let _ = write_response(&mut stream, &response, &pool.limits);
}

#[derive(Debug)]
enum ParseError {
    /// The socket failed or the peer vanished mid-request; nothing to
    /// answer.
    Io,
    TooLarge,
    /// The request-read deadline elapsed before a full request arrived
    /// (a stalled or slow-loris client).
    Timeout,
    Malformed(&'static str),
}

impl ParseError {
    /// The one-line 4xx answering the rejected request; `None` when the
    /// peer is gone and there is nobody to answer.
    fn response(self) -> Option<Response> {
        match self {
            ParseError::Io => None,
            ParseError::TooLarge => Some(Response::text(413, "payload too large\n")),
            ParseError::Timeout => Some(Response::text(408, "request timeout\n")),
            ParseError::Malformed(why) => Some(Response::text(400, format!("{why}\n"))),
        }
    }
}

impl From<std::io::Error> for ParseError {
    fn from(_: std::io::Error) -> Self {
        ParseError::Io
    }
}

/// A byte source whose reads can be bounded in time: a socket, or in
/// tests a byte slice.
trait TimedRead: Read {
    /// Bounds the next reads to `timeout` each.
    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
}

impl TimedRead for TcpStream {
    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))
    }
}

/// Bytes one read asks for.
const READ_CHUNK: usize = 1024;

/// One deadline-aware read. The per-read timeout is clamped to the time
/// left on the whole-request deadline, so a client trickling bytes
/// can't reset the clock: however fast the bytes dribble in, the
/// request completes or times out by `deadline`.
fn read_some(
    stream: &mut impl TimedRead,
    chunk: &mut [u8],
    deadline: Instant,
    limits: &HttpLimits,
) -> Result<usize, ParseError> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    if remaining.is_zero() {
        return Err(ParseError::Timeout);
    }
    stream.set_timeout(limits.io_timeout.min(remaining))?;
    match stream.read(chunk) {
        Ok(n) => Ok(n),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err(ParseError::Timeout)
        }
        Err(_) => Err(ParseError::Io),
    }
}

/// Reads and parses one request (head + `Content-Length` body). What it
/// buffers is bounded by `limits`: the head by `max_head_bytes` plus one
/// read, the body by `max_body_bytes` plus one read.
fn read_request(stream: &mut impl TimedRead, limits: &HttpLimits) -> Result<Request, ParseError> {
    let deadline = Instant::now() + limits.request_deadline;
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; READ_CHUNK];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > limits.max_head_bytes {
            return Err(ParseError::TooLarge);
        }
        let n = read_some(stream, &mut chunk, deadline, limits)?;
        if n == 0 {
            return Err(ParseError::Malformed("truncated request head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.lines();
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let target = parts.next().unwrap_or("/");
    if method.is_empty() {
        return Err(ParseError::Malformed("missing request line"));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q),
        None => (target.to_string(), ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let content_length = body_length(&headers)?;
    if content_length > limits.max_body_bytes {
        return Err(ParseError::TooLarge);
    }
    // Body bytes already read past the head, then the remainder.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, deadline, limits)?;
        if n == 0 {
            return Err(ParseError::Malformed("truncated request body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, query, headers, body })
}

/// The body length the headers declare. Framing the request cannot
/// pin down is rejected rather than read as an empty body: a
/// `Content-Length` that is not a plain decimal, two that disagree, or
/// any `Transfer-Encoding` (chunked request bodies are not supported).
fn body_length(headers: &[(String, String)]) -> Result<usize, ParseError> {
    let mut length = None;
    for (name, value) in headers {
        match name.as_str() {
            "content-length" => {
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return Err(ParseError::Malformed("invalid content-length"));
                }
                // All digits: only a value past `usize` fails to parse.
                let n = value.parse::<usize>().map_err(|_| ParseError::TooLarge)?;
                if length.is_some_and(|m| m != n) {
                    return Err(ParseError::Malformed("conflicting content-length"));
                }
                length = Some(n);
            }
            "transfer-encoding" => {
                return Err(ParseError::Malformed("transfer-encoding is not supported"))
            }
            _ => {}
        }
    }
    Ok(length.unwrap_or(0))
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Chunk writer handed to a [`Response::stream`] producer. Each `send`
/// writes one `Transfer-Encoding: chunked` frame; the per-write timeout
/// still applies, so a client that stops reading fails the sink instead
/// of pinning the connection thread.
pub struct ChunkSink<'a> {
    stream: &'a mut TcpStream,
    failed: bool,
}

impl ChunkSink<'_> {
    /// Writes one chunk. Returns `false` (permanently) once the client
    /// is gone or stopped reading — the producer should return then.
    /// Empty payloads are skipped: a zero-length chunk would terminate
    /// the stream on the wire.
    pub fn send(&mut self, data: &[u8]) -> bool {
        if self.failed {
            return false;
        }
        if data.is_empty() {
            return true;
        }
        let frame = |s: &mut TcpStream| -> std::io::Result<()> {
            write!(s, "{:x}\r\n", data.len())?;
            s.write_all(data)?;
            s.write_all(b"\r\n")?;
            s.flush()
        };
        self.failed = frame(self.stream).is_err();
        !self.failed
    }

    /// True once a send failed (the client disconnected).
    pub fn is_closed(&self) -> bool {
        self.failed
    }
}

/// Writes `response` with `Content-Length` and `Connection: close` —
/// or, for [`Response::stream`], a `Transfer-Encoding: chunked` body
/// driven by the producer. The write timeout keeps a client that stops
/// reading (full receive window) from pinning the connection thread.
fn write_response(
    stream: &mut TcpStream,
    response: &Response,
    limits: &HttpLimits,
) -> std::io::Result<()> {
    stream.set_write_timeout(Some(limits.io_timeout))?;
    if let Some(streamer) = &response.streamer {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            response.status,
            status_reason(response.status),
            response.content_type,
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        let mut sink = ChunkSink { stream, failed: false };
        streamer(&mut sink);
        if sink.failed {
            return Ok(());
        }
        stream.write_all(b"0\r\n\r\n")?;
        return stream.flush();
    }
    // Head and body in one write: one segment for a small response.
    let mut wire = Vec::with_capacity(128 + response.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len()
    )?;
    wire.extend_from_slice(&response.body);
    stream.write_all(&wire)?;
    stream.flush()
}

// ---------------------------------------------------------------------------
// Blocking client
// ---------------------------------------------------------------------------

/// The status and body of a completed client request.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Response status code.
    pub status: u16,
    /// Response body as text.
    pub body: String,
}

impl ClientResponse {
    /// True for any 2xx status.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Performs one blocking HTTP request against `addr` and returns the
/// parsed status and body. `headers` are extra request headers
/// (`Host` and `Content-Length` are added automatically).
pub fn request<A: ToSocketAddrs>(
    addr: A,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&[u8]>,
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: localhost\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.map_or(0, <[u8]>::len)));
    stream.write_all(head.as_bytes())?;
    if let Some(body) = body {
        stream.write_all(body)?;
    }
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response status")
        })?;
    let (head, body) = match text.find("\r\n\r\n") {
        Some(pos) => (&text[..pos], text[pos + 4..].to_string()),
        None => (&text[..], String::new()),
    };
    let chunked =
        head.lines().any(|l| l.to_ascii_lowercase().trim() == "transfer-encoding: chunked");
    let body = if chunked { decode_chunked(&body) } else { body };
    Ok(ClientResponse { status, body })
}

/// Joins a `Transfer-Encoding: chunked` body read to connection close
/// back into the payload. Tolerant of a missing terminator (a stream
/// cut mid-flight keeps every complete chunk).
fn decode_chunked(raw: &str) -> String {
    let mut out = String::new();
    let mut rest = raw;
    while let Some(nl) = rest.find("\r\n") {
        let Ok(len) = usize::from_str_radix(rest[..nl].trim(), 16) else { break };
        if len == 0 {
            break;
        }
        let data_start = nl + 2;
        let data_end = data_start + len;
        if rest.len() < data_end {
            break; // truncated final chunk
        }
        out.push_str(&rest[data_start..data_end]);
        // Skip the CRLF that closes the chunk, if present.
        rest = rest[data_end..].strip_prefix("\r\n").unwrap_or(&rest[data_end..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Byte-level properties of the request reader, fed from byte
    /// slices: whatever arrives, it never panics, its heap stays within
    /// a bound linear in the [`HttpLimits`], and every rejection is a
    /// one-line 4xx.
    mod bytes {
        use super::*;
        use proptest::prelude::*;
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        /// Counts each thread's live heap bytes and their peak.
        struct PerThread;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static PEAK: Cell<isize> = const { Cell::new(0) };
        }

        fn note(delta: isize) {
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + delta);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }

        // SAFETY: every method forwards its arguments unchanged to `System`;
        // the counting touches no memory the allocator hands out.
        unsafe impl GlobalAlloc for PerThread {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note(layout.size() as isize);
                System.alloc(layout)
            }

            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                note(-(layout.size() as isize));
                System.dealloc(ptr, layout)
            }

            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                note(new_size as isize - layout.size() as isize);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static GLOBAL: PerThread = PerThread;

        impl TimedRead for &[u8] {
            fn set_timeout(&mut self, _: Duration) -> std::io::Result<()> {
                Ok(())
            }
        }

        /// Small limits, so generated inputs cross them.
        fn limits() -> HttpLimits {
            HttpLimits { max_head_bytes: 512, max_body_bytes: 768, ..HttpLimits::default() }
        }

        /// The heap a request may take: a head (at most `max_head_bytes`
        /// plus one read) parsed into per-line and per-parameter strings
        /// costs a small multiple of its size; the body its length
        /// plus one read, doubled by growth.
        fn heap_bound(limits: &HttpLimits) -> usize {
            64 * (limits.max_head_bytes + READ_CHUNK) + 2 * (limits.max_body_bytes + READ_CHUNK)
        }

        /// Reads `bytes` as one request and checks the properties.
        fn read(bytes: &[u8]) -> Result<Option<Request>, TestCaseError> {
            let limits = limits();
            let before = LIVE.with(Cell::get);
            PEAK.with(|peak| peak.set(before));
            let result = read_request(&mut &bytes[..], &limits);
            let peak = (PEAK.with(Cell::get) - before) as usize;
            let bound = heap_bound(&limits);
            prop_assert!(peak <= bound, "{} input bytes took {peak} heap bytes", bytes.len());
            let e = match result {
                Ok(request) => {
                    prop_assert!(request.body.len() <= limits.max_body_bytes);
                    return Ok(Some(request));
                }
                Err(e) => e,
            };
            let what = format!("{e:?}");
            let Some(response) = e.response() else {
                return Err(TestCaseError::fail(format!("a slice read failed: {what}")));
            };
            prop_assert!((400..500).contains(&response.status), "{what}: {}", response.status);
            let body = String::from_utf8(response.body).expect("reasons are text");
            prop_assert!(body.ends_with('\n') && body.lines().count() == 1, "{what}: {body:?}");
            Ok(None)
        }

        /// Fragments requests are made of, for inputs with structure.
        const TOKENS: [&[u8]; 24] = [
            b"GET",
            b"POST",
            b"delete",
            b" ",
            b"/",
            b"/jobs/3",
            b"?",
            b"&",
            b"=",
            b"wait_ms",
            b"\r\n",
            b"\n",
            b"\r\n\r\n",
            b":",
            b"Content-Length",
            b"content-length: 5",
            b"Transfer-Encoding: chunked",
            b"0",
            b"17",
            b"99999999999999999999999",
            b"x",
            b"\xff\xfe",
            b"{}",
            b"HTTP/1.1",
        ];

        /// A well-formed request and what it must parse to.
        struct Valid {
            bytes: Vec<u8>,
            method: String,
            path: String,
            query: Vec<(String, String)>,
            headers: Vec<(String, String)>,
            body: Vec<u8>,
        }

        fn valid(
            method: usize,
            segments: &[u8],
            query: &[(u8, u8)],
            headers: &[(u8, u8)],
            body: &[u8],
        ) -> Valid {
            let method = ["GET", "POST", "DELETE", "PUT"][method].to_string();
            let word = |c: u8, n: u8| (b'a' + c % 26).to_string().repeat(1 + (n % 3) as usize);
            let path: String = segments.iter().map(|&c| format!("/{}", word(c, c))).collect();
            let path = if path.is_empty() { "/".to_string() } else { path };
            let query: Vec<(String, String)> =
                query.iter().map(|&(k, v)| (word(k, v), v.to_string())).collect();
            let mut headers: Vec<(String, String)> = headers
                .iter()
                .map(|&(k, v)| (format!("x-{}", word(k, v)), v.to_string()))
                .collect();
            headers.push(("content-length".to_string(), body.len().to_string()));
            let mut text = format!("{method} {path}");
            for (i, (k, v)) in query.iter().enumerate() {
                text.push_str(&format!("{}{k}={v}", if i == 0 { '?' } else { '&' }));
            }
            text.push_str(" HTTP/1.1\r\n");
            for (k, v) in &headers {
                text.push_str(&format!("{k}: {v}\r\n"));
            }
            text.push_str("\r\n");
            let mut bytes = text.into_bytes();
            bytes.extend_from_slice(body);
            Valid { bytes, method, path, query, headers, body: body.to_vec() }
        }

        /// Applies `(kind, at, byte)` mutations: overwrite, insert or
        /// delete a byte, cut the input short, or splice in a line break
        /// or a second copy of a stretch.
        fn mutate(mut bytes: Vec<u8>, mutations: &[(u8, usize, u8)]) -> Vec<u8> {
            for &(kind, at, byte) in mutations {
                let at = at % (bytes.len() + 1);
                match kind % 6 {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 => bytes.insert(at, byte),
                    2 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    3 => bytes.truncate(at),
                    4 => {
                        bytes.splice(at..at, *b"\r\n");
                    }
                    _ => {
                        let end = (at + byte as usize).min(bytes.len());
                        let stretch = bytes[at..end].to_vec();
                        bytes.splice(at..at, stretch);
                    }
                }
            }
            bytes
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn arbitrary_bytes_are_answered_within_bounds(
                bytes in proptest::collection::vec(any::<u8>(), 0..3000),
            ) {
                read(&bytes)?;
            }

            /// Runs of fragments, up to a few hundred KB: well past the
            /// limits, so a reader that stopped enforcing them shows.
            #[test]
            fn token_soup_is_answered_within_bounds(
                picks in proptest::collection::vec((0usize..TOKENS.len(), 1usize..3000), 0..60),
            ) {
                let bytes: Vec<u8> =
                    picks.iter().flat_map(|&(i, n)| TOKENS[i].repeat(n)).collect();
                read(&bytes)?;
            }

            #[test]
            fn valid_requests_parse_and_mutants_are_answered_within_bounds(
                method in 0usize..4,
                segments in proptest::collection::vec(any::<u8>(), 0..4),
                query in proptest::collection::vec(any::<(u8, u8)>(), 0..4),
                headers in proptest::collection::vec(any::<(u8, u8)>(), 0..5),
                body in proptest::collection::vec(any::<u8>(), 0..900),
                mutations in proptest::collection::vec(any::<(u8, usize, u8)>(), 1..5),
            ) {
                let v = valid(method, &segments, &query, &headers, &body);
                let fits = v.body.len() <= limits().max_body_bytes;
                match read(&v.bytes)? {
                    Some(r) => {
                        prop_assert!(fits, "an oversized body was accepted");
                        prop_assert_eq!(&r.method, &v.method);
                        prop_assert_eq!(&r.path, &v.path);
                        prop_assert_eq!(&r.query, &v.query);
                        prop_assert_eq!(&r.headers, &v.headers);
                        prop_assert_eq!(&r.body, &v.body);
                    }
                    None => prop_assert!(!fits, "a valid request was rejected"),
                }
                read(&mutate(v.bytes, &mutations))?;
            }
        }
    }

    fn echo_server() -> HttpServer {
        let handler: Arc<Handler> = Arc::new(|req: &Request| {
            let tenant = req.header("x-tenant").unwrap_or("-").to_string();
            let wait = req.query_param("wait_ms").unwrap_or("-").to_string();
            Response::json(
                200,
                format!(
                    "{{\"method\":\"{}\",\"path\":\"{}\",\"tenant\":\"{}\",\"wait\":\"{}\",\"body_len\":{}}}",
                    req.method,
                    req.path,
                    tenant,
                    wait,
                    req.body.len()
                ),
            )
        });
        HttpServer::start("http-test", "127.0.0.1:0", handler).expect("bind")
    }

    #[test]
    fn parses_method_path_query_headers_and_body() {
        let server = echo_server();
        let resp = request(
            server.addr(),
            "POST",
            "/jobs?wait_ms=250",
            &[("X-Tenant", "alice")],
            Some(b"{\"k\":1}"),
        )
        .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body.contains("\"method\":\"POST\""), "{}", resp.body);
        assert!(resp.body.contains("\"path\":\"/jobs\""), "{}", resp.body);
        assert!(resp.body.contains("\"tenant\":\"alice\""), "{}", resp.body);
        assert!(resp.body.contains("\"wait\":\"250\""), "{}", resp.body);
        assert!(resp.body.contains("\"body_len\":7"), "{}", resp.body);
    }

    #[test]
    fn concurrent_clients_are_not_serialized() {
        let server = echo_server();
        let addr = server.addr();
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let resp =
                        request(addr, "GET", &format!("/probe/{i}"), &[], None).expect("request");
                    assert_eq!(resp.status, 200);
                    assert!(resp.body.contains(&format!("/probe/{i}")));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn oversized_body_is_rejected() {
        let server = echo_server();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /jobs HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    }

    #[test]
    fn stalled_request_gets_408_by_the_deadline() {
        let handler: Arc<Handler> = Arc::new(|_req: &Request| Response::text(200, "ok\n"));
        let limits = HttpLimits {
            request_deadline: Duration::from_millis(300),
            io_timeout: Duration::from_millis(100),
            ..HttpLimits::default()
        };
        let server =
            HttpServer::start_with_limits("http-test-loris", "127.0.0.1:0", handler, limits)
                .expect("bind");
        let started = Instant::now();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A partial request head, then silence: the per-read timeout
        // alone would wait forever if we trickled bytes, so this pins
        // the overall deadline instead.
        write!(stream, "GET /jobs HT").unwrap();
        stream.flush().unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(started.elapsed() < Duration::from_secs(2), "{:?}", started.elapsed());
    }

    #[test]
    fn byte_trickle_cannot_outlive_the_deadline() {
        let handler: Arc<Handler> = Arc::new(|_req: &Request| Response::text(200, "ok\n"));
        let limits = HttpLimits {
            request_deadline: Duration::from_millis(400),
            io_timeout: Duration::from_millis(150),
            ..HttpLimits::default()
        };
        let server =
            HttpServer::start_with_limits("http-test-trickle", "127.0.0.1:0", handler, limits)
                .expect("bind");
        let started = Instant::now();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // Keep each gap under the io timeout: only the overall deadline
        // can stop this client.
        for b in b"GET / HTTP/1.1\r\nHost: x\r\nX-Slow: 1\r\nX-Pad: 0123456789\r\n" {
            if write!(stream, "{}", *b as char).is_err() {
                break; // server already gave up on us — that's the point
            }
            let _ = stream.flush();
            std::thread::sleep(Duration::from_millis(40));
            if started.elapsed() > Duration::from_secs(3) {
                break;
            }
        }
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        let _ = stream.read_to_string(&mut out);
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        assert!(started.elapsed() < Duration::from_secs(3), "{:?}", started.elapsed());
    }

    #[test]
    fn chunked_stream_round_trips_through_the_client() {
        let handler: Arc<Handler> = Arc::new(|_req: &Request| {
            Response::stream(200, "application/jsonl", |sink: &mut ChunkSink| {
                for i in 0..5 {
                    assert!(sink.send(format!("{{\"n\":{i}}}\n").as_bytes()));
                }
                assert!(sink.send(b""), "empty sends are no-ops, not terminators");
            })
        });
        let server = HttpServer::start("http-test-chunk", "127.0.0.1:0", handler).expect("bind");
        let resp = request(server.addr(), "GET", "/events", &[], None).unwrap();
        assert_eq!(resp.status, 200);
        let lines: Vec<&str> = resp.body.lines().collect();
        assert_eq!(lines.len(), 5, "{}", resp.body);
        assert_eq!(lines[0], "{\"n\":0}");
        assert_eq!(lines[4], "{\"n\":4}");
    }

    #[test]
    fn chunked_stream_uses_chunked_framing_on_the_wire() {
        let handler: Arc<Handler> = Arc::new(|_req: &Request| {
            Response::stream(200, "text/plain", |sink: &mut ChunkSink| {
                sink.send(b"hello ");
                sink.send(b"world");
            })
        });
        let server = HttpServer::start("http-test-wire", "127.0.0.1:0", handler).expect("bind");
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.contains("Transfer-Encoding: chunked"), "{raw}");
        assert!(!raw.contains("Content-Length"), "{raw}");
        assert!(raw.contains("6\r\nhello \r\n"), "{raw}");
        assert!(raw.contains("5\r\nworld\r\n"), "{raw}");
        assert!(raw.ends_with("0\r\n\r\n"), "terminator written: {raw}");
        assert_eq!(decode_chunked(raw.split("\r\n\r\n").nth(1).unwrap()), "hello world");
    }

    #[test]
    fn drop_closes_the_port() {
        let server = echo_server();
        let addr = server.addr();
        drop(server);
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    /// Raw request bytes in, raw response out.
    fn exchange(server: &HttpServer, raw: &[u8]) -> String {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.write_all(raw).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn ambiguous_body_framing_is_a_400() {
        let server = echo_server();
        for (raw, why) in [
            (
                &b"POST /jobs HTTP/1.1\r\nContent-Length: 12x\r\n\r\n{}"[..],
                "invalid content-length",
            ),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: -1\r\n\r\n{}", "invalid content-length"),
            (b"POST /jobs HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}", "invalid content-length"),
            (b"POST /jobs HTTP/1.1\r\nContent-Length:\r\n\r\n", "invalid content-length"),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 7\r\n\r\n{}",
                "conflicting content-length",
            ),
            (
                b"POST /jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
                "transfer-encoding is not supported",
            ),
            (
                b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n{}",
                "transfer-encoding is not supported",
            ),
        ] {
            let out = exchange(&server, raw);
            let text = String::from_utf8_lossy(raw);
            assert!(out.starts_with("HTTP/1.1 400"), "{text:?} -> {out}");
            assert!(out.ends_with(&format!("\r\n\r\n{why}\n")), "{text:?} -> {out}");
        }
    }

    #[test]
    fn consistent_content_lengths_reach_the_handler() {
        let server = echo_server();
        let empty = exchange(&server, b"POST /jobs HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        assert!(empty.starts_with("HTTP/1.1 200"), "{empty}");
        assert!(empty.contains("\"method\":\"POST\""), "{empty}");
        assert!(empty.contains("\"body_len\":0"), "{empty}");
        let repeated = exchange(
            &server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\n{}",
        );
        assert!(repeated.starts_with("HTTP/1.1 200"), "{repeated}");
        assert!(repeated.contains("\"body_len\":2"), "{repeated}");
    }

    #[test]
    fn a_content_length_past_usize_is_a_413() {
        let server = echo_server();
        let out = exchange(
            &server,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
    }

    #[test]
    fn sequential_requests_reuse_pool_threads() {
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let record = Arc::clone(&seen);
        let handler: Arc<Handler> = Arc::new(move |_req: &Request| {
            record.lock().unwrap().insert(std::thread::current().id());
            Response::text(200, "ok\n")
        });
        let server = HttpServer::start("http-test-reuse", "127.0.0.1:0", handler).expect("bind");
        for _ in 0..200 {
            assert_eq!(request(server.addr(), "GET", "/", &[], None).unwrap().status, 200);
        }
        let threads = seen.lock().unwrap().len();
        assert!(threads <= IDLE_CAP + 1, "200 sequential requests took {threads} threads");
    }

    /// Holds requests for `/hold` in the handler until opened, counting
    /// how many are held.
    #[derive(Default)]
    struct Gate {
        state: Mutex<(usize, bool)>,
        changed: Condvar,
    }

    impl Gate {
        fn hold(&self) {
            let mut state = self.state.lock().unwrap();
            state.0 += 1;
            self.changed.notify_all();
            while !state.1 {
                state = self.changed.wait(state).unwrap();
            }
        }

        fn await_held(&self, n: usize) {
            let state = self.state.lock().unwrap();
            let (state, timeout) = self
                .changed
                .wait_timeout_while(state, Duration::from_secs(10), |s| s.0 < n)
                .unwrap();
            assert!(!timeout.timed_out(), "only {} of {n} requests reached the handler", state.0);
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.changed.notify_all();
        }
    }

    fn gated_server(gate: &Arc<Gate>) -> HttpServer {
        let gate = Arc::clone(gate);
        let handler: Arc<Handler> = Arc::new(move |req: &Request| {
            if req.path == "/hold" {
                gate.hold();
            }
            Response::text(200, "ok\n")
        });
        HttpServer::start("http-test-gate", "127.0.0.1:0", handler).expect("bind")
    }

    #[test]
    fn blocked_handlers_beyond_the_idle_cap_do_not_stop_accepting() {
        let gate = Arc::new(Gate::default());
        let server = gated_server(&gate);
        let addr = server.addr();
        let held: Vec<_> = (0..IDLE_CAP + 4)
            .map(|_| std::thread::spawn(move || request(addr, "GET", "/hold", &[], None)))
            .collect();
        gate.await_held(IDLE_CAP + 4);
        let started = Instant::now();
        let resp = request(addr, "GET", "/", &[], None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        gate.open();
        for h in held {
            let resp = h.join().unwrap().unwrap();
            assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
        }
    }

    #[test]
    fn drop_with_a_request_in_flight_closes_the_port_and_still_answers() {
        let gate = Arc::new(Gate::default());
        let server = gated_server(&gate);
        let addr = server.addr();
        let pool = Arc::clone(&server.pool);
        let client = std::thread::spawn(move || request(addr, "GET", "/hold", &[], None));
        gate.await_held(1);
        drop(server);
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
        {
            let state = pool.state();
            assert!(state.listener.is_none());
            assert_eq!(state.accepting, 0, "a thread is still in accept");
        }
        gate.open();
        let resp = client.join().unwrap().unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    }

    #[test]
    fn stalled_clients_do_not_delay_others() {
        let server = echo_server();
        // Partial heads, then silence, from more clients than the pool
        // keeps idle. The accept queue is FIFO, so each is taken by a
        // pool thread before the request below.
        let stalled: Vec<TcpStream> = (0..IDLE_CAP + 2)
            .map(|_| {
                let mut s = TcpStream::connect(server.addr()).unwrap();
                s.write_all(b"GET /jobs HT").unwrap();
                s
            })
            .collect();
        let started = Instant::now();
        let resp = request(server.addr(), "GET", "/probe", &[], None).unwrap();
        assert_eq!(resp.status, 200);
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
        drop(stalled);
    }

    #[test]
    fn segments_split_path() {
        let req = Request {
            method: "GET".into(),
            path: "/jobs/17/result".into(),
            query: vec![],
            headers: vec![],
            body: vec![],
        };
        assert_eq!(req.segments(), vec!["jobs", "17", "result"]);
    }
}
