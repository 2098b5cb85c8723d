//! The HTTP/1.1 wire layer over `std::net` — no async runtime, per the
//! repo's offline std-only policy: request parsing and response
//! serialization. The server that drives them is the shard layer's
//! nonblocking accept/dispatch loop ([`crate::shard::serve_sharded`]).
//!
//! There is one request parser, [`parse_buffered`]: incremental over a
//! connection-owned buffer, re-invoked as bytes arrive and across
//! keep-alive requests. Request bodies, header lines, and header counts
//! are capped, and the caller enforces a wall-clock deadline per request
//! ([`REQUEST_DEADLINE`]), so a slow-dripping client cannot hold a
//! connection slot indefinitely. Malformed requests map to proper 4xx /
//! 501 statuses; so does ambiguous framing — a `Content-Length` that is
//! not one run of digits, or two that disagree, is 400. The parser keeps
//! the version's connection default: an HTTP/1.0 request closes unless
//! it asks for keep-alive.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// Largest accepted request body.
pub(crate) const MAX_BODY: usize = 1 << 20;
/// Largest accepted request line / header line.
pub(crate) const MAX_LINE: usize = 8 << 10;
/// Most header lines accepted per request.
pub(crate) const MAX_HEADERS: usize = 100;
/// Per-socket write timeout (bounds each response write).
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Wall-clock budget for reading one whole request; the event loop checks
/// it on every scan, so a byte-dripping client is cut off once it lapses.
pub(crate) const REQUEST_DEADLINE: Duration = Duration::from_secs(20);

/// A parsed request: method, path, headers, and raw body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method ("GET", "POST", …).
    pub method: String,
    /// Request path, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased, values trimmed.
    /// An HTTP/1.0 request that does not ask for keep-alive reads
    /// `connection: close` first: that is its version's default.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// A header-less request (tests and in-process routing).
    pub fn new(method: &str, path: &str, body: &str) -> Self {
        Self {
            method: method.to_string(),
            path: path.to_string(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    /// The body as UTF-8 text (`None` when it is not valid UTF-8).
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }

    /// The first header named `name` (ASCII case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// A response to write: status code plus a JSON body. `shutdown` asks the
/// server to stop accepting after this response is delivered.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body (always served as `application/json`).
    pub body: String,
    /// When true, the server begins graceful shutdown after responding.
    pub shutdown: bool,
    /// Seconds for a `Retry-After` header (backpressure 503s carry one).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            shutdown: false,
            retry_after: None,
        }
    }

    /// The backpressure response: 503 with `Retry-After: retry_secs` —
    /// what a shard whose work queue is full sheds load with.
    pub fn unavailable(retry_secs: u64) -> Self {
        Self {
            status: 503,
            body: "{\"error\":\"shard overloaded, retry later\"}".to_string(),
            shutdown: false,
            retry_after: Some(retry_secs),
        }
    }
}

pub(crate) fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Appends one serialized response to `out`; `keep_alive` picks the
/// `Connection:` header the sharded server's connection-migration loop
/// relies on. Split from the write so shard workers can accumulate the
/// responses to a pipelined burst and flush them in a single syscall.
pub(crate) fn append_response(out: &mut Vec<u8>, resp: &Response, keep_alive: bool) {
    let retry = resp
        .retry_after
        .map(|secs| format!("Retry-After: {secs}\r\n"))
        .unwrap_or_default();
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{retry}Connection: {}\r\n\r\n",
        resp.status,
        status_text(resp.status),
        resp.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    out.reserve(head.len() + resp.body.len());
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(resp.body.as_bytes());
}

/// Writes one response; head and body in ONE write: with TCP_NODELAY a
/// separate head write is a separate packet, and on the serving hot
/// path the extra syscall + segment per response is measurable.
pub(crate) fn write_response_conn(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut wire = Vec::new();
    append_response(&mut wire, resp, keep_alive);
    stream.write_all(&wire)
}

/// What [`parse_buffered`] made of the bytes accumulated so far.
#[derive(Debug)]
pub(crate) enum BufParse {
    /// No complete request yet — keep reading.
    NeedMore,
    /// Malformed beyond repair; answer with this status and close.
    Bad(u16),
    /// One complete request, consuming this many bytes of the buffer.
    Complete(Request, usize),
}

/// Incremental request parsing over a connection-owned buffer,
/// re-invoked as bytes arrive and across keep-alive requests (leftover
/// pipelined bytes stay in the buffer).
pub(crate) fn parse_buffered(buf: &[u8]) -> BufParse {
    // Head = everything through the first blank line.
    let Some(head_len) = find_blank_line(buf) else {
        // A head that cannot fit the caps will never become valid.
        return if buf.len() > MAX_LINE * (MAX_HEADERS + 2) {
            BufParse::Bad(400)
        } else {
            BufParse::NeedMore
        };
    };
    let head = &buf[..head_len];
    let mut lines = head.split(|&b| b == b'\n').map(|l| {
        let l = l.strip_suffix(b"\r").unwrap_or(l);
        String::from_utf8_lossy(l).into_owned()
    });

    // Request line.
    let Some(request_line) = lines.next() else {
        return BufParse::Bad(400);
    };
    if request_line.len() > MAX_LINE {
        return BufParse::Bad(400);
    }
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m.to_ascii_uppercase(), t.to_string(), v),
        _ => return BufParse::Bad(400),
    };
    if !version.starts_with("HTTP/1.") {
        return BufParse::Bad(501);
    }
    let path = target.split('?').next().unwrap_or("").to_string();

    // Headers: Content-Length frames the body; the rest (notably
    // Authorization) is kept for the router.
    let mut content_length = None;
    let mut headers: Vec<(String, String)> = Vec::new();
    for (count, line) in lines.enumerate() {
        if count >= MAX_HEADERS || line.len() > MAX_LINE {
            return BufParse::Bad(400);
        }
        if line.is_empty() {
            continue; // the terminating blank line
        }
        let Some((name, value)) = line.split_once(':') else {
            return BufParse::Bad(400);
        };
        let name = name.trim();
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // One value, 1*DIGIT (RFC 9112 §6.3): a sign, a list or two
            // different lengths leave the body's end ambiguous.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return BufParse::Bad(400);
            }
            let n = value.parse::<usize>().unwrap_or(usize::MAX);
            if content_length.is_some_and(|seen| seen != n) {
                return BufParse::Bad(400);
            }
            if n > MAX_BODY {
                return BufParse::Bad(413);
            }
            content_length = Some(n);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return BufParse::Bad(501);
        }
        headers.push((name.to_ascii_lowercase(), value.to_string()));
    }

    // HTTP/1.0 closes after the response unless the client asks for
    // keep-alive (RFC 9112 §9.3); HTTP/1.1 stays open unless it says close.
    let keep_alive = |(n, v): &(String, String)| {
        n == "connection"
            && v.split(',')
                .any(|t| t.trim().eq_ignore_ascii_case("keep-alive"))
    };
    if version == "HTTP/1.0" && !headers.iter().any(keep_alive) {
        headers.insert(0, ("connection".into(), "close".into()));
    }

    let total = head_len + content_length.unwrap_or(0);
    if buf.len() < total {
        return BufParse::NeedMore;
    }
    BufParse::Complete(
        Request {
            method,
            path,
            headers,
            body: buf[head_len..total].to_vec(),
        },
        total,
    )
}

/// Index just past the first `\r\n\r\n` (or lone `\n\n`) head terminator.
fn find_blank_line(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(rel) = buf[i..].iter().position(|&b| b == b'\n') {
        let at = i + rel;
        let rest = &buf[at + 1..];
        if rest.first() == Some(&b'\n') {
            return Some(at + 2);
        }
        if rest.first() == Some(&b'\r') && rest.get(1) == Some(&b'\n') {
            return Some(at + 3);
        }
        i = at + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{serve_sharded, ServeConfig, ShardServerHandle, ShardSet};
    use crate::state::ServerState;
    use apex_core::EngineConfig;
    use apex_data::{Attribute, Dataset, Domain, Schema};
    use std::io::Read;
    use std::sync::Arc;

    fn complete(raw: &str) -> Request {
        match parse_buffered(raw.as_bytes()) {
            BufParse::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len());
                req
            }
            other => panic!("expected a complete request, got {other:?}"),
        }
    }

    fn bad_status(raw: &str) -> u16 {
        match parse_buffered(raw.as_bytes()) {
            BufParse::Bad(status) => status,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    /// A one-shard in-memory server over an empty one-attribute dataset,
    /// with `clock` as its time source.
    fn one_shard_server(addr: &str, clock: Arc<dyn crate::Clock>) -> ShardServerHandle {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange { min: 0, max: 7 },
        )])
        .unwrap();
        let set = ShardSet::build(1, |_| {
            ServerState::builder(4)
                .dataset(
                    "demo",
                    Dataset::empty(schema.clone()),
                    EngineConfig::default(),
                )
                .clock(clock.clone())
        });
        serve_sharded(addr, Arc::new(set), ServeConfig::default()).unwrap()
    }

    /// One scripted `Connection: close` exchange over a real socket.
    fn roundtrip(handle: &ShardServerHandle, raw: &str) -> String {
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn parses_and_answers_a_post() {
        let req = complete("POST /x?q=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/x"));
        assert_eq!(req.body_str(), Some("hello"));
        // A body still in flight is not a request yet; pipelined bytes
        // past the declared length stay in the buffer.
        let partial = b"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel";
        assert!(matches!(parse_buffered(partial), BufParse::NeedMore));
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        match parse_buffered(two) {
            BufParse::Complete(req, consumed) => {
                assert_eq!(req.path, "/a");
                assert_eq!(&two[consumed..], b"GET /b HTTP/1.1\r\n\r\n");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn headers_reach_the_handler_case_insensitively() {
        let req = complete("GET / HTTP/1.1\r\nAUTHORIZATION:  Bearer tok \r\n\r\n");
        assert_eq!(req.header("Authorization"), Some("Bearer tok"));
        assert_eq!(req.header("authorization"), Some("Bearer tok"));
    }

    #[test]
    fn malformed_requests_get_4xx() {
        assert_eq!(bad_status("NONSENSE\r\n\r\n"), 400);
        assert_eq!(bad_status("GET / HTTP/2\r\n\r\n"), 501);
        assert_eq!(
            bad_status("POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n"),
            413
        );
        assert_eq!(
            bad_status("POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n"),
            400
        );
        assert_eq!(
            bad_status("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            501
        );
        // And the server answers the refusal on the wire, then closes.
        let handle = one_shard_server("127.0.0.1:0", Arc::new(crate::SystemClock::new()));
        let out = roundtrip(&handle, "NONSENSE\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        let out = roundtrip(&handle, "GET / HTTP/2\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 501 "), "{out}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn content_length_is_one_run_of_digits_with_one_value() {
        let post = |headers: &str| format!("POST /x HTTP/1.1\r\n{headers}\r\nhello");
        for bad in [
            "Content-Length: +5\r\n",
            "Content-Length: -5\r\n",
            "Content-Length: 0x5\r\n",
            "Content-Length: 5 5\r\n",
            "Content-Length: 5, 5\r\n",
            "Content-Length:\r\n",
            "Content-Length: 5\r\nContent-Length: 4\r\n",
            "Content-Length: 5\r\ncontent-length: 50\r\n",
        ] {
            assert_eq!(bad_status(&post(bad)), 400, "{bad:?}");
        }
        // Repeats of one value frame the body as one would, and so do
        // leading zeros; a run of digits too long for any body is 413.
        for good in [
            "Content-Length: 5\r\nContent-Length: 5\r\n",
            "Content-Length: 005\r\n",
        ] {
            assert_eq!(complete(&post(good)).body_str(), Some("hello"), "{good:?}");
        }
        assert_eq!(
            bad_status(&post("Content-Length: 99999999999999999999999\r\n")),
            413
        );
        // And on the wire: the refusal is answered, then the socket closes.
        let handle = one_shard_server("127.0.0.1:0", Arc::new(crate::SystemClock::new()));
        let out = roundtrip(&handle, &post("Content-Length: +5\r\n"));
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn http_1_0_closes_unless_it_asks_for_keep_alive() {
        let handle = one_shard_server("127.0.0.1:0", Arc::new(crate::SystemClock::new()));
        // No Connection header: answered with `Connection: close`, then
        // the server closes the socket.
        let mut conn = crate::client::Conn::connect(handle.addr()).unwrap();
        conn.send(&["GET /healthz HTTP/1.0\r\n\r\n".into()])
            .unwrap();
        let reply = conn.recv().unwrap();
        assert_eq!(reply.status, 200, "{reply:?}");
        assert!(reply.head.contains("Connection: close"), "{reply:?}");
        let closed = conn.recv().unwrap_err();
        assert_eq!(closed.kind(), std::io::ErrorKind::UnexpectedEof, "{closed}");
        // Asking for keep-alive keeps the connection for the next request,
        // whichever way the token is spelled.
        let mut conn = crate::client::Conn::connect(handle.addr()).unwrap();
        for connection in ["keep-alive", "Keep-Alive", "foo, keep-alive"] {
            let raw = format!("GET /healthz HTTP/1.0\r\nConnection: {connection}\r\n\r\n");
            conn.send(&[raw]).unwrap();
            let reply = conn.recv().unwrap();
            assert_eq!(reply.status, 200, "{reply:?}");
            assert!(reply.head.contains("Connection: keep-alive"), "{reply:?}");
        }
        // HTTP/1.1 without the header stays open as before.
        conn.send(&["GET /healthz HTTP/1.1\r\n\r\n".into()])
            .unwrap();
        let reply = conn.recv().unwrap();
        assert!(reply.head.contains("Connection: keep-alive"), "{reply:?}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn header_count_is_capped() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..200 {
            raw.push_str(&format!("X-Pad-{i}: 1\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(bad_status(&raw), 400);
    }

    /// A clock that panics: the one injectable seam a request handler
    /// calls into, so a handler panic needs no production hook.
    #[derive(Debug)]
    struct BrokenClock;

    impl crate::Clock for BrokenClock {
        fn now_millis(&self) -> u64 {
            panic!("boom")
        }
    }

    #[test]
    fn handler_panic_becomes_500() {
        let handle = one_shard_server("127.0.0.1:0", Arc::new(BrokenClock));
        let body = "{\"dataset\":\"demo\",\"budget\":0.5}";
        let open = format!(
            "POST /v1/sessions HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let out = roundtrip(&handle, &open);
        assert!(out.starts_with("HTTP/1.1 500 "), "{out}");
        // The worker survived the panic and still serves.
        let out = roundtrip(&handle, &open);
        assert!(out.starts_with("HTTP/1.1 500 "), "{out}");
        let out = roundtrip(
            &handle,
            "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(out.starts_with("HTTP/1.1 200 "), "{out}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn wildcard_bind_still_shuts_down() {
        // The event loop polls its stop flag, so a 0.0.0.0 listener needs
        // no connectable address to be woken for shutdown.
        let handle = one_shard_server("0.0.0.0:0", Arc::new(crate::SystemClock::new()));
        handle.stop();
        handle.join();
    }

    #[test]
    fn stop_is_graceful_and_idempotent() {
        let handle = one_shard_server("127.0.0.1:0", Arc::new(crate::SystemClock::new()));
        handle.stop();
        handle.stop();
        handle.join();
    }
}
