//! The one HTTP/1.1 client the self-test, the integration tests, the soak
//! and the examples drive the server with: a keep-alive [`Conn`] whose
//! carry buffer splits responses that arrive together, pipelined
//! send/receive with `503` retry, and the one-shot [`request`] on top.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::json::{self, Json};

/// One response off the wire.
#[derive(Debug, Clone)]
pub struct Reply {
    pub status: u16,
    /// Status line and headers.
    pub head: String,
    pub body: String,
}

impl Reply {
    /// The body, parsed.
    ///
    /// # Errors
    /// A non-JSON body.
    pub fn json(&self) -> io::Result<Json> {
        json::parse(&self.body).map_err(|e| invalid(format!("non-JSON body: {e}")))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

/// One request, ready to write on its own or pipelined behind others.
pub fn encode(method: &str, path: &str, body: &str) -> String {
    encode_with(method, path, body, "")
}

fn encode_with(method: &str, path: &str, body: &str, headers: &str) -> String {
    let len = body.len();
    format!(
        "{method} {path} HTTP/1.1\r\nHost: apex\r\n{headers}Content-Length: {len}\r\n\r\n{body}"
    )
}

/// A keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    /// Bytes read past the last response returned.
    carry: Vec<u8>,
}

impl Conn {
    /// # Errors
    /// Connect and socket-option failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            carry: Vec::new(),
        })
    }

    /// Writes `reqs` as one segment: the server reads them as a pipelined
    /// burst and answers in order.
    ///
    /// # Errors
    /// The write failing.
    pub fn send(&mut self, reqs: &[String]) -> io::Result<()> {
        self.stream.write_all(reqs.concat().as_bytes())
    }

    /// Reads the next response (head + `Content-Length` body).
    ///
    /// # Errors
    /// `UnexpectedEof` when the server closed the connection before
    /// sending any of it; `InvalidData` for a malformed or cut response.
    pub fn recv(&mut self) -> io::Result<Reply> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&self.carry[..end]).into_owned();
                let field = |prefix: &str| head.lines().find_map(|l| l.strip_prefix(prefix));
                let status = head.split_whitespace().nth(1).and_then(|s| s.parse().ok());
                let len = field("Content-Length: ").and_then(|v| v.trim().parse::<usize>().ok());
                let (Some(status), Some(len)) = (status, len) else {
                    return Err(invalid(format!("malformed response head {head:?}")));
                };
                let start = end + 4;
                if self.carry.len() >= start + len {
                    let body = String::from_utf8_lossy(&self.carry[start..start + len]).into();
                    self.carry.drain(..start + len);
                    return Ok(Reply { status, head, body });
                }
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(if self.carry.is_empty() {
                    ErrorKind::UnexpectedEof.into()
                } else {
                    invalid("connection closed mid-response".into())
                });
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }

    /// Reads the replies to `reqs`, just [`Conn::send`]-ed, in order. A
    /// request the server shed with `503` is re-sent after a short
    /// backoff — the documented client contract — until every one has a
    /// real answer; the connection stays open across sheds.
    ///
    /// # Errors
    /// IO failures, malformed or non-JSON responses, and a shard still
    /// shedding after [`MAX_SHED_ROUNDS`] re-sends.
    pub fn recv_all(&mut self, reqs: &[String]) -> io::Result<Vec<(u16, Json)>> {
        let mut out: Vec<Option<(u16, Json)>> = vec![None; reqs.len()];
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        let mut resends = 0;
        while !pending.is_empty() {
            let mut shed = Vec::new();
            for &i in &pending {
                let reply = self.recv()?;
                match reply.status {
                    503 => shed.push(i),
                    status => out[i] = Some((status, reply.json()?)),
                }
            }
            if !shed.is_empty() {
                if resends == MAX_SHED_ROUNDS {
                    let n = shed.len();
                    return Err(invalid(format!("{n} requests shed {resends} times")));
                }
                resends += 1;
                std::thread::sleep(Duration::from_millis(2));
                self.send(&shed.iter().map(|&i| reqs[i].clone()).collect::<Vec<_>>())?;
            }
            pending = shed;
        }
        Ok(out.into_iter().flatten().collect())
    }

    /// One request and its reply, as sent: a `503` is returned like any
    /// other status, for the caller's model to reject.
    ///
    /// # Errors
    /// A human-readable message on IO failures or a malformed response.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Json), String> {
        self.exchange(encode(method, path, body))
    }

    fn exchange(&mut self, req: String) -> Result<(u16, Json), String> {
        let exchange = || {
            self.send(&[req])?;
            let reply = self.recv()?;
            Ok::<_, io::Error>((reply.status, reply.json()?))
        };
        exchange().map_err(|e| e.to_string())
    }
}

/// Re-sends [`Conn::recv_all`] allows a shed request (2 ms apart) before
/// it reports the shard as stuck instead of hanging its caller.
pub const MAX_SHED_ROUNDS: u32 = 1_000;

/// Fires one request on its own connection (`Connection: close`) and
/// parses the JSON response body.
///
/// # Errors
/// A human-readable message on connect/IO failures, non-HTTP responses,
/// or non-JSON bodies.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<(u16, Json), String> {
    request_with_token(addr, method, path, body, None)
}

/// [`request`] with an optional bearer token (`Authorization: Bearer …`)
/// for the admin plane.
///
/// # Errors
/// Same contract as [`request`].
pub fn request_with_token(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    token: Option<&str>,
) -> Result<(u16, Json), String> {
    let auth = token
        .map(|t| format!("Authorization: Bearer {t}\r\n"))
        .unwrap_or_default();
    let req = encode_with(
        method,
        path,
        body.unwrap_or(""),
        &format!("{auth}Connection: close\r\n"),
    );
    Conn::connect(addr)
        .map_err(|e| e.to_string())?
        .exchange(req)
}
