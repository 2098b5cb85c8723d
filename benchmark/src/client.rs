//! The load generator's client side: one keep-alive HTTP/1.1 connection
//! per closed-loop client, and the bookkeeping the checks need (what the
//! wire acked, per tenant).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{open_body, Catalog, Generator, Op, QueryOp, QueryType};
use crate::trace::Tracer;

/// How a client reaches the service: over a socket ([`Conn`]), or — for
/// the ladder's `router.route` rung — by calling the router in-process.
pub trait Transport {
    /// Sends one request and returns the final `(status, body)`.
    ///
    /// # Errors
    /// Transport failures (a socket's I/O errors and timeouts).
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String>;

    /// `503` backpressure sheds seen (each was retried).
    fn shed_503(&self) -> u64 {
        0
    }
}

/// What a client is left with after [`Client::hang_up`].
struct HungUp;

impl Transport for HungUp {
    fn request(&mut self, method: &str, path: &str, _: &str) -> Result<(u16, String), String> {
        Err(format!("{method} {path}: the client hung up"))
    }
}

/// One keep-alive connection with a carry buffer.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    carry: Vec<u8>,
    shed_503: u64,
}

fn open_stream(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            addr,
            stream: open_stream(addr)?,
            carry: Vec::new(),
            shed_503: 0,
        })
    }

    fn read_response(&mut self) -> Result<(u16, String), String> {
        let mut chunk = [0u8; 8192];
        loop {
            if let Some(head_end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let head_end = head_end + 4;
                let head = String::from_utf8_lossy(&self.carry[..head_end]).into_owned();
                let status: u16 = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or("response without a status code")?;
                let len: usize = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: "))
                    .and_then(|v| v.trim().parse().ok())
                    .unwrap_or(0);
                if self.carry.len() >= head_end + len {
                    let body =
                        String::from_utf8_lossy(&self.carry[head_end..head_end + len]).into_owned();
                    self.carry.drain(..head_end + len);
                    return Ok((status, body));
                }
            }
            let n = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed mid-response".into());
            }
            self.carry.extend_from_slice(&chunk[..n]);
        }
    }
}

impl Transport for Conn {
    /// Sends one request and reads its response. A `503` shed is the
    /// documented backpressure signal: wait briefly, resend, count it.
    /// After an I/O failure or timeout the connection is re-opened so
    /// the next request starts clean.
    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        loop {
            let exchange = self
                .stream
                .write_all(raw.as_bytes())
                .map_err(|e| e.to_string())
                .and_then(|()| self.read_response());
            match exchange {
                Ok((503, _)) => {
                    self.shed_503 += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.carry.clear();
                    if let Ok(s) = open_stream(self.addr) {
                        self.stream = s;
                    }
                    return Err(format!("{method} {path}: {e}"));
                }
            }
        }
    }

    fn shed_503(&self) -> u64 {
        self.shed_503
    }
}

/// Pulls `"field":<number>` out of a response body without a full JSON
/// parse — the client shares two cores with the server it measures.
pub fn extract_num(body: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\":");
    let rest = &body[body.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | 'E' | '+')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls `"field":"<text>"` out of a response body.
pub fn extract_str<'a>(body: &'a str, field: &str) -> Option<&'a str> {
    let needle = format!("\"{field}\":\"");
    let rest = &body[body.find(&needle)? + needle.len()..];
    Some(&rest[..rest.find('"')?])
}

/// The `"counts":[…]` array of an answered WCQ.
pub fn extract_counts(body: &str) -> Option<Vec<f64>> {
    let rest = &body[body.find("\"counts\":[")? + "\"counts\":[".len()..];
    rest[..rest.find(']')?]
        .split(',')
        .map(|c| c.trim().parse().ok())
        .collect()
}

/// What a timed operation was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Open,
    /// An answered query (`200`).
    Query,
    /// A denied query (`409`).
    Deny,
    Close,
    Mutate,
}

impl Class {
    pub fn span_name(self) -> &'static str {
        match self {
            Class::Open => "client.open",
            Class::Query => "client.query",
            Class::Deny => "client.deny",
            Class::Close => "client.close",
            Class::Mutate => "client.mutate",
        }
    }
}

/// One operation completed inside a measured window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub class: Class,
    /// Completion time, nanoseconds since the window opened.
    pub end_ns: u64,
    pub dur_ns: u64,
}

/// An answered WCQ kept for the accuracy check.
#[derive(Debug, Clone)]
pub struct WcqSample {
    pub tenant: usize,
    pub query: QueryOp,
    pub counts: Vec<f64>,
}

/// What the wire acked for one tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acked {
    pub epsilon: f64,
    pub denied: u64,
}

/// The mechanisms of the paper's Table 2, in report order.
pub const MECHANISMS: [&str; 4] = ["LM", "SM", "MPM", "LTM"];

/// Most answered WCQs one client keeps for the accuracy check.
const WCQ_KEEP: usize = 4_000;
/// Stale-epoch refusals tolerated for one query before it counts as failed.
const STALE_RETRY_LIMIT: usize = 50;

/// One closed-loop client: a connection, its request stream, and
/// everything it observed.
pub struct Client {
    pub index: usize,
    catalog: Arc<Catalog>,
    gen: Generator,
    conn: Box<dyn Transport + Send>,
    /// Tenant of the most recently opened session.
    tenant: usize,
    /// The open session: `(id, tenant)`.
    session: Option<(u64, usize)>,
    /// Set while a session's open failed: its queries are skipped.
    skip_session: bool,
    requests: u64,
    /// ε of the most recent answer.
    last_epsilon: f64,
    pub acked: Vec<Acked>,
    pub mech_counts: [u64; 4],
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub stale_retries: u64,
    pub wcq: Vec<WcqSample>,
    /// Rows the acked mutations inserted / deleted, and batches acked.
    pub rows_inserted: u64,
    pub rows_deleted: u64,
    pub mutations_acked: u64,
}

/// One request of the stream, sent: what it was, the tenant of the
/// session it belongs to, how it ended (`None`: failed or skipped), and
/// when it started and ended.
pub struct Step {
    pub op: Op,
    pub tenant: usize,
    pub class: Option<Class>,
    pub start: Instant,
    pub end: Instant,
}

/// What [`Client::run`] should stop at.
#[derive(Clone, Copy)]
pub enum Until {
    /// After this many whole sessions (warm-up).
    Sessions(usize),
    /// At `end`, then finish the open session unmeasured. Completion
    /// times are logged relative to `start`, shared by all clients.
    Window { start: Instant, end: Instant },
}

/// What one client completed inside one measured window.
#[derive(Default)]
pub struct WindowLog {
    pub samples: Vec<Sample>,
    /// Σε of the answers completed inside the window.
    pub epsilon: f64,
}

impl Client {
    /// Client `index` of the stream `seed` generates, over `transport`.
    pub fn new(
        index: usize,
        catalog: Arc<Catalog>,
        seed: u64,
        transport: Box<dyn Transport + Send>,
    ) -> Self {
        Self {
            index,
            gen: Generator::new(catalog.clone(), seed, index),
            acked: vec![Acked::default(); catalog.tenants.len()],
            catalog,
            conn: transport,
            tenant: 0,
            session: None,
            skip_session: false,
            requests: 0,
            last_epsilon: 0.0,
            mech_counts: [0; 4],
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            stale_retries: 0,
            wcq: Vec::new(),
            rows_inserted: 0,
            rows_deleted: 0,
            mutations_acked: 0,
        }
    }

    pub fn shed_503(&self) -> u64 {
        self.conn.shed_503()
    }

    /// Drops the transport (and whatever it holds on to — a socket, the
    /// in-process state); the ledgers stay readable.
    pub fn hang_up(&mut self) {
        self.conn = Box::new(HungUp);
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Drives the stream. Operations completing before a deadline are
    /// logged into `log` (and, when `tracer` is given, recorded as
    /// spans); a session left open at the deadline is finished
    /// unmeasured so the stream and the ledger stay whole.
    pub fn run(
        &mut self,
        until: Until,
        mut log: Option<&mut WindowLog>,
        mut tracer: Option<&mut Tracer>,
    ) {
        let mut sessions_done = 0;
        loop {
            let idle = self.session.is_none() && !self.skip_session;
            match until {
                Until::Sessions(n) if idle && sessions_done >= n => return,
                Until::Window { end, .. } if idle && Instant::now() >= end => return,
                _ => {}
            }
            let op = self.gen.next_op();
            let closes = matches!(op, Op::Close);
            let start = Instant::now();
            let class = self.execute(op);
            let end = Instant::now();
            if closes {
                sessions_done += 1;
            }
            let Some(class) = class else { continue };
            let window_start = match until {
                Until::Window { start: w, end: d } if end <= d => w,
                _ => continue,
            };
            if let Some(log) = log.as_deref_mut() {
                log.samples.push(Sample {
                    class,
                    end_ns: (end - window_start).as_nanos() as u64,
                    dur_ns: (end - start).as_nanos() as u64,
                });
                if class == Class::Query {
                    log.epsilon += self.last_epsilon;
                }
            }
            if let Some(t) = tracer.as_deref_mut() {
                let req = ((self.index as u64) << 40) | self.requests;
                t.record(class.span_name(), req, None, start, end);
            }
        }
    }

    /// Sends the next request of the stream and reports what happened (the
    /// ladder drives its in-process client one request at a time).
    pub fn step(&mut self) -> Step {
        let op = self.gen.next_op();
        let start = Instant::now();
        let class = self.execute(op.clone());
        let end = Instant::now();
        Step {
            op,
            tenant: self.tenant,
            class,
            start,
            end,
        }
    }

    /// Sends a fixed list of requests outside the generated stream (the
    /// traced run's probes), logging and tracing each.
    pub fn run_ops(&mut self, ops: Vec<Op>, log: &mut WindowLog, tracer: &mut Tracer) {
        for op in ops {
            let start = Instant::now();
            let Some(class) = self.execute(op) else {
                continue;
            };
            let end = Instant::now();
            log.samples.push(Sample {
                class,
                end_ns: 0,
                dur_ns: (end - start).as_nanos() as u64,
            });
            let req = ((self.index as u64) << 40) | self.requests;
            tracer.record(class.span_name(), req, None, start, end);
        }
    }

    /// Sends one generated request; `None` when it failed or was skipped.
    fn execute(&mut self, op: Op) -> Option<Class> {
        self.requests += 1;
        match op {
            Op::Open { tenant } => {
                self.attempted += 1;
                let body = open_body(&self.catalog.tenants[tenant]);
                match self.conn.request("POST", "/v1/sessions", &body) {
                    Ok((201, resp)) => match extract_num(&resp, "session") {
                        Some(id) => {
                            self.tenant = tenant;
                            self.session = Some((id as u64, tenant));
                            Some(Class::Open)
                        }
                        None => {
                            self.skip_session = true;
                            self.fail(format!("open: no session id in {resp}"));
                            None
                        }
                    },
                    other => {
                        self.skip_session = true;
                        self.fail(format!("open: {other:?}"));
                        None
                    }
                }
            }
            Op::Query(q) => {
                let (id, tenant) = self.session?;
                self.attempted += 1;
                self.query(id, tenant, q)
            }
            Op::Close => {
                self.skip_session = false;
                let (id, _) = self.session.take()?;
                self.attempted += 1;
                match self
                    .conn
                    .request("POST", &format!("/v1/sessions/{id}/close"), "{}")
                {
                    Ok((200, _)) => Some(Class::Close),
                    other => {
                        self.fail(format!("close: {other:?}"));
                        None
                    }
                }
            }
            Op::Mutate(m) => {
                self.attempted += 1;
                let path = format!("/v1/datasets/{}/rows", self.catalog.tenants[m.tenant].name);
                match self.conn.request("POST", &path, &m.body) {
                    Ok((200, resp)) => {
                        self.rows_inserted += extract_num(&resp, "inserted").unwrap_or(0.0) as u64;
                        self.rows_deleted += extract_num(&resp, "deleted").unwrap_or(0.0) as u64;
                        self.mutations_acked += 1;
                        Some(Class::Mutate)
                    }
                    other => {
                        self.fail(format!("mutate: {other:?}"));
                        None
                    }
                }
            }
        }
    }

    fn query(&mut self, id: u64, tenant: usize, q: QueryOp) -> Option<Class> {
        let path = format!("/v1/sessions/{id}/query");
        for _ in 0..STALE_RETRY_LIMIT {
            match self.conn.request("POST", &path, &q.body) {
                Ok((200, resp)) if !q.must_deny => {
                    let Some(eps) = extract_num(&resp, "epsilon") else {
                        self.fail(format!("query: no epsilon in {resp}"));
                        return None;
                    };
                    self.acked[tenant].epsilon += eps;
                    self.last_epsilon = eps;
                    let mech = extract_str(&resp, "mechanism").unwrap_or("");
                    if let Some(i) = MECHANISMS.iter().position(|m| *m == mech) {
                        self.mech_counts[i] += 1;
                    }
                    if q.qtype == QueryType::Wcq && self.wcq.len() < WCQ_KEEP {
                        if let Some(counts) = extract_counts(&resp) {
                            self.wcq.push(WcqSample {
                                tenant,
                                query: q,
                                counts,
                            });
                        }
                    }
                    return Some(Class::Query);
                }
                Ok((409, _)) if q.must_deny => {
                    self.acked[tenant].denied += 1;
                    return Some(Class::Deny);
                }
                // A mutation committed between this query's evaluate and
                // its commit: nothing was charged, ask again.
                Ok((400, resp)) if resp.contains("re-evaluate") => self.stale_retries += 1,
                other => {
                    self.fail(format!(
                        "query (must_deny={}): {}",
                        q.must_deny,
                        match other {
                            Ok((status, resp)) => format!("{status} {resp:.120}"),
                            Err(e) => e,
                        }
                    ));
                    return None;
                }
            }
        }
        self.fail("query: stale-epoch retry limit reached".into());
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_fields_are_extracted_without_a_json_parse() {
        let body = r#"{"status":"answered","mechanism":"SM","epsilon":0.0125,"epsilon_upper":2e-2,"answer":{"counts":[1.5,-2,3e2]}}"#;
        assert_eq!(extract_num(body, "epsilon"), Some(0.0125));
        assert_eq!(extract_num(body, "epsilon_upper"), Some(0.02));
        assert_eq!(extract_str(body, "mechanism"), Some("SM"));
        assert_eq!(extract_counts(body), Some(vec![1.5, -2.0, 300.0]));
        assert_eq!(extract_num(body, "session"), None);
        assert_eq!(extract_counts(r#"{"answer":{"bins":[1,2]}}"#), None);
    }
}
