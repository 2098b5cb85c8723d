//! The shard layer: N shard workers, each owning its own engine set,
//! ledger gate, WAL generation sequence, and snapshot directory, with
//! tenants mapped to shards by **consistent hashing** over the tenant
//! name — adding a shard moves only ~1/(N+1) of tenants, so a resharded
//! deployment migrates a bounded slice of state instead of all of it.
//!
//! One nonblocking event thread accepts connections, reads just enough
//! of each request to extract the routing key (the tenant name for
//! `POST /v1/sessions`, the shard bits of the session id for everything
//! session-scoped), then hands the connection to the owning shard's
//! work queue, bounded at [`QUEUE_CAP`] requests. A full queue sheds the
//! request with `503` + `Retry-After` — backpressure is explicit, never
//! unbounded memory. Responses default to HTTP keep-alive: after a
//! shard worker writes its response, the connection migrates back to
//! the event loop and its next request may route to a *different*
//! shard, so one client connection can reach every shard.
//!
//! Session ids encode their owning shard in the high bits
//! (`id = (shard << 40) | local`): routing a session-scoped request
//! never needs a lookup, ids stay unique across shards, and they remain
//! below 2^53 (exact in JSON doubles) for up to 2^13 shards.
//!
//! A tenant is registered only on the shard the ring routes it to, so it
//! has one ledger (one budget `B`) and one copy of its data; a request
//! that reaches another shard finds no tenant there (`404`).
//!
//! The `TranslatorCache` stays a single `Arc`-shared instance across
//! shards (its artifacts are data-independent), so cross-tenant cache
//! hits survive sharding. Recovery replays each shard's
//! WAL-over-snapshot independently and in parallel at boot, and
//! `/v1/stats` reports each dataset once, from its owning shard, plus a
//! per-shard breakdown.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{self, BufParse, Request, Response};
use crate::json::Json;
use crate::lockx;
use crate::router;
use crate::snapshot;
use crate::state::{PersistOptions, RecoverError, RecoveryReport, ServerState, ServerStateBuilder};
use crate::wire;

/// Bits the shard index occupies above the per-shard sequence number.
pub const SHARD_ID_SHIFT: u32 = 40;

/// Hard ceiling on the shard count: keeps `(shard << 40) | local` below
/// 2^53, so session ids stay exactly representable in JSON doubles.
pub const MAX_SHARDS: usize = 1 << 13;

/// Virtual nodes per shard on the hash ring. More vnodes → smoother
/// ownership split and a remap fraction closer to the ideal 1/(N+1);
/// 256 keeps the observed remap within ~1.3× of ideal while the ring
/// stays small enough (shards × 256 points) that lookups are a binary
/// search over a few KB.
const VNODES: usize = 256;

/// The session-id offset of shard `k`.
pub fn shard_id_base(shard: usize) -> u64 {
    (shard as u64) << SHARD_ID_SHIFT
}

/// The shard encoded in a session id's high bits.
pub fn session_shard(id: u64) -> usize {
    (id >> SHARD_ID_SHIFT) as usize
}

/// 64-bit FNV-1a — deterministic across processes and platforms (no
/// seed, no pointer identity), which is what makes the ring's routing
/// stable across restarts.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// MurmurHash3's 64-bit finalizer. Raw FNV-1a clusters on
/// near-identical inputs (vnode labels differ only in a digit or two),
/// which skews ring-arc lengths badly; the finalizer's avalanche
/// spreads the points uniformly. Still seedless and deterministic.
fn fmix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// The ring's point hash: FNV-1a with an avalanche finalizer.
fn point_hash(bytes: &[u8]) -> u64 {
    fmix64(fnv1a(bytes))
}

/// The consistent-hash ring mapping tenant names to shards.
///
/// Each shard contributes [`VNODES`] points at
/// `point_hash("shard-{k}/vnode-{v}")`; a tenant belongs to the first
/// point clockwise from `point_hash(name)`. Growing the ring from N to
/// N+1 shards
/// only reassigns tenants whose clockwise-first point is now one of the
/// new shard's vnodes — an expected 1/(N+1) fraction; every other
/// tenant keeps its shard, which is the property that bounds how much
/// state a reshard has to migrate.
#[derive(Debug, Clone)]
pub struct ShardRing {
    shards: usize,
    /// Sorted `(point, shard)` pairs.
    ring: Vec<(u64, usize)>,
}

impl ShardRing {
    /// A ring over `shards` shards (clamped to `1..=MAX_SHARDS`).
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        let mut ring = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards {
            for v in 0..VNODES {
                ring.push((
                    point_hash(format!("shard-{shard}/vnode-{v}").as_bytes()),
                    shard,
                ));
            }
        }
        ring.sort_unstable();
        // A 64-bit point collision between vnodes is astronomically
        // unlikely, but dedup keeps the winner deterministic (lowest
        // shard) rather than sort-order-dependent.
        ring.dedup_by_key(|e| e.0);
        Self { shards, ring }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `tenant` — a pure function of (name, shard
    /// count), identical in every process that builds the same ring.
    pub fn shard_for(&self, tenant: &str) -> usize {
        let h = point_hash(tenant.as_bytes());
        let i = match self.ring.binary_search_by_key(&h, |e| e.0) {
            Ok(i) => i,
            Err(i) => i % self.ring.len(), // wrap past the last point
        };
        self.ring[i].1
    }
}

/// A set of shard states behind one ring: shard `k` owns its engines,
/// ledger gate, WAL sequence, and `root/shard-k` directory, while all
/// shards share one translator cache.
#[derive(Debug)]
pub struct ShardSet {
    ring: ShardRing,
    states: Vec<Arc<ServerState>>,
}

impl ShardSet {
    /// Builds `shards` **in-memory** shard states (no persistence).
    /// `mk(k)` supplies shard `k`'s builder — typically
    /// [`ServerState::builder_with_cache`] over one shared cache. Shard
    /// `k` keeps only the tenants the ring routes to it, so `mk` may
    /// register every tenant; one that skips building what
    /// `ShardRing::new(shards).shard_for(name)` puts elsewhere saves that
    /// dataset's memory.
    pub fn build(shards: usize, mk: impl Fn(usize) -> ServerStateBuilder) -> Self {
        let ring = ShardRing::new(shards);
        let states = (0..ring.shards())
            .map(|k| Arc::new(mk(k).shard(k, &ring).build()))
            .collect();
        Self { ring, states }
    }

    /// Recovers every shard from `root/shard-k`, **independently and in
    /// parallel** — one thread per shard replays that shard's
    /// WAL-over-snapshot; a slow or large shard never serializes the
    /// others. The first shard to refuse recovery fails the whole boot.
    /// Shard `k` keeps only the tenants the ring routes to it, as in
    /// [`ShardSet::build`].
    ///
    /// A shard's snapshot may name a tenant the ring routes elsewhere —
    /// the dir was written under another shard count. If that tenant has
    /// spend, a live session or a resident mutation log there, the boot
    /// is refused ([`RecoverError::MovedSpend`]): its owner would start
    /// from a fresh ledger and the base rows. A bare ledger is dropped.
    /// The same holds for the dirs `root/shard-k`, `k ≥ shards`, that a
    /// larger shard count left: each is recovered as a shard that owns
    /// nothing.
    ///
    /// # Errors
    /// The first [`RecoverError`] any shard reported, in shard order.
    pub fn recover(
        root: &Path,
        shards: usize,
        mk: impl Fn(usize) -> ServerStateBuilder + Sync,
        opts: impl Fn(&Path) -> PersistOptions + Sync,
    ) -> Result<(Self, Vec<RecoveryReport>), RecoverError> {
        let ring = ShardRing::new(shards);
        let n = ring.shards();
        let mut slots: Vec<Option<Result<(ServerState, RecoveryReport), RecoverError>>> =
            (0..n).map(|_| None).collect();
        std::thread::scope(|scope| {
            for (k, slot) in slots.iter_mut().enumerate() {
                let (mk, opts, ring) = (&mk, &opts, &ring);
                scope.spawn(move || {
                    let dir = snapshot::shard_dir(root, k);
                    *slot = Some(mk(k).shard(k, ring).build_recovered(opts(&dir)));
                });
            }
        });
        let mut states = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for slot in slots {
            let (state, report) = slot.expect("every shard thread ran")?;
            states.push(Arc::new(state));
            reports.push(report);
        }
        // A dir past the ring, written under more shards, must hold
        // nothing either: recover it as a shard that owns no tenant.
        for k in (n..).take_while(|&k| snapshot::shard_dir(root, k).is_dir()) {
            let dir = snapshot::shard_dir(root, k);
            ServerState::builder(1)
                .shard(k, &ring)
                .build_recovered(opts(&dir))?;
        }
        Ok((Self { ring, states }, reports))
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.states.len()
    }

    /// The ring (routing is `ring().shard_for(tenant)`).
    pub fn ring(&self) -> &ShardRing {
        &self.ring
    }

    /// Shard `k`'s state.
    pub fn state(&self, k: usize) -> &Arc<ServerState> {
        &self.states[k]
    }

    /// All shard states, in shard order.
    pub fn states(&self) -> &[Arc<ServerState>] {
        &self.states
    }

    /// The state owning `tenant`.
    pub fn owner(&self, tenant: &str) -> &Arc<ServerState> {
        &self.states[self.ring.shard_for(tenant)]
    }

    /// Live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.states.iter().map(|s| s.session_count()).sum()
    }

    /// `tenant`'s spent budget: its owner's ledger, the only one (0 for
    /// an unknown tenant).
    pub fn spent(&self, tenant: &str) -> f64 {
        self.owner(tenant)
            .tenant(tenant)
            .map_or(0.0, |t| t.engine.spent())
    }

    /// Compacts every shard (the clean-shutdown path). The first error
    /// is returned but every shard is still attempted.
    ///
    /// # Errors
    /// The first shard compaction failure.
    pub fn compact_all(&self) -> Result<(), std::io::Error> {
        let mut first_err = None;
        for s in &self.states {
            if let Err(e) = s.compact() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    }
}

/// The `/v1/stats` body: totals across shards, each dataset once as its
/// owning shard (`shard`) reports it, and a `shards` breakdown.
pub fn stats_json(set: &ShardSet) -> Json {
    let mut dataset_entries = Vec::new();
    for (k, st) in set.states().iter().enumerate() {
        for (name, t) in st.tenants() {
            // `paged` stays false for a resident dataset, whose store
            // object reads all-zero.
            let pool = t.store_stats();
            let pool_stats = pool.unwrap_or_default();
            let ledger = t.engine.export_ledger();
            dataset_entries.push((
                name.clone(),
                Json::obj(vec![
                    ("shard", Json::from(k)),
                    ("cache", wire::cache_stats_json(t.cache.local_stats())),
                    ("views", wire::view_stats_json(t.view_stats())),
                    (
                        "compile",
                        wire::compile_stats_json(t.engine.with_engine(|e| e.compile_stats())),
                    ),
                    (
                        "store",
                        Json::obj(vec![
                            ("paged", Json::Bool(pool.is_some())),
                            ("epoch", Json::from(t.dataset_epoch().unwrap_or(0))),
                            ("pool_hits", Json::from(pool_stats.hits)),
                            ("pool_misses", Json::from(pool_stats.misses)),
                            ("pool_evictions", Json::from(pool_stats.evictions)),
                            ("pool_flushes", Json::from(pool_stats.flushes)),
                            ("transcript_records", Json::from(t.transcript_records())),
                            ("transcript_dropped", Json::from(t.transcript_dropped())),
                        ]),
                    ),
                    (
                        "budget",
                        Json::obj(vec![
                            ("budget", Json::Num(ledger.budget)),
                            ("spent", Json::Num(ledger.spent)),
                            ("remaining", Json::Num(ledger.budget - ledger.spent)),
                            ("reclaimed", Json::Num(t.reclaimed())),
                        ]),
                    ),
                    (
                        "transcript",
                        Json::obj(vec![
                            ("answered", Json::from(ledger.answered)),
                            ("denied", Json::from(ledger.denied)),
                        ]),
                    ),
                    ("sessions", Json::from(st.session_count_for(name))),
                    ("epoch", Json::from(t.engine.epoch())),
                    (
                        "mutations_applied",
                        Json::from(t.engine.mutations_applied()),
                    ),
                ]),
            ));
        }
    }

    let shard_entries: Vec<Json> = set
        .states()
        .iter()
        .enumerate()
        .map(|(k, st)| {
            let mut entry = vec![
                ("shard", Json::from(k)),
                ("sessions", Json::from(st.session_count())),
                ("expired", Json::from(st.expired_count())),
                ("session_id_base", Json::from(st.session_id_base())),
                ("parse", wire::parse_stats_json(st.parses().stats())),
            ];
            // Memory-only shards have no WAL and report no block.
            if let Some(wal) = st.wal_stats() {
                entry.push(("wal", wire::wal_stats_json(wal)));
            }
            Json::obj(entry)
        })
        .collect();

    // The root cache is one shared instance; report it once, not summed.
    let root = set.state(0).cache();
    Json::obj(vec![
        ("sessions", Json::from(set.session_count())),
        (
            "expired",
            Json::from(
                set.states()
                    .iter()
                    .map(|s| s.expired_count())
                    .sum::<usize>(),
            ),
        ),
        ("shard_count", Json::from(set.shards())),
        (
            "cache",
            Json::obj(vec![
                ("capacity", Json::from(root.capacity())),
                ("entries", Json::from(root.len())),
                ("global", wire::cache_stats_json(root.stats())),
            ]),
        ),
        ("datasets", Json::Obj(dataset_entries)),
        ("shards", Json::Arr(shard_entries)),
    ])
}

/// The sharded server's one setting. The queue bound, the sticky
/// window, `Retry-After` and the idle timeout are constants.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads per shard draining that shard's queue. Shard
    /// throughput under durable WALs is fsync-bound, so a couple of
    /// workers per shard suffice to keep appends overlapping. The count
    /// is not what group commit waits for: a commit waits only for the
    /// workers that hold a request at that moment.
    pub workers_per_shard: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers_per_shard: 2,
        }
    }
}

/// Requests a shard's queue holds before the dispatcher sheds with `503`.
const QUEUE_CAP: usize = 256;

/// Idle keep-alive connections past this are dropped.
const IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Seconds advertised in the backpressure `Retry-After` header.
const RETRY_AFTER_SECS: u64 = 1;

/// How long a worker lingers on a keep-alive connection after
/// responding, waiting for the client's next request. A session's
/// requests (open → query → close) all route to the same shard, so the
/// follow-up usually lands here within the window and is served directly
/// — skipping the dispatcher round trip that otherwise dominates
/// per-request latency.
const STICKY_WAIT: Duration = Duration::from_millis(1);

/// A connection parked in the event loop (or in flight to a worker).
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    /// Bytes read but not yet consumed by a parsed request.
    buf: Vec<u8>,
    /// When the current (incomplete) request started arriving.
    read_start: Option<Instant>,
    last_activity: Instant,
    /// Whether the stream is currently in worker mode (blocking, write
    /// timeout armed) rather than event-loop mode (nonblocking). Kept
    /// here so the worker's serve loop pays the two mode-switch
    /// syscalls once per dispatch, not once per pipelined request.
    worker_io: bool,
    /// Responses accumulated for a pipelined burst, flushed in one
    /// write once no further request is already buffered (or before
    /// the connection blocks, parks, or drops). Always empty while the
    /// connection sits in the event loop.
    wbuf: Vec<u8>,
}

/// Largest buffer a single connection may accumulate: one max-size head
/// plus one max-size body plus pipelined slack.
const MAX_CONN_BUF: usize = http::MAX_BODY + http::MAX_LINE * (http::MAX_HEADERS + 2) + (64 << 10);

/// One request handed to a shard worker, carrying its connection.
struct Work {
    conn: ConnState,
    req: Request,
}

/// A shard's bounded work queue: the event thread pushes, the shard's
/// workers pop, and each push wakes exactly one parked worker.
struct WorkQueue {
    /// Queued requests, and whether the dispatcher has closed the queue.
    inner: Mutex<(VecDeque<Work>, bool)>,
    /// Wakes a worker parked in `recv`.
    ready: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        Self {
            inner: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    /// Queues `work` without blocking, or hands it back when the queue
    /// holds [`QUEUE_CAP`] requests (the dispatcher's 503) or is closed.
    fn try_send(&self, work: Work) -> Result<(), Box<Work>> {
        let mut g = lockx::lock(&self.inner);
        if g.1 || g.0.len() >= QUEUE_CAP {
            return Err(Box::new(work));
        }
        g.0.push_back(work);
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks until work arrives (`Some`) or the queue is closed and
    /// empty (`None` — the worker's shutdown signal).
    fn recv(&self) -> Option<Work> {
        let mut g = lockx::lock(&self.inner);
        loop {
            if let Some(work) = g.0.pop_front() {
                return Some(work);
            }
            if g.1 {
                return None;
            }
            g = lockx::wait(&self.ready, g);
        }
    }

    /// Closes the queue: further `try_send`s are refused, and the
    /// workers drain what is left, then exit.
    fn close(&self) {
        lockx::lock(&self.inner).1 = true;
        self.ready.notify_all();
    }
}

/// Control handle for a running sharded server.
pub struct ShardServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ShardServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests graceful shutdown. The event loop polls the flag (it
    /// never blocks indefinitely), so no nudge connection is needed.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the event loop and every shard worker have exited.
    pub fn join(mut self) {
        if let Some(e) = self.event.take() {
            let _ = e.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Starts the sharded server: binds `addr`, spawns the event thread and
/// `workers_per_shard` workers per shard, and returns the handle. A
/// request that arrives before a worker has started waits in its queue.
///
/// # Errors
/// Propagates bind failures.
pub fn serve_sharded<A: ToSocketAddrs>(
    addr: A,
    set: Arc<ShardSet>,
    cfg: ServeConfig,
) -> std::io::Result<ShardServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let stop = Arc::new(AtomicBool::new(false));

    // Workers hand keep-alive connections back through this channel.
    let (ret_tx, ret_rx) = mpsc::channel::<ConnState>();
    let workers_per_shard = cfg.workers_per_shard.max(1);
    let queues: Arc<Vec<WorkQueue>> =
        Arc::new((0..set.shards()).map(|_| WorkQueue::new()).collect());
    let mut workers = Vec::new();
    for k in 0..set.shards() {
        for _ in 0..workers_per_shard {
            let set = set.clone();
            let queues = queues.clone();
            let ret = ret_tx.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                shard_worker(&set, k, &queues[k], &ret, &stop);
            }));
        }
    }
    drop(ret_tx); // workers hold the only senders now

    let event = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            event_loop(&listener, &set, &queues, &ret_rx, &stop);
            // The dispatcher is gone: close every queue so workers
            // drain what's left and exit.
            for q in queues.iter() {
                q.close();
            }
        })
    };

    Ok(ShardServerHandle {
        addr: local,
        stop,
        event: Some(event),
        workers,
    })
}

/// Whether the client asked to keep the connection open (HTTP/1.1
/// default unless `Connection: close`).
fn wants_keep_alive(req: &Request) -> bool {
    !req.header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"))
}

/// Cap on consecutive sticky serves per queue grab. Fairness against a
/// chatty connection comes from the queue-priority check (queued work
/// preempts lingering after every response), so this is only a
/// backstop against a conn that streams requests forever; it can be
/// generous without starving anyone.
const STICKY_MAX: usize = 512;

/// Flush the accumulated response buffer once it reaches this size even
/// if more pipelined requests are waiting, so a long burst can't defer
/// its first response arbitrarily.
const WBUF_FLUSH: usize = 32 << 10;

/// What the sticky wait on a keep-alive connection produced.
enum Sticky {
    /// The next request arrived and routes to this worker's shard.
    Serve(Request),
    /// No (complete) request within the window, or it routes elsewhere:
    /// park the connection back in the event loop.
    Park,
    /// The client hung up or the socket failed.
    Drop,
}

/// Waits up to `wait` for the connection's next request. Only a
/// complete request that routes to shard `k` is consumed; anything
/// else (partial bytes, malformed input, a foreign-shard or global
/// request) stays buffered for the event loop to handle.
fn sticky_next(conn: &mut ConnState, set: &ShardSet, k: usize, wait: Duration) -> Sticky {
    let deadline = Instant::now() + wait;
    let mut chunk = [0u8; 4096];
    loop {
        match http::parse_buffered(&conn.buf) {
            BufParse::Complete(req, consumed) => {
                if matches!(target_for(set, &req), Target::Shard(s) if s == k) {
                    conn.buf.drain(..consumed);
                    conn.read_start = None;
                    conn.last_activity = Instant::now();
                    return Sticky::Serve(req);
                }
                return Sticky::Park;
            }
            BufParse::Bad(_) => return Sticky::Park, // event loop answers it
            BufParse::NeedMore => {
                if conn.buf.len() > MAX_CONN_BUF {
                    return Sticky::Park; // event loop answers 413
                }
            }
        }
        let now = Instant::now();
        if now >= deadline {
            return Sticky::Park;
        }
        // Blocking read with the remaining window as the timeout: on a
        // busy host this yields the core to the client whose request
        // we're waiting for.
        if conn.stream.set_read_timeout(Some(deadline - now)).is_err() {
            return Sticky::Park;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => return Sticky::Drop,
            Ok(n) => {
                if conn.buf.is_empty() {
                    conn.read_start = Some(Instant::now());
                }
                conn.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Sticky::Park
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Sticky::Drop,
        }
    }
}

/// One shard worker: drain the shard's queue, route against the shard's
/// own state, write the response, and migrate the connection back to
/// the event loop when it stays open.
///
/// After each response the worker lingers for [`STICKY_WAIT`] on the
/// connection: a session's open → query → close all hash to the same
/// shard, so the follow-up request usually arrives within the window
/// and is served right here, without a dispatcher round trip. Requests
/// that route elsewhere (or don't arrive in time) park the connection
/// back in the event loop as before.
fn shard_worker(
    set: &Arc<ShardSet>,
    k: usize,
    queue: &WorkQueue,
    ret: &mpsc::Sender<ConnState>,
    stop: &Arc<AtomicBool>,
) {
    let state = set.state(k);
    // Parks a connection back in the event loop, nonblocking again. A
    // closed return channel means the event loop is gone (shutdown);
    // dropping the connection is then correct.
    let park = |mut conn: ConnState| {
        conn.worker_io = false;
        if conn.stream.set_read_timeout(None).is_ok() && conn.stream.set_nonblocking(true).is_ok() {
            let _ = ret.send(conn);
        }
    };
    loop {
        let Some(mut work) = queue.recv() else {
            return; // queue closed: shutdown
        };
        // Holding a request makes this worker a writer its shard's
        // group-commit leader waits for. Scoped to this iteration, so
        // every way out of the inner loop — and a panic through it —
        // gives the presence back.
        let mut present = Some(state.writer_present());
        let mut served = 0;
        loop {
            let Work { mut conn, req } = work;
            served += 1;
            let resp = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                router::route(state, &req)
            })) {
                Ok(resp) => resp,
                Err(_) => Response::json(500, "{\"error\":\"internal error\"}".into()),
            };
            if resp.shutdown {
                stop.store(true, Ordering::SeqCst);
            }
            let keep = wants_keep_alive(&req) && !resp.shutdown;
            // Response writes are blocking (with a timeout): the payloads
            // are small and a worker must not drop a half-written response.
            if !conn.worker_io {
                let _ = conn.stream.set_nonblocking(false);
                let _ = conn.stream.set_write_timeout(Some(http::IO_TIMEOUT));
                conn.worker_io = true;
            }
            http::append_response(&mut conn.wbuf, &resp, keep);
            if !keep {
                // Best-effort final flush: the connection drops either way.
                drop(present.take());
                let _ = conn.stream.write_all(&conn.wbuf);
                break;
            }
            conn.last_activity = Instant::now();
            // Pipelined burst fast path: while the next request is
            // already buffered (zero wait), keep serving and let the
            // responses pile up in wbuf — one flush syscall per burst
            // instead of one per response.
            if conn.wbuf.len() < WBUF_FLUSH && served < STICKY_MAX && !stop.load(Ordering::SeqCst) {
                if let Sticky::Serve(next_req) = sticky_next(&mut conn, set, k, Duration::ZERO) {
                    work = Work {
                        conn,
                        req: next_req,
                    };
                    continue;
                }
            }
            // About to block, park, or drop: no request in hand, so no
            // commit left for a leader to wait on — and the client must
            // see its responses first.
            drop(present.take());
            if conn.stream.write_all(&conn.wbuf).is_err() {
                break; // drop the connection
            }
            conn.wbuf.clear();
            // Sticky first, queue second: the follow-up request is served
            // here without a dispatcher round trip, and a shard's
            // connections stay spread over its workers, whose commits
            // can then share a sync. A connection
            // streaming requests forever cannot starve the queue: the
            // sticky window only serves requests already buffered or
            // arriving within `STICKY_WAIT`, and STICKY_MAX backstops
            // pathological streams.
            if served < STICKY_MAX && !stop.load(Ordering::SeqCst) {
                match sticky_next(&mut conn, set, k, STICKY_WAIT) {
                    Sticky::Serve(next_req) => {
                        present = Some(state.writer_present());
                        work = Work {
                            conn,
                            req: next_req,
                        };
                        continue;
                    }
                    Sticky::Park => {}
                    Sticky::Drop => break,
                }
            }
            park(conn);
            break;
        }
    }
}

/// Where one parsed request must go.
enum Target {
    /// Session- or tenant-scoped: the owning shard's queue.
    Shard(usize),
    /// Cross-shard (healthz, stats, admin list/shutdown): handled inline.
    Global,
    /// Answerable without touching any shard.
    Reply(Response),
}

fn target_for(set: &ShardSet, req: &Request) -> Target {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["v1", "sessions"] => {
            // Tenant-routed by the router's own decoder, so the shard
            // that opens the session owns the dataset it is opened for;
            // a body the router would reject goes to shard 0 for the
            // proper 400/404/405.
            let shard = req
                .body_str()
                .and_then(|text| crate::json::parse(text).ok())
                .and_then(|body| wire::parse_create_session(&body).ok())
                .map(|create| set.ring().shard_for(&create.dataset))
                .unwrap_or(0);
            Target::Shard(shard)
        }
        // Row mutations go to the shard that owns the dataset's engine —
        // the same ring decision that routes its sessions, so mutations
        // and the queries they race serialize on one engine worker.
        ["v1", "datasets", name, ..] => Target::Shard(set.ring().shard_for(name)),
        ["v1", "sessions", id, ..] | ["v1", "admin", "sessions", id, ..] => {
            match id.parse::<u64>() {
                Ok(id) => {
                    let shard = session_shard(id);
                    if shard < set.shards() {
                        Target::Shard(shard)
                    } else {
                        // An id from a larger past deployment: nothing
                        // here can own it.
                        Target::Reply(Response::json(404, wire::error_json("no such session")))
                    }
                }
                // Router answers "session id must be an integer".
                Err(_) => Target::Shard(0),
            }
        }
        _ => Target::Global,
    }
}

/// The cross-shard endpoints, handled on the event thread (all cheap:
/// counter reads and ledger exports).
fn route_global(set: &ShardSet, req: &Request) -> Response {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match segments.as_slice() {
        ["healthz"] => {
            if req.method != "GET" {
                return Response::json(405, wire::error_json("use GET"));
            }
            let datasets: usize = set.states().iter().map(|s| s.tenants().len()).sum();
            let body = Json::obj(vec![
                ("status", Json::from("ok")),
                ("shards", Json::from(set.shards())),
                ("datasets", Json::from(datasets)),
                ("sessions", Json::from(set.session_count())),
            ]);
            Response::json(200, body.render())
        }
        ["v1", "stats"] => {
            if req.method != "GET" {
                return Response::json(405, wire::error_json("use GET"));
            }
            Response::json(200, stats_json(set).render())
        }
        ["v1", "admin", rest @ ..] => {
            // Every shard carries the same admin token; shard 0 checks.
            if let Err(resp) = router::admin_auth(set.state(0), req) {
                return resp;
            }
            match rest {
                ["shutdown"] => {
                    if req.method != "POST" {
                        return Response::json(405, wire::error_json("use POST"));
                    }
                    let mut resp = Response::json(
                        202,
                        Json::obj(vec![("status", Json::from("shutting down"))]).render(),
                    );
                    resp.shutdown = true;
                    resp
                }
                ["sessions"] => {
                    if req.method != "GET" {
                        return Response::json(405, wire::error_json("use GET"));
                    }
                    let mut sessions: Vec<_> = set
                        .states()
                        .iter()
                        .flat_map(|s| s.list_sessions())
                        .collect();
                    sessions.sort_by_key(|s| s.session.id);
                    let body = Json::obj(vec![
                        (
                            "sessions",
                            Json::Arr(sessions.into_iter().map(wire::session_info_json).collect()),
                        ),
                        (
                            "expired",
                            Json::from(
                                set.states()
                                    .iter()
                                    .map(|s| s.expired_count())
                                    .sum::<usize>(),
                            ),
                        ),
                        (
                            "ttl_millis",
                            set.state(0)
                                .ttl_millis()
                                .map(Json::from)
                                .unwrap_or(Json::Null),
                        ),
                    ]);
                    Response::json(200, body.render())
                }
                _ => Response::json(404, wire::error_json("no such admin endpoint")),
            }
        }
        _ => Response::json(404, wire::error_json("no such endpoint")),
    }
}

/// The dispatch decision of the event loop and a shard worker for one
/// parsed request, without the sockets and queues — what the router
/// tests drive, so they cover `target_for` and the cross-shard endpoints
/// exactly as the server wires them.
#[cfg(test)]
pub(crate) fn dispatch(set: &ShardSet, req: &Request) -> Response {
    match target_for(set, req) {
        Target::Reply(resp) => resp,
        Target::Global => route_global(set, req),
        Target::Shard(k) => router::route(set.state(k), req),
    }
}

/// Outcome of draining a connection's readable bytes.
enum Fill {
    /// Appended at least one byte.
    Got,
    /// Nothing available right now.
    Nothing,
    /// EOF or a hard error: the connection is done.
    Closed,
}

fn fill(conn: &mut ConnState, scratch: &mut [u8]) -> Fill {
    let mut got = false;
    loop {
        match conn.stream.read(scratch) {
            Ok(0) => return Fill::Closed,
            Ok(n) => {
                conn.buf.extend_from_slice(&scratch[..n]);
                got = true;
                if n < scratch.len() {
                    return Fill::Got;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                return if got { Fill::Got } else { Fill::Nothing };
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Fill::Closed,
        }
    }
}

/// Writes `resp` inline from the event thread (blocking, with a write
/// timeout — the payloads are small). Returns whether the connection
/// survives: write succeeded, keep-alive wanted, and back to
/// nonblocking cleanly.
fn respond_inline(conn: &mut ConnState, resp: &Response, keep_alive: bool) -> bool {
    let _ = conn.stream.set_nonblocking(false);
    let _ = conn.stream.set_write_timeout(Some(http::IO_TIMEOUT));
    let ok = http::write_response_conn(&mut conn.stream, resp, keep_alive).is_ok();
    ok && keep_alive && conn.stream.set_nonblocking(true).is_ok()
}

/// Services one connection for one scan pass. Returns the connection to
/// keep parking, or `None` when it was closed or handed to a shard.
fn service_conn(
    mut conn: ConnState,
    now: Instant,
    set: &ShardSet,
    queues: &[WorkQueue],
    stop: &AtomicBool,
    scratch: &mut [u8],
    progress: &mut bool,
) -> Option<ConnState> {
    match fill(&mut conn, scratch) {
        Fill::Closed => return None,
        Fill::Got => {
            conn.last_activity = now;
            *progress = true;
        }
        Fill::Nothing => {}
    }
    loop {
        if conn.buf.is_empty() {
            conn.read_start = None;
            if now.duration_since(conn.last_activity) > IDLE_TIMEOUT {
                return None;
            }
            return Some(conn);
        }
        let read_start = *conn.read_start.get_or_insert(now);
        match http::parse_buffered(&conn.buf) {
            BufParse::NeedMore => {
                if conn.buf.len() > MAX_CONN_BUF {
                    let resp = Response::json(413, wire::error_json("request too large"));
                    respond_inline(&mut conn, &resp, false);
                    return None;
                }
                if now.duration_since(read_start) > http::REQUEST_DEADLINE {
                    let resp = Response::json(408, wire::error_json("request timed out"));
                    respond_inline(&mut conn, &resp, false);
                    return None;
                }
                return Some(conn);
            }
            BufParse::Bad(status) => {
                let resp = Response::json(status, wire::error_json(http::status_text(status)));
                respond_inline(&mut conn, &resp, false);
                return None;
            }
            BufParse::Complete(req, consumed) => {
                conn.buf.drain(..consumed);
                conn.read_start = None;
                *progress = true;
                let keep = wants_keep_alive(&req);
                match target_for(set, &req) {
                    Target::Reply(resp) => {
                        if !respond_inline(&mut conn, &resp, keep) {
                            return None;
                        }
                        // Loop: the buffer may hold a pipelined request.
                    }
                    Target::Global => {
                        let resp = route_global(set, &req);
                        if resp.shutdown {
                            stop.store(true, Ordering::SeqCst);
                        }
                        if !respond_inline(&mut conn, &resp, keep && !resp.shutdown) {
                            return None;
                        }
                    }
                    Target::Shard(k) => {
                        let Err(work) = queues[k].try_send(Work { conn, req }) else {
                            return None;
                        };
                        // Backpressure: shed THIS request, keep the
                        // connection — the client retries after
                        // `Retry-After` without reconnecting.
                        conn = work.conn;
                        let resp = Response::unavailable(RETRY_AFTER_SECS);
                        if !respond_inline(&mut conn, &resp, keep) {
                            return None;
                        }
                    }
                }
            }
        }
    }
}

/// The nonblocking accept/dispatch loop. Single-threaded readiness by
/// scanning: accept whatever is pending, take back worker-returned
/// connections, try to read + parse each parked connection, dispatch
/// complete requests. Scans that make no progress sleep briefly, so an
/// idle server costs ~0 and a busy one never waits on a timer.
fn event_loop(
    listener: &TcpListener,
    set: &Arc<ShardSet>,
    queues: &[WorkQueue],
    ret_rx: &Receiver<ConnState>,
    stop: &Arc<AtomicBool>,
) {
    let mut conns: Vec<ConnState> = Vec::new();
    let mut scratch = vec![0u8; 16 << 10];
    while !stop.load(Ordering::SeqCst) {
        let mut progress = false;

        // New connections.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_ok() {
                        conns.push(ConnState {
                            stream,
                            buf: Vec::new(),
                            read_start: None,
                            last_activity: Instant::now(),
                            worker_io: false,
                            wbuf: Vec::new(),
                        });
                        progress = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Persistent accept failures (e.g. EMFILE) fall through
                // to the scan; the no-progress sleep is the backoff.
                Err(_) => break,
            }
        }

        // Connections migrating back from shard workers.
        while let Ok(conn) = ret_rx.try_recv() {
            conns.push(conn);
            progress = true;
        }

        // Scan every parked connection.
        let now = Instant::now();
        let mut kept = Vec::with_capacity(conns.len());
        for conn in conns.drain(..) {
            if let Some(c) = service_conn(conn, now, set, queues, stop, &mut scratch, &mut progress)
            {
                kept.push(c);
            }
        }
        conns = kept;

        if !progress {
            std::thread::sleep(Duration::from_micros(300));
        }
    }
    // Our caller closes the queues when this returns; workers then
    // drain and exit. Parked connections and the listener close on drop.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use apex_core::TranslatorCache;
    use apex_core::{EngineConfig, Mode};
    use apex_data::{Attribute, Dataset, Domain, Schema, Value};
    use std::path::PathBuf;

    fn tiny_dataset(domain: i64) -> Dataset {
        let schema = Schema::new(vec![Attribute::new(
            "v",
            Domain::IntRange {
                min: 0,
                max: domain - 1,
            },
        )])
        .unwrap();
        let mut d = Dataset::empty(schema);
        for i in 0..16 {
            d.push(vec![Value::Int(i % domain)]).unwrap();
        }
        d
    }

    /// Picks `per_shard` tenant names owned by EACH shard, so tests
    /// never depend on luck for traffic reaching every shard.
    fn split_tenants(shards: usize, per_shard: usize) -> Vec<String> {
        let ring = ShardRing::new(shards);
        let mut picked: Vec<Vec<String>> = vec![Vec::new(); shards];
        for i in 0.. {
            let name = format!("tenant-{i}");
            let k = ring.shard_for(&name);
            if picked[k].len() < per_shard {
                picked[k].push(name);
            }
            if picked.iter().all(|p| p.len() == per_shard) {
                break;
            }
        }
        picked.into_iter().flatten().collect()
    }

    fn demo_set(shards: usize, tenants: &[String]) -> Arc<ShardSet> {
        let cache = TranslatorCache::with_capacity(64);
        let tenants = tenants.to_vec();
        Arc::new(ShardSet::build(shards, |k| {
            let mut b = ServerState::builder_with_cache(cache.clone());
            for (i, name) in tenants.iter().enumerate() {
                b = b.dataset(
                    name,
                    tiny_dataset(8),
                    EngineConfig {
                        budget: 10.0,
                        mode: Mode::Optimistic,
                        seed: 0x5AD_0000 + (k as u64) * 100 + i as u64,
                    },
                );
            }
            b
        }))
    }

    /// A builder with `name` as its only tenant (B = 10).
    fn lone_tenant(name: &str) -> ServerStateBuilder {
        let config = EngineConfig {
            budget: 10.0,
            mode: Mode::Optimistic,
            seed: 0x5EED,
        };
        ServerState::builder(4).dataset(name, tiny_dataset(8), config)
    }

    fn unsynced(dir: &Path) -> PersistOptions {
        PersistOptions {
            sync: false,
            ..PersistOptions::new(dir)
        }
    }

    #[test]
    fn ring_is_deterministic_and_pinned() {
        // Two independent constructions agree on every tenant…
        let a = ShardRing::new(4);
        let b = ShardRing::new(4);
        for i in 0..1000 {
            let name = format!("tenant-{i}");
            assert_eq!(a.shard_for(&name), b.shard_for(&name));
        }
        // …and the hash itself is pinned: routing must be identical
        // across process restarts, which rules out any per-process seed.
        assert_eq!(fnv1a(b"apex"), 8577353448253779745);
        assert_eq!(fnv1a(b"adult"), 11639421285675599503);
        assert_eq!(fnv1a(b"taxi"), 15672339713388457737);
        assert_eq!(point_hash(b"apex"), 8112367261626308721);
        assert_eq!(point_hash(b"adult"), 7037391770252502742);
        assert_eq!(point_hash(b"taxi"), 14145573428915606398);
    }

    #[test]
    fn ring_spreads_tenants_across_all_shards() {
        for shards in [2usize, 4, 8] {
            let ring = ShardRing::new(shards);
            let mut counts = vec![0usize; shards];
            for i in 0..10_000 {
                counts[ring.shard_for(&format!("tenant-{i}"))] += 1;
            }
            for (k, c) in counts.iter().enumerate() {
                assert!(
                    *c > 10_000 / shards / 4,
                    "shard {k} of {shards} owns only {c} of 10000 tenants"
                );
            }
        }
    }

    #[test]
    fn adding_a_shard_remaps_a_bounded_fraction() {
        const TENANTS: usize = 10_000;
        for n in 1usize..=8 {
            let before = ShardRing::new(n);
            let after = ShardRing::new(n + 1);
            let moved = (0..TENANTS)
                .filter(|i| {
                    let name = format!("tenant-{i}");
                    before.shard_for(&name) != after.shard_for(&name)
                })
                .count();
            // Ideal is 1/(n+1); vnode placement variance gets slack.
            let bound = ((TENANTS as f64) * (1.6 / (n + 1) as f64 + 0.02)) as usize;
            assert!(
                moved <= bound,
                "{n}→{} shards moved {moved}/{TENANTS} tenants (bound {bound})",
                n + 1
            );
            // And every moved tenant landed on the NEW shard's ring
            // points or was displaced by them — nothing shuffles between
            // old shards.
            for i in 0..TENANTS {
                let name = format!("tenant-{i}");
                let (b, a) = (before.shard_for(&name), after.shard_for(&name));
                if b != a {
                    assert_eq!(a, n, "tenant {name} moved {b}→{a}, not to the new shard");
                }
            }
        }
    }

    #[test]
    fn session_ids_encode_their_shard() {
        for shard in [0usize, 1, 7, 4095] {
            let base = shard_id_base(shard);
            assert_eq!(session_shard(base + 1), shard);
            assert_eq!(session_shard(base + 0xFF_FFFF), shard);
        }
        // Ids stay exactly representable in a JSON double.
        assert!(shard_id_base(MAX_SHARDS - 1) + ((1u64 << SHARD_ID_SHIFT) - 1) < (1u64 << 53));
    }

    #[test]
    fn sharded_server_routes_sessions_and_aggregates_stats() {
        let tenants = split_tenants(2, 2);
        let set = demo_set(2, &tenants);
        let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default()).unwrap();
        let addr = handle.addr();

        let q = "BIN t ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } \
                 ERROR 8 CONFIDENCE 0.95;";
        let mut ids = Vec::new();
        for name in &tenants {
            let body = format!("{{\"dataset\":\"{name}\",\"budget\":2.0}}");
            let (status, created) =
                client::request(addr, "POST", "/v1/sessions", Some(&body)).unwrap();
            assert_eq!(status, 201, "{created:?}");
            let id = created.get("session").and_then(Json::as_u64).unwrap();
            // The id's shard bits match the ring's routing decision.
            assert_eq!(session_shard(id), set.ring().shard_for(name));
            let (status, resp) = client::request(
                addr,
                "POST",
                &format!("/v1/sessions/{id}/query"),
                Some(&format!("{{\"query\":\"{q}\"}}")),
            )
            .unwrap();
            assert_eq!(status, 200, "{resp:?}");
            ids.push((name, id));
        }

        // Both shards saw traffic (the four tenants split across 2).
        assert!(
            set.states()
                .iter()
                .all(|s| s.tenants().iter().any(|(_, t)| t.engine.spent() > 0.0)),
            "consistent hashing left a shard idle"
        );

        // Aggregated stats: totals match the sum over shards.
        let (status, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            stats.get("sessions").and_then(Json::as_u64),
            Some(tenants.len() as u64)
        );
        assert_eq!(stats.get("shard_count").and_then(Json::as_u64), Some(2));
        let shards_arr = stats.get("shards").and_then(Json::as_arr).unwrap();
        assert_eq!(shards_arr.len(), 2);
        for name in &tenants {
            let entry = stats.get("datasets").and_then(|d| d.get(name)).unwrap();
            // Each dataset is reported once, naming its owner.
            assert_eq!(
                entry.get("shard").and_then(Json::as_u64),
                Some(set.ring().shard_for(name) as u64),
                "{name}"
            );
            let agg = entry
                .get("budget")
                .and_then(|b| b.get("spent"))
                .and_then(Json::as_f64)
                .unwrap();
            let summed = set.spent(name);
            assert!(
                (agg - summed).abs() < 1e-12,
                "{name}: stats {agg} vs shard sum {summed}"
            );
            assert!(agg > 0.0);
        }

        // The admin list merges both shards, ascending by id.
        let (status, listed) = client::request(addr, "GET", "/v1/admin/sessions", None).unwrap();
        assert_eq!(status, 200);
        let listed = listed.get("sessions").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), tenants.len());

        // Analyst close routes by the id's shard bits and reclaims.
        for (name, id) in &ids {
            let (status, closed) = client::request(
                addr,
                "POST",
                &format!("/v1/sessions/{id}/close"),
                Some("{}"),
            )
            .unwrap();
            assert_eq!(status, 200, "closing {name}: {closed:?}");
            assert!(closed.get("released").and_then(Json::as_f64).unwrap() > 0.0);
        }
        // A close on a foreign-deployment id (shard out of range) 404s.
        let ghost = shard_id_base(9) + 1;
        let (status, _) = client::request(
            addr,
            "POST",
            &format!("/v1/sessions/{ghost}/close"),
            Some("{}"),
        )
        .unwrap();
        assert_eq!(status, 404);

        // Graceful shutdown through the aggregated admin plane.
        let (status, _) = client::request(addr, "POST", "/v1/admin/shutdown", Some("{}")).unwrap();
        assert_eq!(status, 202);
        handle.join();
    }

    #[test]
    fn mutations_route_to_the_owning_shard_and_surface_in_stats() {
        let tenants = split_tenants(2, 1);
        let set = demo_set(2, &tenants);
        let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default()).unwrap();
        let addr = handle.addr();

        for name in &tenants {
            let (status, resp) = client::request(
                addr,
                "POST",
                &format!("/v1/datasets/{name}/rows"),
                Some(r#"{"op":"insert","rows":[[2],[4]]}"#),
            )
            .unwrap();
            assert_eq!(status, 200, "{resp:?}");
            assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(1));

            // The owner's engine moved, and no other shard holds a copy.
            let owner = set.ring().shard_for(name);
            for (k, st) in set.states().iter().enumerate() {
                let epoch = st.tenant(name).map(|t| t.engine.epoch());
                let expect = (k == owner).then_some(1);
                assert_eq!(epoch, expect, "tenant {name} on shard {k}");
            }
        }
        // An unknown dataset still routes (to some shard) and 404s there.
        let (status, _) = client::request(
            addr,
            "POST",
            "/v1/datasets/ghost/rows",
            Some(r#"{"op":"insert","rows":[[1]]}"#),
        )
        .unwrap();
        assert_eq!(status, 404);

        // Stats report the owner's epoch.
        let (status, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        assert_eq!(status, 200);
        for name in &tenants {
            let d = stats.get("datasets").and_then(|d| d.get(name)).unwrap();
            assert_eq!(d.get("epoch").and_then(Json::as_u64), Some(1), "{name}");
            assert_eq!(
                d.get("mutations_applied").and_then(Json::as_u64),
                Some(1),
                "{name}"
            );
        }

        let (status, _) = client::request(addr, "POST", "/v1/admin/shutdown", Some("{}")).unwrap();
        assert_eq!(status, 202);
        handle.join();
    }

    #[test]
    fn oversized_cell_over_the_socket_is_413_with_nothing_applied_or_logged() {
        // Durable, so "nothing logged" is checkable: the tenant's
        // mutation log must be byte-identical after the refused batches.
        let root = crate::testutil::temp_dir("oversized-cell");
        let (set, _) = ShardSet::recover(
            &root,
            1,
            |_| ServerState::builder(4).dataset("demo", tiny_dataset(8), EngineConfig::default()),
            |dir| PersistOptions {
                sync: false,
                ..PersistOptions::new(dir)
            },
        )
        .unwrap();
        let handle = serve_sharded("127.0.0.1:0", Arc::new(set), ServeConfig::default()).unwrap();
        let addr = handle.addr();
        let mutate = |body: &str| {
            client::request(addr, "POST", "/v1/datasets/demo/rows", Some(body)).unwrap()
        };
        // One applied batch first, so the log has something to lose.
        let (status, resp) = mutate(r#"{"op":"insert","rows":[[3]]}"#);
        assert_eq!(status, 200, "{resp:?}");
        let log = snapshot::shard_dir(&root, 0).join("rows/demo/mutations.log");
        let log_bytes = || std::fs::read(&log).unwrap();
        let before = log_bytes();

        let big_cell = format!(r#"{{"op":"insert","rows":[["{}"]]}}"#, "x".repeat(70_000));
        let (status, resp) = mutate(&big_cell);
        assert_eq!(status, 413, "{resp:?}");
        let wide_row = format!(
            r#"{{"op":"insert","rows":[[{}]]}}"#,
            vec!["1"; 70_000].join(",")
        );
        let (status, resp) = mutate(&wide_row);
        assert_eq!(status, 413, "{resp:?}");

        let (_, stats) = client::request(addr, "GET", "/v1/stats", None).unwrap();
        let demo = stats.get("datasets").and_then(|d| d.get("demo")).unwrap();
        assert_eq!(demo.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(
            demo.get("mutations_applied").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(log_bytes(), before, "a refused batch must log nothing");

        handle.stop();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn deeply_nested_queries_over_the_socket_are_400_and_the_server_keeps_serving() {
        // Each body once aborted the whole process: the parser recursed
        // once per level on a shard worker's 2 MiB stack.
        let handle = serve_sharded(
            "127.0.0.1:0",
            demo_set(1, &["demo".to_string()]),
            ServeConfig::default(),
        )
        .unwrap();
        let addr = handle.addr();
        let (status, opened) = client::request(
            addr,
            "POST",
            "/v1/sessions",
            Some(r#"{"dataset":"demo","budget":5}"#),
        )
        .unwrap();
        assert_eq!(status, 201, "{opened:?}");
        let id = opened.get("session").and_then(Json::as_u64).unwrap();
        let path = format!("/v1/sessions/{id}/query");
        let query = |workload: &str| {
            format!(
                r#"{{"query":"BIN demo ON COUNT(*) WHERE {{ {workload} }} ERROR 30 CONFIDENCE 0.95;"}}"#
            )
        };
        let deep_not = query(&format!("{}v = 1", "NOT ".repeat(10_000)));
        let long_and = query(&vec!["v = 1"; 80_000].join(" AND "));
        for body in [&deep_not, &long_and] {
            let (status, resp) = client::request(addr, "POST", &path, Some(body)).unwrap();
            assert_eq!(status, 400, "{resp:?}");
            let ok = query("v IN [0, 4), v IN [4, 8)");
            let (status, resp) = client::request(addr, "POST", &path, Some(&ok)).unwrap();
            assert_eq!(status, 200, "{resp:?}");
        }
        handle.stop();
        handle.join();
    }

    /// One durable shard with two workers, and a clock that panics on
    /// demand — inside `create_session`, after its record is logged.
    fn durable_pair_of_workers(tag: &str) -> (Arc<ShardSet>, Arc<FaultyClock>, PathBuf) {
        let root = crate::testutil::temp_dir(tag);
        let clock = Arc::new(FaultyClock(AtomicBool::new(false)));
        let (set, _) = ShardSet::recover(
            &root,
            1,
            |_| {
                ServerState::builder(4)
                    .dataset("demo", tiny_dataset(8), EngineConfig::default())
                    .clock(clock.clone())
            },
            |dir| PersistOptions::new(dir),
        )
        .unwrap();
        (Arc::new(set), clock, root)
    }

    #[derive(Debug)]
    struct FaultyClock(AtomicBool);

    impl crate::clock::Clock for FaultyClock {
        fn now_millis(&self) -> u64 {
            if self.0.load(Ordering::SeqCst) {
                std::panic::panic_any(apex_core::sched::SimulatedCrash);
            }
            0
        }
    }

    #[test]
    fn one_busy_worker_of_two_never_gathers() {
        let (set, _, root) = durable_pair_of_workers("solo-worker");
        let cfg = ServeConfig {
            workers_per_shard: 2,
        };
        let handle = serve_sharded("127.0.0.1:0", set.clone(), cfg).unwrap();
        // One closed-loop client: whichever worker takes a request, its
        // sibling holds none, so no commit has anyone to wait for.
        for _ in 0..6 {
            let body = r#"{"dataset":"demo","budget":0.01}"#;
            let (status, resp) =
                client::request(handle.addr(), "POST", "/v1/sessions", Some(body)).unwrap();
            assert_eq!(status, 201, "{resp:?}");
        }
        let (_, stats) = client::request(handle.addr(), "GET", "/v1/stats", None).unwrap();
        let wal = stats
            .get("shards")
            .and_then(Json::as_arr)
            .and_then(|s| s[0].get("wal"))
            .unwrap();
        let field = |name: &str| wal.get(name).and_then(Json::as_u64).unwrap();
        assert_eq!(
            ["durable_records", "covered", "syncs"].map(field),
            [6, 6, 6],
            "{wal:?}"
        );
        assert_eq!(
            ["gathers", "gather_timeouts", "present"].map(field),
            [0, 0, 0],
            "{wal:?}"
        );
        handle.stop();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_panicking_request_releases_its_presence() {
        apex_core::sched::silence_simulated_crashes();
        let (set, clock, root) = durable_pair_of_workers("panic-presence");
        let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default()).unwrap();
        let open = || {
            let body = r#"{"dataset":"demo","budget":0.01}"#;
            client::request(handle.addr(), "POST", "/v1/sessions", Some(body)).unwrap()
        };
        clock.0.store(true, Ordering::SeqCst);
        let (status, resp) = open();
        assert_eq!(status, 500, "{resp:?}");
        clock.0.store(false, Ordering::SeqCst);
        // The response is written after the presence is given back, so
        // having read it is enough: nothing is left for the next
        // commit's leader to wait out the backstop on.
        assert_eq!(set.state(0).wal_stats().unwrap().present, 0);
        let (status, resp) = open();
        assert_eq!(status, 201, "{resp:?}");
        let wal = set.state(0).wal_stats().unwrap();
        assert_eq!((wal.gathers, wal.gather_timeouts, wal.present), (0, 0, 0));
        handle.stop();
        handle.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn keep_alive_connection_migrates_across_shards() {
        let tenants = split_tenants(2, 2);
        let set = demo_set(2, &tenants);
        // split_tenants interleaves per shard, so these two differ.
        let a = tenants[0].as_str();
        let b = tenants
            .iter()
            .find(|t| set.ring().shard_for(t) != set.ring().shard_for(a))
            .expect("split_tenants covers both shards")
            .as_str();
        let handle = serve_sharded("127.0.0.1:0", set.clone(), ServeConfig::default()).unwrap();

        let mut conn = client::Conn::connect(handle.addr()).unwrap();
        let mut sessions = Vec::new();
        // Several requests over ONE connection, alternating shards.
        for name in [a, b, a, b] {
            let body = format!("{{\"dataset\":\"{name}\",\"budget\":1.0}}");
            conn.send(&[client::encode("POST", "/v1/sessions", &body)])
                .unwrap();
            let reply = conn.recv().unwrap();
            assert_eq!(reply.status, 201, "{reply:?}");
            assert!(reply.head.contains("keep-alive"), "{reply:?}");
            let id = reply.json().unwrap().get("session").and_then(Json::as_u64);
            sessions.push(id.unwrap());
        }
        let shards_hit: std::collections::HashSet<usize> =
            sessions.iter().map(|&id| session_shard(id)).collect();
        assert_eq!(shards_hit.len(), 2, "one connection must reach both shards");

        // Pipelining: two requests written back-to-back still get two
        // well-formed responses, in order.
        for id in &sessions[..2] {
            let path = format!("/v1/sessions/{id}/budget");
            conn.send(&[client::encode("GET", &path, "")]).unwrap();
        }
        for id in &sessions[..2] {
            let reply = conn.recv().unwrap();
            assert_eq!(reply.status, 200, "{reply:?}");
            let answered = reply.json().unwrap().get("session").and_then(Json::as_u64);
            assert_eq!(answered, Some(*id));
        }
        // One write carrying a request for each shard and a cross-shard
        // one: three responses, in order.
        let burst: Vec<String> = sessions[..2]
            .iter()
            .map(|id| client::encode("GET", &format!("/v1/sessions/{id}/budget"), ""))
            .chain([client::encode("GET", "/healthz", "")])
            .collect();
        conn.send(&burst).unwrap();
        for id in &sessions[..2] {
            let reply = conn.recv().unwrap();
            assert_eq!(reply.status, 200, "{reply:?}");
            let answered = reply.json().unwrap().get("session").and_then(Json::as_u64);
            assert_eq!(answered, Some(*id));
        }
        let reply = conn.recv().unwrap();
        assert_eq!(reply.status, 200, "{reply:?}");
        let status = reply
            .json()
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            .map(String::from);
        assert_eq!(status.as_deref(), Some("ok"), "{reply:?}");

        // `Connection: close` is honored.
        conn.send(&["GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n".into()])
            .unwrap();
        let reply = conn.recv().unwrap();
        assert!(reply.head.contains("Connection: close"), "{reply:?}");
        let closed = conn.recv().unwrap_err();
        assert_eq!(
            closed.kind(),
            ErrorKind::UnexpectedEof,
            "server must close after Connection: close: {closed}"
        );

        handle.stop();
        handle.join();
    }

    /// Serves one request on a keep-alive connection, stops the server
    /// through `stop` while that connection sits idle, and checks that
    /// `join` returns within 2 s and the client then reads EOF.
    fn idle_connection_does_not_hold_up_shutdown(stop: impl FnOnce(&ShardServerHandle)) {
        let tenants = split_tenants(1, 1);
        let handle =
            serve_sharded("127.0.0.1:0", demo_set(1, &tenants), ServeConfig::default()).unwrap();
        let mut idle = client::Conn::connect(handle.addr()).unwrap();
        idle.send(&[client::encode("GET", "/healthz", "")]).unwrap();
        assert_eq!(idle.recv().unwrap().status, 200);

        stop(&handle);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            handle.join();
            let _ = done_tx.send(());
        });
        assert!(
            done_rx.recv_timeout(Duration::from_secs(2)).is_ok(),
            "join must not wait for an idle keep-alive connection"
        );
        let eof = idle.recv().unwrap_err();
        assert_eq!(eof.kind(), ErrorKind::UnexpectedEof, "{eof}");
    }

    #[test]
    fn stop_ends_idle_keep_alive_connections() {
        idle_connection_does_not_hold_up_shutdown(|handle| handle.stop());
    }

    #[test]
    fn admin_shutdown_ends_idle_keep_alive_connections() {
        idle_connection_does_not_hold_up_shutdown(|handle| {
            let (status, _) =
                client::request(handle.addr(), "POST", "/v1/admin/shutdown", Some("{}")).unwrap();
            assert_eq!(status, 202);
        });
    }

    #[test]
    fn session_create_routes_by_the_dataset_the_router_opens() {
        let tenants = split_tenants(2, 1);
        let set = demo_set(2, &tenants);
        let (decoy, target) = (&tenants[0], &tenants[1]);
        let owner = set.ring().shard_for(target);
        assert_ne!(set.ring().shard_for(decoy), owner);
        let escaped = target.replacen('t', "\\u0074", 1);
        let bodies = [
            // `Json::get` is last-wins, so the router opens `target`.
            format!(r#"{{"dataset":"{decoy}","dataset":"{target}","budget":10}}"#),
            // The router decodes the escape before it looks the name up.
            format!(r#"{{"dataset":"{escaped}","budget":10}}"#),
            format!(r#"{{"dataset":"{target}","budget":10}}"#),
        ];
        let query = r#"{"query":"BIN t ON COUNT(*) WHERE W = { v IN [0, 4), v IN [4, 8) } ERROR 4 CONFIDENCE 0.95;"}"#;
        for body in &bodies {
            let resp = dispatch(&set, &Request::new("POST", "/v1/sessions", body));
            assert_eq!(resp.status, 201, "{body}: {}", resp.body);
            let created = crate::json::parse(&resp.body).unwrap();
            let id = created.get("session").and_then(Json::as_u64).unwrap();
            assert_eq!(session_shard(id), owner, "{body}");
            // Drain the session: answer until denied.
            let path = format!("/v1/sessions/{id}/query");
            for _ in 0..1000 {
                let resp = dispatch(&set, &Request::new("POST", &path, query));
                if resp.status != 200 {
                    assert_eq!(resp.status, 409, "{}", resp.body);
                    break;
                }
            }
        }
        let spent = set.spent(target);
        assert!(
            spent <= 10.0,
            "{target} spent {spent} > B = 10 across shards"
        );
    }

    #[test]
    fn a_fresh_rendezvous_server_admits_its_first_request() {
        // `serve_sharded` returns without waiting for its workers to
        // start: a request that beats them waits in the queue and must
        // still be served. That race shows only now and then, so many
        // startups make it show.
        let tenants = split_tenants(1, 1);
        let body = format!("{{\"dataset\":\"{}\",\"budget\":1.0}}", tenants[0]);
        for _ in 0..300 {
            let handle =
                serve_sharded("127.0.0.1:0", demo_set(1, &tenants), ServeConfig::default())
                    .unwrap();
            let (status, reply) =
                client::request(handle.addr(), "POST", "/v1/sessions", Some(&body)).unwrap();
            assert_eq!(status, 201, "{reply:?}");
            handle.stop();
            handle.join();
        }
    }

    #[test]
    fn full_shard_queue_answers_503_with_retry_after() {
        // One shard, ONE worker: while it is busy, requests past the
        // queue's bound must shed with 503.
        let cache = TranslatorCache::with_capacity(16);
        let set = Arc::new(ShardSet::build(1, |_| {
            ServerState::builder_with_cache(cache.clone()).dataset(
                "wide",
                {
                    let schema = Schema::new(vec![Attribute::new(
                        "v",
                        Domain::IntRange { min: 0, max: 4095 },
                    )])
                    .unwrap();
                    let mut d = Dataset::empty(schema);
                    for i in 0..32 {
                        d.push(vec![Value::Int(i * 128)]).unwrap();
                    }
                    d
                },
                EngineConfig {
                    budget: 100.0,
                    mode: Mode::Pessimistic,
                    seed: 7,
                },
            )
        }));
        let cfg = ServeConfig {
            workers_per_shard: 1,
        };
        let handle = serve_sharded("127.0.0.1:0", set, cfg).unwrap();
        let addr = handle.addr();

        let (status, created) = client::request(
            addr,
            "POST",
            "/v1/sessions",
            Some("{\"dataset\":\"wide\",\"budget\":50.0}"),
        )
        .unwrap();
        assert_eq!(status, 201, "{created:?}");
        let id = created.get("session").and_then(Json::as_u64).unwrap();
        let path = format!("/v1/sessions/{id}/budget");

        // Fresh, never-cached cold workloads occupy the only worker for
        // as long as it takes: a prefix workload of a different length
        // each round is a different matrix, so every round pays a full
        // Monte-Carlo prepare whatever the profile or the prepare's speed.
        let stop = AtomicBool::new(false);
        let got_503 = std::thread::scope(|scope| {
            let occupier = scope.spawn(|| {
                let mut round = 0;
                while !stop.load(Ordering::SeqCst) {
                    let preds: Vec<String> = (1..=40 + round % 200)
                        .map(|i| format!("v IN [0, {})", i * 16))
                        .collect();
                    let query = format!(
                        "BIN wide ON COUNT(*) WHERE W = {{ {} }} ERROR 200 CONFIDENCE 0.99;",
                        preds.join(", ")
                    );
                    let body = format!("{{\"query\":{}}}", Json::from(query).render());
                    let (status, _) = client::request(
                        addr,
                        "POST",
                        &format!("/v1/sessions/{id}/query"),
                        Some(&body),
                    )
                    .unwrap();
                    // Shed itself when the probes fill the queue.
                    assert!(
                        matches!(status, 200 | 409 | 503),
                        "occupying query returned {status}"
                    );
                    round += 1;
                }
            });
            // …so a burst of more requests than the queue holds must shed
            // with 503 + Retry-After (raw replies: the header must be on
            // the wire). Reading every reply before the next burst means
            // the queue has drained, with no wait and no sleep.
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut got = false;
            while !got && Instant::now() < deadline {
                let mut probes: Vec<client::Conn> = (0..QUEUE_CAP + 32)
                    .map(|_| client::Conn::connect(addr).unwrap())
                    .collect();
                for probe in &mut probes {
                    probe.send(&[client::encode("GET", &path, "")]).unwrap();
                }
                for probe in &mut probes {
                    let reply = probe.recv().unwrap();
                    if reply.status == 503 {
                        assert!(reply.head.contains("Retry-After: 1"), "{reply:?}");
                        got = true;
                    } else {
                        // Admitted to the queue: 200 is the only other
                        // legal outcome.
                        assert_eq!(reply.status, 200, "{reply:?}");
                    }
                }
            }
            stop.store(true, Ordering::SeqCst);
            occupier.join().unwrap();
            got
        });
        assert!(
            got_503,
            "a burst past the queue bound with a busy worker must shed at least one 503"
        );
        // The pressure is gone and every reply was read: the next
        // request is admitted and answered.
        let (status, _) = client::request(addr, "GET", &path, None).unwrap();
        assert_eq!(status, 200, "a drained shard must admit the next request");

        handle.stop();
        handle.join();
    }

    #[test]
    fn in_memory_set_recovers_nothing_but_durable_set_recovers_per_shard() {
        let root = crate::testutil::temp_dir("shardset");
        let tenants = split_tenants(2, 2);
        let cache = TranslatorCache::with_capacity(64);
        let mk = |k: usize| {
            let mut b = ServerState::builder_with_cache(cache.clone());
            for (i, name) in tenants.iter().enumerate() {
                b = b.dataset(
                    name,
                    tiny_dataset(8),
                    EngineConfig {
                        budget: 10.0,
                        mode: Mode::Optimistic,
                        seed: 0xD00D + (k as u64) * 10 + i as u64,
                    },
                );
            }
            b
        };
        let opts = |dir: &Path| PersistOptions {
            sync: false,
            ..PersistOptions::new(dir)
        };

        let spent: Vec<f64> = {
            let (set, _) = ShardSet::recover(&root, 2, mk, opts).unwrap();
            let acc = apex_query::AccuracySpec::new(25.0, 0.05).unwrap();
            let query = apex_query::ExplorationQuery::wcq(vec![
                apex_data::Predicate::range("v", 0.0, 4.0),
                apex_data::Predicate::range("v", 4.0, 8.0),
            ]);
            for name in &tenants {
                let shard = set.ring().shard_for(name);
                let id = set.state(shard).create_session(name, 2.0).unwrap().unwrap();
                assert_eq!(session_shard(id), shard);
                set.state(shard).submit(id, &query, &acc).unwrap();
            }
            tenants.iter().map(|n| set.spent(n)).collect()
            // Dropped WITHOUT compaction: recovery replays per-shard WALs.
        };
        assert!(spent.iter().all(|s| *s > 0.0));

        let (set, reports) = ShardSet::recover(&root, 2, mk, opts).unwrap();
        assert_eq!(reports.len(), 2);
        assert!(
            reports.iter().all(|r| r.replayed > 0),
            "both shards must have had WAL to replay: {reports:?}"
        );
        for (name, before) in tenants.iter().zip(&spent) {
            let after = set.spent(name);
            assert!(
                (after - before).abs() < 1e-9,
                "{name}: recovered {after} != acked {before}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_refuses_spend_stranded_by_a_reshard() {
        // A tenant the 2-shard ring moves off shard 0, charged while one
        // shard owned everything.
        let root = crate::testutil::temp_dir("reshard");
        let moved = split_tenants(2, 1).pop().unwrap();
        assert_eq!(ShardRing::new(2).shard_for(&moved), 1);
        let budget = 10.0;
        let mk = |_: usize| {
            ServerState::builder(4).dataset(
                &moved,
                tiny_dataset(8),
                EngineConfig {
                    budget,
                    mode: Mode::Optimistic,
                    seed: 0x5EED,
                },
            )
        };
        let opts = |dir: &Path| PersistOptions {
            sync: false,
            ..PersistOptions::new(dir)
        };
        let spent = {
            let (set, _) = ShardSet::recover(&root, 1, mk, opts).unwrap();
            let acc = apex_query::AccuracySpec::new(25.0, 0.05).unwrap();
            let query =
                apex_query::ExplorationQuery::wcq(vec![apex_data::Predicate::range("v", 0.0, 4.0)]);
            let id = set.state(0).create_session(&moved, 2.0).unwrap().unwrap();
            set.state(0).submit(id, &query, &acc).unwrap();
            set.spent(&moved)
        };
        assert!(spent > 0.0);

        // Two shards: the new owner would start from a fresh ledger and
        // let the tenant spend B again, so the boot is refused.
        match ShardSet::recover(&root, 2, mk, opts) {
            Err(RecoverError::MovedSpend {
                tenant,
                shard,
                owner,
                spent: stranded,
            }) => {
                assert_eq!((tenant.as_str(), shard, owner), (moved.as_str(), 0, 1));
                assert_eq!(stranded.to_bits(), spent.to_bits());
            }
            Ok((set, _)) => panic!(
                "recovered; the new owner reports remaining {} of B = {budget}",
                set.owner(&moved).tenant(&moved).unwrap().engine.remaining()
            ),
            Err(e) => panic!("wrong refusal: {e}"),
        }
        // The refusal touched nothing: the original shard count recovers
        // the same spend.
        let (set, _) = ShardSet::recover(&root, 1, mk, opts).unwrap();
        assert_eq!(set.spent(&moved).to_bits(), spent.to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_refuses_a_live_session_stranded_by_a_reshard() {
        // A tenant the 2-shard ring moves off shard 0, with a session open
        // for all of B and nothing spent yet.
        let root = crate::testutil::temp_dir("reshard-session");
        let moved = split_tenants(2, 1).pop().unwrap();
        let mk = |_: usize| lone_tenant(&moved);
        {
            let (set, _) = ShardSet::recover(&root, 1, mk, unsynced).unwrap();
            let id = set.state(0).create_session(&moved, 10.0).unwrap();
            assert!(id.is_some());
        }

        // Two shards: the session's id still routes to shard 0, which
        // would charge its ledger, while the owner charges a fresh one.
        let Err(err) = ShardSet::recover(&root, 2, mk, unsynced) else {
            panic!("recovered a live session that two ledgers could charge");
        };
        assert!(
            matches!(&err, RecoverError::MovedSpend { tenant, shard: 0, owner: 1, spent }
                if *tenant == moved && *spent == 0.0),
            "wrong refusal: {err}"
        );
        assert!(err.to_string().contains(moved.as_str()), "{err}");
        // The original shard count still recovers the session.
        let (set, _) = ShardSet::recover(&root, 1, mk, unsynced).unwrap();
        assert_eq!(set.state(0).session_count_for(&moved), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_refuses_row_mutations_stranded_by_a_reshard() {
        // A resident tenant the 2-shard ring moves off shard 0, with two
        // acked row inserts logged under shard 0 and no spend.
        let root = crate::testutil::temp_dir("reshard-rows");
        let moved = split_tenants(2, 1).pop().unwrap();
        let (mk, opts) = (|_: usize| lone_tenant(&moved), unsynced);
        let scan = |set: &ShardSet| {
            let t = set.owner(&moved).tenant(&moved).unwrap();
            t.engine.with_engine(|e| e.dataset_scan_rows())
        };
        let rows = {
            let (set, _) = ShardSet::recover(&root, 1, mk, opts).unwrap();
            let inserted = [vec![Value::Int(3)], vec![Value::Int(5)]];
            set.state(0).mutate_rows(&moved, true, &inserted).unwrap();
            scan(&set)
        };
        assert_eq!(rows, 18);

        // Two shards: the owner would attach an empty log under shard-1
        // and serve the 16 base rows.
        match ShardSet::recover(&root, 2, mk, opts) {
            Err(RecoverError::MovedSpend {
                tenant,
                shard,
                owner,
                spent,
            }) => assert_eq!(
                (tenant.as_str(), shard, owner, spent),
                (moved.as_str(), 0, 1, 0.0)
            ),
            Ok((set, _)) => panic!(
                "recovered; the owner scans {} rows, acked {rows}",
                scan(&set)
            ),
            Err(e) => panic!("wrong refusal: {e}"),
        }
        let (set, _) = ShardSet::recover(&root, 1, mk, opts).unwrap();
        assert_eq!(scan(&set), rows);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_refuses_spend_left_past_a_shrunk_ring() {
        // A tenant the 2-shard ring puts on shard 1, charged there; at
        // 1 shard its owner is shard 0, and `shard-1/` is past the ring.
        let root = crate::testutil::temp_dir("shrink");
        let moved = split_tenants(2, 1).pop().unwrap();
        let (mk, opts) = (|_: usize| lone_tenant(&moved), unsynced);
        let spent = {
            let (set, _) = ShardSet::recover(&root, 2, mk, opts).unwrap();
            let acc = apex_query::AccuracySpec::new(25.0, 0.05).unwrap();
            let query =
                apex_query::ExplorationQuery::wcq(vec![apex_data::Predicate::range("v", 0.0, 4.0)]);
            let id = set.state(1).create_session(&moved, 2.0).unwrap().unwrap();
            set.state(1).submit(id, &query, &acc).unwrap();
            set.spent(&moved)
        };
        assert!(spent > 0.0);

        match ShardSet::recover(&root, 1, mk, opts) {
            Err(RecoverError::MovedSpend {
                tenant,
                shard,
                owner,
                spent: stranded,
            }) => {
                assert_eq!((tenant.as_str(), shard, owner), (moved.as_str(), 1, 0));
                assert_eq!(stranded.to_bits(), spent.to_bits());
            }
            Ok((set, _)) => panic!("recovered; shard 0 reports spent {}", set.spent(&moved)),
            Err(e) => panic!("wrong refusal: {e}"),
        }
        let (set, _) = ShardSet::recover(&root, 2, mk, opts).unwrap();
        assert_eq!(set.spent(&moved).to_bits(), spent.to_bits());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn recovery_drops_the_bare_ledgers_every_shard_used_to_hold() {
        // A 2-shard dir in the layout where every shard registered every
        // tenant: each shard's snapshot names all four, and only the
        // owners were charged.
        let root = crate::testutil::temp_dir("upgrade");
        let tenants = split_tenants(2, 2);
        let ring = ShardRing::new(2);
        let cache = TranslatorCache::with_capacity(64);
        let every = |k: usize| {
            let mut b = ServerState::builder_with_cache(cache.clone());
            for (i, name) in tenants.iter().enumerate() {
                b = b.dataset(
                    name,
                    tiny_dataset(8),
                    EngineConfig {
                        budget: 10.0,
                        mode: Mode::Optimistic,
                        seed: 0x0DD + (k as u64) * 10 + i as u64,
                    },
                );
            }
            b
        };
        let opts = unsynced;
        let acc = apex_query::AccuracySpec::new(25.0, 0.05).unwrap();
        let query =
            apex_query::ExplorationQuery::wcq(vec![apex_data::Predicate::range("v", 0.0, 4.0)]);
        let mut charged = Vec::new();
        for k in 0..2 {
            let dir = snapshot::shard_dir(&root, k);
            let (state, _) = every(k).build_recovered(opts(&dir)).unwrap();
            for name in tenants.iter().filter(|n| ring.shard_for(n) == k) {
                let id = state.create_session(name, 2.0).unwrap().unwrap();
                state.submit(id, &query, &acc).unwrap();
                state.expire_session(id).unwrap();
                charged.push((name.clone(), state.tenant(name).unwrap().engine.spent()));
            }
            let named = snapshot::read_snapshot(&dir)
                .unwrap()
                .unwrap()
                .tenants
                .len();
            assert_eq!(named, tenants.len(), "shard {k} must hold every tenant");
        }
        assert!(charged.iter().all(|(_, spent)| *spent > 0.0));

        let (set, _) = ShardSet::recover(&root, 2, every, opts).unwrap();
        for (name, spent) in &charged {
            assert_eq!(set.spent(name).to_bits(), spent.to_bits(), "{name}");
        }
        for k in 0..2 {
            let snap = snapshot::read_snapshot(&snapshot::shard_dir(&root, k));
            for t in snap.unwrap().unwrap().tenants {
                assert_eq!(
                    ring.shard_for(&t.name),
                    k,
                    "shard {k} still names {}",
                    t.name
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn each_tenant_is_registered_only_on_its_ring_owner() {
        for shards in [1usize, 2, 4] {
            let tenants = split_tenants(shards, 2);
            let every = |_: usize| {
                let mut b = ServerState::builder(16);
                for name in &tenants {
                    let config = EngineConfig {
                        budget: 1.0,
                        mode: Mode::Optimistic,
                        seed: 1,
                    };
                    b = b.dataset(name, tiny_dataset(8), config);
                }
                b
            };
            let root = crate::testutil::temp_dir("owners");
            let built = ShardSet::build(shards, every);
            let (recovered, _) = ShardSet::recover(&root, shards, every, unsynced).unwrap();
            for (how, set) in [("build", &built), ("recover", &recovered)] {
                for name in &tenants {
                    let holders: Vec<usize> = (0..shards)
                        .filter(|&k| set.state(k).tenant(name).is_some())
                        .collect();
                    let owner = set.ring().shard_for(name);
                    assert_eq!(holders, vec![owner], "{how} at {shards} shards: {name}");
                }
            }
            drop(recovered);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
