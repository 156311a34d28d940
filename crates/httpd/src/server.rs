//! The fault-tolerant server proper (§11, after \[8\]).
//!
//! Per connection the server makes "heavy use of time-outs,
//! multithreading and exceptions", all via the paper's combinators:
//!
//! * `forkIO` per connection;
//! * [`timeout`] on reading the request (defeats stalled clients) and on
//!   running the handler (defeats slow handlers) — composable because
//!   timeouts carry no exception (§7.3);
//! * `catch` around the handler, turning crashes into `500`s;
//! * graceful shutdown by `throwTo KillThread` at the acceptor — safe
//!   because a blocked `accept` is an interruptible operation (§5.3).
//!
//! The counters live in a **single** `MVar` cell updated with the §7.4
//! masked pattern (no `unblock`), so every bookkeeping step — accepting,
//! shedding, recording an outcome together with the active decrement —
//! is one all-or-nothing transaction. The schedule explorer found the
//! alternative (one `MVar` per counter, `modify_mvar`-style updates)
//! unsound three different ways: `with_mvar`'s internal `unblock`
//! re-opens delivery inside the acceptor's masked section, two cells can
//! never be bumped atomically, and a snapshot read across ten cells
//! tears. With one cell, a `KillThread` can land only while the `take`
//! is still *blocked* — before anything was taken, so nothing is torn.

use std::rc::Rc;

use conch_combinators::{kill_thread, timeout, Either};
use conch_runtime::exception::Exception;
use conch_runtime::ids::ThreadId;
use conch_runtime::io::Io;
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

use crate::http::{parse_request, Request, Response};
use crate::net::{Connection, Listener};

/// A request handler: maps a request to an `Io` action producing a
/// response. Shared across connections, hence `Rc<dyn Fn…>`.
pub type Handler = Rc<dyn Fn(Request) -> Io<Response>>;

/// Wraps a plain closure as a [`Handler`].
pub fn handler(f: impl Fn(Request) -> Io<Response> + 'static) -> Handler {
    Rc::new(f)
}

/// Server tuning knobs (virtual microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Budget for receiving the complete request.
    pub read_timeout: u64,
    /// Budget for the handler to produce a response.
    pub handler_timeout: u64,
    /// Load-shedding threshold: when this many connections are already
    /// active, new connections are answered `503` + `Retry-After`
    /// instead of getting a worker.
    pub max_active: i64,
    /// The `Retry-After` hint (virtual seconds) on shed responses.
    pub retry_after: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: 10_000,
            handler_timeout: 50_000,
            max_active: 64,
            retry_after: 1,
        }
    }
}

/// Per-server counters, held in a **single** `MVar` cell — one
/// transactional unit, updated with the §7.4 masked pattern.
///
/// The design is forced by asynchronous exceptions. Splitting the
/// counters over separate `MVar`s makes the conservation law
/// (`accepted == outcomes` once quiesced) unenforceable: two cells can
/// never change atomically, so a `KillThread` aimed at the acceptor or
/// a worker can always land *between* two bumps and strand an accepted
/// connection without an outcome. And the general-purpose update
/// combinators (`modify_mvar`, `with_mvar`) deliberately `unblock`
/// around the user computation — correct for arbitrary user code, but a
/// genuine delivery window when the caller thought it was masked. The
/// schedule explorer exhibited concrete interleavings for both failure
/// modes (see `shutdown_sync` and the `conch-faults` test-suite docs).
///
/// One cell fixes both: the whole snapshot is taken, mutated by pure
/// Rust code, and put back, fully masked. The only interruptible point
/// is the `take` while it *blocks* — at which moment nothing has been
/// taken and nothing can tear.
#[derive(Debug, Clone, Copy)]
pub struct ServerStats {
    cell: MVar<StatsSnapshot>,
}

/// The counters themselves — both the live state inside the
/// [`ServerStats`] cell and the value returned by an atomic
/// [`snapshot`](ServerStats::snapshot).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests answered with the handler's response.
    pub served: i64,
    /// Requests whose read phase timed out (answered 408).
    pub read_timeouts: i64,
    /// Requests whose handler timed out (answered 504).
    pub handler_timeouts: i64,
    /// Requests whose handler raised (answered 500).
    pub handler_errors: i64,
    /// Requests that failed to parse (answered 400).
    pub parse_errors: i64,
    /// Connections currently being handled.
    pub active: i64,
    /// Connections taken off the accept queue — the left-hand side of
    /// the conservation law: every accepted connection ends up in
    /// exactly one of `served`, `read_timeouts`, `handler_timeouts`,
    /// `handler_errors`, `parse_errors`, `aborted`, `killed` or `shed`.
    pub accepted: i64,
    /// Connections the peer closed mid-request (no response sent).
    pub aborted: i64,
    /// Workers terminated by an asynchronous exception (e.g. a
    /// `KillThread` storm) before recording any other outcome.
    pub killed: i64,
    /// Connections answered `503` by the load shedder.
    pub shed: i64,
}

impl StatsSnapshot {
    /// The sum of all terminal-outcome counters. Conservation means
    /// this equals [`accepted`](Self::accepted) whenever no connection
    /// is in flight (`active == 0`).
    pub fn outcomes(&self) -> i64 {
        self.served
            + self.read_timeouts
            + self.handler_timeouts
            + self.handler_errors
            + self.parse_errors
            + self.aborted
            + self.killed
            + self.shed
    }

    /// Checks the conservation law for a quiesced server: every
    /// accepted connection recorded exactly one outcome.
    pub fn conserved(&self) -> bool {
        self.active == 0 && self.outcomes() == self.accepted
    }

    /// Field-wise sum, for aggregating per-shard cells. The aggregate
    /// of quiescent shards obeys the same conservation law as a single
    /// cell: sums of `accepted` and of outcomes match when each shard's
    /// do (see the sharded-stats protocol in `crate::shard`).
    pub fn merge(mut self, other: &StatsSnapshot) -> StatsSnapshot {
        self.served += other.served;
        self.read_timeouts += other.read_timeouts;
        self.handler_timeouts += other.handler_timeouts;
        self.handler_errors += other.handler_errors;
        self.parse_errors += other.parse_errors;
        self.active += other.active;
        self.accepted += other.accepted;
        self.aborted += other.aborted;
        self.killed += other.killed;
        self.shed += other.shed;
        self
    }

    /// The field-wise sum of many snapshots (see [`merge`](Self::merge)).
    pub fn sum<'a>(snaps: impl IntoIterator<Item = &'a StatsSnapshot>) -> StatsSnapshot {
        snaps
            .into_iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merge(s))
    }
}

impl ServerStats {
    pub(crate) fn new() -> Io<ServerStats> {
        Io::new_mvar(StatsSnapshot::default()).map(|cell| ServerStats { cell })
    }

    /// Reads all counters in one atomic, masked transaction — a
    /// snapshot can never observe a half-committed update.
    pub fn snapshot(&self) -> Io<StatsSnapshot> {
        let cell = self.cell;
        Io::block(cell.take().and_then(move |s| cell.put(s).map(move |_| s)))
    }

    /// One §7.4 masked transaction over the counters: take, mutate with
    /// pure code, put back. No `unblock` anywhere, so once the `take`
    /// returns the commit is certain — the `put` back into the
    /// now-empty cell cannot block, and a masked thread is only ever
    /// interrupted at *blocking* operations. An asynchronous exception
    /// therefore either lands while the `take` still waits (nothing
    /// taken, nothing changed) or after the transaction is whole.
    pub(crate) fn txn<R, F>(&self, f: F) -> Io<R>
    where
        R: FromValue + IntoValue + Copy + 'static,
        F: FnOnce(&mut StatsSnapshot) -> R + 'static,
    {
        let cell = self.cell;
        Io::block(cell.take().and_then(move |mut s| {
            let r = f(&mut s);
            cell.put(s).map(move |_| r)
        }))
    }
}

/// The terminal outcome of one accepted connection — exactly one of
/// these is recorded per accept, in the same transaction that lowers
/// the active count ([`finish`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    Served,
    ReadTimeout,
    HandlerTimeout,
    HandlerError,
    ParseError,
    Aborted,
    Killed,
}

impl Outcome {
    fn record(self, s: &mut StatsSnapshot) {
        match self {
            Outcome::Served => s.served += 1,
            Outcome::ReadTimeout => s.read_timeouts += 1,
            Outcome::HandlerTimeout => s.handler_timeouts += 1,
            Outcome::HandlerError => s.handler_errors += 1,
            Outcome::ParseError => s.parse_errors += 1,
            Outcome::Aborted => s.aborted += 1,
            Outcome::Killed => s.killed += 1,
        }
    }
}

impl IntoValue for Outcome {
    fn into_value(self) -> Value {
        Value::Int(self as i64)
    }
}

impl FromValue for Outcome {
    fn from_value(v: Value) -> Option<Self> {
        match v.as_int()? {
            0 => Some(Outcome::Served),
            1 => Some(Outcome::ReadTimeout),
            2 => Some(Outcome::HandlerTimeout),
            3 => Some(Outcome::HandlerError),
            4 => Some(Outcome::ParseError),
            5 => Some(Outcome::Aborted),
            6 => Some(Outcome::Killed),
            _ => None,
        }
    }
}

impl IntoValue for ServerStats {
    fn into_value(self) -> Value {
        self.cell.into_value()
    }
}

impl FromValue for ServerStats {
    fn from_value(v: Value) -> Option<Self> {
        Some(ServerStats {
            cell: MVar::from_value(v)?,
        })
    }
}

impl IntoValue for StatsSnapshot {
    fn into_value(self) -> Value {
        Value::List(vec![
            Value::Int(self.served),
            Value::Int(self.read_timeouts),
            Value::Int(self.handler_timeouts),
            Value::Int(self.handler_errors),
            Value::Int(self.parse_errors),
            Value::Int(self.active),
            Value::Int(self.accepted),
            Value::Int(self.aborted),
            Value::Int(self.killed),
            Value::Int(self.shed),
        ])
    }
}

impl FromValue for StatsSnapshot {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::List(xs) if xs.len() == 10 => {
                let ints: Option<Vec<i64>> = xs.into_iter().map(|x| x.as_int()).collect();
                let ints = ints?;
                Some(StatsSnapshot {
                    served: ints[0],
                    read_timeouts: ints[1],
                    handler_timeouts: ints[2],
                    handler_errors: ints[3],
                    parse_errors: ints[4],
                    active: ints[5],
                    accepted: ints[6],
                    aborted: ints[7],
                    killed: ints[8],
                    shed: ints[9],
                })
            }
            _ => None,
        }
    }
}

impl IntoValue for Server {
    fn into_value(self) -> Value {
        Value::List(vec![
            Value::ThreadId(self.acceptor),
            self.stats.into_value(),
            self.workers.into_value(),
        ])
    }
}

impl FromValue for Server {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::List(xs) if xs.len() == 3 => {
                let mut it = xs.into_iter();
                Some(Server {
                    acceptor: it.next()?.as_thread_id()?,
                    stats: ServerStats::from_value(it.next()?)?,
                    workers: MVar::from_value(it.next()?)?,
                })
            }
            _ => None,
        }
    }
}

/// A running server: the acceptor's thread id plus the shared counters
/// and worker registry. The classic server, the pooled server and every
/// shard of the sharded plane are each one `Server`, so they share one
/// shutdown, drain and audit.
#[derive(Debug, Clone, Copy)]
pub struct Server {
    /// The acceptor thread (kill it to stop accepting).
    pub acceptor: ThreadId,
    /// Shared counters.
    pub stats: ServerStats,
    /// Every worker thread the acceptor ever forked (a `Value::List`
    /// of `ThreadId`s) — the registry a fault injector aims its
    /// `KillThread` storms at. Ids are never removed: throwing to a
    /// finished worker is a no-op thanks to generation-tagged ids.
    pub workers: MVar<Value>,
}

impl Server {
    /// Allocates a fresh stats cell and worker registry, then forks the
    /// acceptor that `acceptor` builds from them.
    pub(crate) fn spawn(
        acceptor: impl FnOnce(ServerStats, MVar<Value>) -> Io<()> + 'static,
    ) -> Io<Server> {
        ServerStats::new().and_then(move |stats| {
            new_registry().and_then(move |workers| {
                Io::fork(acceptor(stats, workers)).map(move |acceptor| Server {
                    acceptor,
                    stats,
                    workers,
                })
            })
        })
    }

    /// Stops accepting new connections (in-flight requests finish).
    ///
    /// `accept` blocks on an `MVar`, an interruptible operation, so the
    /// `KillThread` lands even though the acceptor spends its life
    /// blocked — the whole reason §5.3 exists.
    pub fn shutdown(&self) -> Io<()> {
        kill_thread(self.acceptor)
    }

    /// Stops accepting with the §9 *synchronous* `throwTo`: returns
    /// only once the `KillThread` has actually been delivered, i.e.
    /// the acceptor is dead and will never account another connection.
    ///
    /// This is the shutdown to use before auditing the counters. With
    /// the asynchronous [`shutdown`](Self::shutdown), the acceptor may
    /// still be mid-iteration (masked, bookkeeping an accept) when the
    /// caller moves on — a concurrent [`drain`](Self::drain) +
    /// [`snapshot`](ServerStats::snapshot) can then observe a *torn*
    /// state: `accepted` already bumped, the worker's `active` not yet
    /// visible, nothing recorded. The schedule explorer found exactly
    /// that interleaving; synchronous delivery closes it, because the
    /// throw cannot land inside the acceptor's masked bookkeeping —
    /// only while it waits in `accept` or between iterations.
    pub fn shutdown_sync(&self) -> Io<()> {
        Io::throw_to_sync(self.acceptor, Exception::kill_thread())
    }

    /// Waits (by polling the active counter) until every in-flight
    /// connection has finished. Because a worker's outcome is recorded
    /// in the *same transaction* as its active decrement, `drain`
    /// returning means every finished connection's outcome is already
    /// visible.
    pub fn drain(&self) -> Io<()> {
        let server = *self;
        self.stats.snapshot().and_then(move |s| {
            if s.active == 0 {
                Io::unit()
            } else {
                Io::sleep(100).then(server.drain())
            }
        })
    }

    /// Every worker thread id the acceptor ever forked, in fork order.
    pub fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        conch_combinators::with_mvar(self.workers, Io::pure).map(|v| match v {
            Value::List(xs) => xs.into_iter().filter_map(|x| x.as_thread_id()).collect(),
            _ => Vec::new(),
        })
    }
}

/// Starts the server: forks the acceptor loop and returns immediately.
pub fn start(listener: Listener, h: Handler, config: ServerConfig) -> Io<Server> {
    Server::spawn(move |stats, workers| accept_loop(listener, h, config, stats, workers))
}

/// An empty worker registry.
pub(crate) fn new_registry() -> Io<MVar<Value>> {
    Io::new_mvar(Value::List(Vec::new()))
}

/// Appends a freshly forked worker's id to the registry. The push is
/// pure and runs entirely masked between `take` and `put`: it cannot
/// throw, so there is nothing to roll back and no copy of the list to
/// keep (a rollback copy per append is O(n²) over a server's life). A
/// kill can only land while `take` still waits, before the value is
/// held; the worker is then already forked and accounted — it merely
/// goes unregistered, which only makes it invisible to kill storms.
pub(crate) fn register_worker(workers: MVar<Value>, tid: ThreadId) -> Io<()> {
    Io::block(workers.take().and_then(move |v| {
        let mut xs = match v {
            Value::List(xs) => xs,
            _ => Vec::new(),
        };
        xs.push(Value::ThreadId(tid));
        workers.put(Value::List(xs))
    }))
}

/// The acceptor: accept, account, shed or fork a worker, loop. The
/// post-accept bookkeeping runs inside `block` so a graceful-shutdown
/// `KillThread` can only land while the acceptor *waits* (accept is an
/// interruptible operation, §5.3) — never between taking a connection
/// off the queue and accounting for it, which would strand the
/// connection outside the conservation law.
fn accept_loop(
    listener: Listener,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
    workers: MVar<Value>,
) -> Io<()> {
    let h2 = Rc::clone(&h);
    Io::block(listener.accept().and_then(move |conn| {
        // One transaction decides shedding and accounts the connection:
        // `accepted` rises, and *in the same commit* either `shed`
        // rises (no worker spent) or `active` does (a worker will be
        // forked). There is no interleaving in which `drain` can
        // observe an accepted connection that is neither shed, active,
        // nor recorded — the torn states the explorer kept finding when
        // these were separate cells.
        stats
            .txn(move |s| {
                s.accepted += 1;
                let shed = s.active >= config.max_active;
                if shed {
                    s.shed += 1;
                } else {
                    s.active += 1;
                }
                shed
            })
            .and_then(move |shed| {
                if shed {
                    // Graceful degradation: answer 503 + Retry-After
                    // without spending a worker. `send_response` never
                    // blocks, so the shed path cannot wedge the acceptor.
                    conn.send_response(Response::unavailable(config.retry_after).render())
                } else {
                    // The worker inherits the acceptor's mask, so its
                    // killed-path catch is installed before any
                    // asynchronous exception can land.
                    let worker = handle_connection(conn, Rc::clone(&h), config, stats);
                    Io::fork(worker).and_then(move |tid| register_worker(workers, tid))
                }
            })
    }))
    .and_then(move |_| accept_loop(listener, h2, config, stats, workers))
}

/// Handles one connection: the case study's core choreography, plus
/// the hardening pass — every exit path (normal outcome, peer abort,
/// asynchronous kill) funnels into [`finish`], which records exactly
/// one outcome counter *in the same transaction* as the active
/// decrement. `drain` returning therefore means every outcome has
/// already been recorded.
///
/// Expects `active` to have been raised by the acceptor's accept
/// transaction (see `accept_loop`); the worker only lowers it.
pub fn handle_connection(
    conn: Connection,
    h: Handler,
    config: ServerConfig,
    stats: ServerStats,
) -> Io<()> {
    // Runs masked when forked by the acceptor (mask inheritance), and
    // the catch is installed while still masked: a catch handler runs
    // at its *saved* mask. Only serve_one runs unblocked. Anything
    // still uncaught after serve_one's own recovery is a worker torn
    // down by an asynchronous exception (e.g. a KillThread storm) —
    // its outcome is `Killed`.
    Io::unblock(serve_one(conn, h, config))
        .catch(|_| Io::pure(Outcome::Killed))
        .and_then(move |outcome| finish(stats, outcome))
}

/// The worker's single commit point: record the connection's outcome
/// and lower the active count, atomically. If a `KillThread` lands
/// while the transaction's `take` is still blocked (the cell is
/// contended — `drain` polls it), nothing was committed yet: catch and
/// retry with the *same* outcome. Each storm strike can force at most
/// one retry, so any finite storm terminates.
pub(crate) fn finish(stats: ServerStats, outcome: Outcome) -> Io<()> {
    stats
        .txn(move |s| {
            debug_assert!(s.active > 0, "active underflow recording {outcome:?}");
            outcome.record(s);
            s.active -= 1;
        })
        .catch(move |_| finish(stats, outcome))
}

/// Serves one single-shot connection: read the request under the read
/// budget (`408` if it lapses), then [`serve_request`], then send.
pub(crate) fn serve_one(conn: Connection, h: Handler, config: ServerConfig) -> Io<Outcome> {
    let main =
        timeout(config.read_timeout, conn.read_request_text()).and_then(move |text| match text {
            None => conn
                .send_response(Response::status(408).render())
                .map(|_| Outcome::ReadTimeout),
            Some(text) => serve_request(text, h, config.handler_timeout)
                .and_then(move |(outcome, resp)| conn.send_response(resp).map(move |_| outcome)),
        });
    // A peer that closes mid-request is an aborted connection, not a
    // server failure: account it and send nothing (nobody is reading).
    main.catch(move |e| {
        if e == crate::net::connection_closed() {
            Io::pure(Outcome::Aborted)
        } else {
            Io::throw(e)
        }
    })
}

/// The request guard every front end shares: parse (`400` on failure),
/// run the handler under `handler_timeout` (`504` if it lapses) and turn
/// a crashed handler into a `500`. Returns the outcome with the rendered
/// response; the caller owns sending it.
///
/// §9 warns that a universal `catch` inside timed code can intercept the
/// timeout mechanism itself. Our `timeout` kills the racing computation
/// with `KillThread`, so the guard re-throws that and converts only
/// genuine handler failures into 500s. It *tags* the outcome (`Left` =
/// crashed, `Right` = answered) so that exactly one outcome is reported
/// per request.
pub(crate) fn serve_request(
    text: String,
    h: Handler,
    handler_timeout: u64,
) -> Io<(Outcome, String)> {
    match parse_request(&text) {
        Err(_) => Io::pure((Outcome::ParseError, Response::status(400).render())),
        Ok(req) => {
            let guarded = h(req).map(Either::<Response, Response>::Right).catch(|e| {
                if e.is_kill_thread() {
                    Io::throw(e)
                } else {
                    Io::pure(Either::Left(Response {
                        status: 500,
                        body: format!("handler failed: {e}"),
                        retry_after: None,
                    }))
                }
            });
            timeout(handler_timeout, guarded).map(|resp| match resp {
                None => (Outcome::HandlerTimeout, Response::status(504).render()),
                Some(Either::Right(r)) => (Outcome::Served, r.render()),
                Some(Either::Left(r)) => (Outcome::HandlerError, r.render()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conch_combinators::modify_mvar;
    use conch_runtime::prelude::*;

    fn hello_handler() -> Handler {
        handler(|req| Io::pure(Response::ok(format!("hello {}", req.path))))
    }

    fn run_one_request(
        h: Handler,
        cfg: ServerConfig,
        request_io: impl Fn(Connection) -> Io<()> + 'static,
    ) -> (String, StatsSnapshot) {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(l, h, cfg).and_then(move |server| {
                l.connect().and_then(move |conn| {
                    Io::fork(request_io(conn))
                        .then(conn.read_response())
                        .and_then(move |resp| {
                            server
                                .shutdown()
                                .then(server.drain())
                                .then(server.stats.snapshot())
                                .map(move |snap| (resp, snap))
                        })
                })
            })
        });
        rt.run(prog).unwrap()
    }

    #[test]
    fn serves_a_simple_request() {
        let (resp, snap) = run_one_request(hello_handler(), ServerConfig::default(), |c| {
            c.send_text(Request::get("/x").render())
        });
        assert!(resp.contains("200 OK"), "got {resp}");
        assert!(resp.ends_with("hello /x"));
        assert_eq!(snap.served, 1);
        assert_eq!(snap.active, 0);
    }

    #[test]
    fn malformed_request_gets_400() {
        let (resp, snap) = run_one_request(hello_handler(), ServerConfig::default(), |c| {
            c.send_text("NONSENSE\r\n\r\n")
        });
        assert!(resp.contains("400"), "got {resp}");
        assert_eq!(snap.parse_errors, 1);
    }

    #[test]
    fn stalled_client_gets_408() {
        let (resp, snap) = run_one_request(hello_handler(), ServerConfig::default(), |c| {
            // Send half a request and stall forever.
            c.send_text("GET / HT")
        });
        assert!(resp.contains("408"), "got {resp}");
        assert_eq!(snap.read_timeouts, 1);
    }

    #[test]
    fn slow_handler_gets_504() {
        let slow = handler(|_| Io::sleep(1_000_000).map(|_| Response::ok("too late")));
        let (resp, snap) = run_one_request(slow, ServerConfig::default(), |c| {
            c.send_text(Request::get("/").render())
        });
        assert!(resp.contains("504"), "got {resp}");
        assert_eq!(snap.handler_timeouts, 1);
        assert_eq!(snap.served, 0);
    }

    #[test]
    fn crashing_handler_gets_500() {
        let crashing = handler(|_| Io::<Response>::throw(Exception::error_call("bug in handler")));
        let (resp, snap) = run_one_request(crashing, ServerConfig::default(), |c| {
            c.send_text(Request::get("/").render())
        });
        assert!(resp.contains("500"), "got {resp}");
        assert!(resp.contains("bug in handler"));
        assert_eq!(snap.handler_errors, 1);
    }

    #[test]
    fn slow_client_within_budget_is_served() {
        let cfg = ServerConfig {
            read_timeout: 100_000,
            ..ServerConfig::default()
        };
        let (resp, snap) = run_one_request(hello_handler(), cfg, |c| {
            c.send_text_slowly(Request::get("/slow").render(), 100)
        });
        assert!(resp.contains("200"), "got {resp}");
        assert_eq!(snap.served, 1);
        assert_eq!(snap.read_timeouts, 0);
    }

    #[test]
    fn serves_many_concurrent_connections() {
        let mut rt = Runtime::new();
        let n: i64 = 8;
        let prog = Listener::bind().and_then(move |l| {
            start(l, hello_handler(), ServerConfig::default()).and_then(move |server| {
                // n clients, each on its own thread, each reporting success.
                Io::new_mvar(0_i64).and_then(move |done| {
                    conch_runtime::io::for_each(n as u64, move |i| {
                        let client = l.connect().and_then(move |conn| {
                            conn.send_text(Request::get(format!("/{i}")).render())
                                .then(conn.read_response())
                                .and_then(move |resp| {
                                    assert!(resp.contains("200"), "got {resp}");
                                    modify_mvar(done, |d| Io::pure(d + 1))
                                })
                        });
                        Io::fork(client)
                    })
                    .then(wait_for(done, n))
                    .then(server.shutdown())
                    .then(server.drain())
                    .then(server.stats.snapshot())
                })
            })
        });
        fn wait_for(done: MVar<i64>, n: i64) -> Io<()> {
            conch_combinators::with_mvar(done, Io::pure).and_then(move |d| {
                if d >= n {
                    Io::unit()
                } else {
                    Io::sleep(50).then(wait_for(done, n))
                }
            })
        }
        let snap = rt.run(prog).unwrap();
        assert_eq!(snap.served, n);
        assert_eq!(snap.active, 0);
    }

    #[test]
    fn serves_and_conserves_counters() {
        let (_, snap) = run_one_request(hello_handler(), ServerConfig::default(), |c| {
            c.send_text(Request::get("/x").render())
        });
        assert_eq!(snap.accepted, 1);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn mid_request_close_counts_aborted() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(l, hello_handler(), ServerConfig::default()).and_then(move |server| {
                l.connect().and_then(move |conn| {
                    // Half a request, then hang up.
                    conn.send_text("GET / HT")
                        .then(conn.close())
                        .then(server.drain())
                        .then(server.shutdown())
                        .then(server.stats.snapshot())
                })
            })
        });
        let snap = rt.run(prog).unwrap();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.aborted, 1);
        assert_eq!(snap.active, 0);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn load_shedding_answers_503_with_retry_after() {
        let cfg = ServerConfig {
            max_active: 0,
            retry_after: 7,
            ..ServerConfig::default()
        };
        let (resp, snap) = run_one_request(hello_handler(), cfg, |c| {
            c.send_text(Request::get("/x").render())
        });
        assert!(resp.contains("503"), "got {resp}");
        assert!(resp.contains("Retry-After: 7"), "got {resp}");
        assert_eq!(snap.shed, 1);
        assert_eq!(snap.served, 0);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn killed_worker_counts_killed_and_conserves() {
        let mut rt = Runtime::new();
        let prog = Listener::bind().and_then(move |l| {
            start(l, hello_handler(), ServerConfig::default()).and_then(move |server| {
                l.connect().and_then(move |_conn| {
                    // Send nothing: the worker parks in the request read.
                    // Give the acceptor time to fork it, then storm every
                    // registered worker with KillThread.
                    Io::sleep(100)
                        .then(server.worker_ids())
                        .and_then(move |tids| {
                            assert_eq!(tids.len(), 1, "one worker expected");
                            conch_runtime::io::sequence(
                                tids.iter().map(|t| kill_thread(*t)).collect(),
                            )
                        })
                        .then(server.drain())
                        .then(server.shutdown())
                        .then(server.stats.snapshot())
                })
            })
        });
        let snap = rt.run(prog).unwrap();
        assert_eq!(snap.accepted, 1);
        assert_eq!(snap.killed, 1);
        assert_eq!(snap.active, 0);
        assert!(snap.conserved(), "unbalanced counters: {snap:?}");
    }

    #[test]
    fn shutdown_stops_accepting_but_not_inflight() {
        let mut rt = Runtime::new();
        // A slow-ish handler; shutdown arrives mid-request; the in-flight
        // request still completes.
        let slowish = handler(|_| Io::sleep(5_000).map(|_| Response::ok("done")));
        let prog = Listener::bind().and_then(move |l| {
            start(l, slowish, ServerConfig::default()).and_then(move |server| {
                l.connect().and_then(move |conn| {
                    Io::fork(conn.send_text(Request::get("/").render()))
                        .then(Io::sleep(1_000)) // request is now in flight
                        .then(server.shutdown())
                        .then(conn.read_response())
                        .and_then(move |resp| server.drain().then(Io::pure(resp)))
                })
            })
        });
        let resp = rt.run(prog).unwrap();
        assert!(resp.contains("200"), "got {resp}");
    }
}
