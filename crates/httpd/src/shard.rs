//! The production-scale serving plane: N accept shards over keep-alive
//! [`FrameConnection`]s.
//!
//! The classic server accounts per *connection* through one stats cell
//! behind one accept loop; at 100k+ concurrent simulated clients that
//! single transactional `MVar<StatsSnapshot>` is the measured
//! bottleneck (every accept and every outcome serializes on it), and a
//! one-request-per-connection wire model pays a channel handoff per
//! byte. This module scales both axes:
//!
//! * **Sharding** — [`ShardedListener`] carries one bounded
//!   `Mailbox<FrameConnection>` accept queue *per shard*, and
//!   [`start_sharded`] forks one accept loop and one [`ServerStats`]
//!   cell per shard. Connections on different shards never contend on
//!   a stats cell or an accept queue.
//! * **Keep-alive + pipelining** — a connection carries many requests
//!   ([`FrameConnection`] frames concatenate into one byte stream);
//!   accounting moves from per-connection to **per-request**: a request
//!   enters the law when its final `\r\n\r\n` has been parsed out of
//!   the stream (`accepted += 1, active += 1` in one masked
//!   transaction) and leaves it through the same [`finish`] commit
//!   point the classic server uses.
//! * **Bounded per-connection allocation** — each connection reuses one
//!   read buffer (drained in place per parsed request) and one response
//!   buffer (flushed whenever the parse buffer holds no further
//!   complete request, so `k` pipelined requests cost one outbound
//!   channel send — a batched wakeup for the waiting client, not `k`).
//!
//! ## The quiescent-aggregate conservation law
//!
//! Per shard the law is the classic one: once `active == 0`, every
//! accepted request recorded exactly one outcome. The sharded audit
//! runs the classic protocol *per shard* and then sums:
//! [`ShardedServer::shutdown_sync`] kills every acceptor with the §9
//! synchronous throw (no shard can account another request),
//! [`ShardedServer::drain`] waits for every shard's `active` to reach
//! zero, and [`ShardedServer::aggregate`] sums the per-shard snapshots
//! with [`StatsSnapshot::merge`]. Each snapshot is taken from a
//! quiesced, no-longer-written cell, so the *sum* obeys the same law —
//! `aggregate.conserved()` — without ever needing a cross-shard atomic
//! read. The `sharded_pipeline` explorer space in `conch-faults`
//! certifies this on every schedule of a kill×schedule product,
//! including a `KillThread` landing between two pipelined requests.

use std::rc::Rc;

use conch_actors::Mailbox;
use conch_combinators::{timeout, Chan};
use conch_runtime::ids::ThreadId;
use conch_runtime::io::{for_each, sequence, Io};
use conch_runtime::mvar::MVar;
use conch_runtime::value::{FromValue, IntoValue, Value};

use crate::http::{Request, Response};
use crate::net::FrameConnection;
use crate::server::{
    finish, register_worker, serve_request, Handler, Outcome, Server, ServerStats, StatsSnapshot,
};

/// Per-request budgets for the sharded plane (virtual microseconds).
/// Queue capacity is a property of the [`ShardedListener`]; shard count
/// is a property of whoever binds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Budget for reading the next wire segment off a keep-alive
    /// connection. An idle connection that times out with an empty
    /// buffer closes silently (normal keep-alive expiry, no request in
    /// the law); a timeout with a partial request buffered is answered
    /// `408` and accounted `accepted + read_timeout` in one transaction.
    pub read_timeout: u64,
    /// Budget for the handler to produce a response.
    pub handler_timeout: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            read_timeout: 10_000,
            handler_timeout: 50_000,
        }
    }
}

/// N bounded accept queues, one per shard. Clients pick a shard (the
/// load driver routes round-robin; a real frontend would hash); the
/// bounded mailbox is the backpressure: `connect` blocks while the
/// shard's queue is full.
#[derive(Debug, Clone)]
pub struct ShardedListener {
    queues: Vec<Mailbox<FrameConnection>>,
}

impl ShardedListener {
    /// Binds `shards` accept queues of `queue_capacity` connections each.
    pub fn bind(shards: usize, queue_capacity: i64) -> Io<ShardedListener> {
        assert!(shards >= 1, "a sharded listener needs at least one shard");
        sequence((0..shards).map(|_| Mailbox::new(queue_capacity)).collect())
            .map(|queues| ShardedListener { queues })
    }

    pub fn shard_count(&self) -> usize {
        self.queues.len()
    }

    /// The shard's accept queue (for feeders that cache the handle).
    pub fn queue(&self, shard: usize) -> Mailbox<FrameConnection> {
        self.queues[shard]
    }

    /// Client side: open a connection on the given shard. Blocks while
    /// the shard's queue is full (backpressure, not shedding).
    pub fn connect(&self, shard: usize) -> Io<FrameConnection> {
        let q = self.queue(shard);
        FrameConnection::open().and_then(move |conn| q.send(conn).map(move |_| conn))
    }

    /// Hands an already-open connection to a shard's queue — the
    /// fault-injection entry point, mirroring `Listener::inject`: the
    /// connection's whole wire history can be composed before the
    /// server ever sees it.
    pub fn inject(&self, shard: usize, conn: FrameConnection) -> Io<()> {
        self.queue(shard).send(conn)
    }
}

impl IntoValue for ShardedListener {
    fn into_value(self) -> Value {
        self.queues.into_value()
    }
}

impl FromValue for ShardedListener {
    fn from_value(v: Value) -> Option<Self> {
        Some(ShardedListener {
            queues: Vec::<Mailbox<FrameConnection>>::from_value(v)?,
        })
    }
}

/// A running sharded server: one [`Server`] per accept shard — its
/// acceptor thread, its private stats cell, and its worker registry
/// (every connection handler the acceptor ever forked — kill-storm
/// targets).
#[derive(Debug, Clone)]
pub struct ShardedServer {
    pub shards: Vec<Server>,
}

impl IntoValue for ShardedServer {
    fn into_value(self) -> Value {
        self.shards.into_value()
    }
}

impl FromValue for ShardedServer {
    fn from_value(v: Value) -> Option<Self> {
        Some(ShardedServer {
            shards: Vec::<Server>::from_value(v)?,
        })
    }
}

impl ShardedServer {
    /// Stops every shard's acceptor with the §9 *synchronous* throw, in
    /// shard order — the audit-grade shutdown: once this returns, no
    /// shard can account another connection, so each shard's `accepted`
    /// is final (in-flight requests still run to their outcome).
    pub fn shutdown_sync(&self) -> Io<()> {
        self.shards
            .iter()
            .fold(Io::unit(), |io, sh| io.then(sh.shutdown_sync()))
    }

    /// Waits until every shard has `active == 0`. Shards quiesce
    /// independently; polling them in order is fine because `active`
    /// never rises again after [`shutdown_sync`](Self::shutdown_sync)
    /// has returned and the shard's own queue has drained.
    pub fn drain(&self) -> Io<()> {
        self.shards
            .iter()
            .fold(Io::unit(), |io, sh| io.then(sh.drain()))
    }

    /// The quiescent aggregate: per-shard snapshots summed with
    /// [`StatsSnapshot::merge`]. Meaningful as a conservation-law
    /// witness only after `shutdown_sync` + `drain` (each cell must be
    /// final); the explorer space certifies exactly that protocol.
    pub fn aggregate(&self) -> Io<StatsSnapshot> {
        self.aggregate_per_shard()
            .map(|snaps| StatsSnapshot::sum(&snaps))
    }

    /// The per-shard quiescent snapshots, in shard order — the
    /// imbalance probe behind the skewed-arrival bench row. Same
    /// quiescence caveat as [`aggregate`](Self::aggregate).
    pub fn aggregate_per_shard(&self) -> Io<Vec<StatsSnapshot>> {
        sequence(self.shards.iter().map(|sh| sh.stats.snapshot()).collect())
    }

    /// Every connection-handler thread id ever forked, across all
    /// shards in shard order — the kill-storm target list.
    pub fn worker_ids(&self) -> Io<Vec<ThreadId>> {
        sequence(self.shards.iter().map(Server::worker_ids).collect()).map(|ids| ids.concat())
    }
}

/// Starts one accept loop + stats cell per listener shard.
pub fn start_sharded(l: &ShardedListener, h: Handler, cfg: ShardConfig) -> Io<ShardedServer> {
    let shards = l.queues.iter().map(|&q| {
        let h = Rc::clone(&h);
        Server::spawn(move |stats, workers| shard_accept_loop(q, h, cfg, stats, workers))
    });
    sequence(shards.collect()).map(|shards| ShardedServer { shards })
}

/// One shard's acceptor: pop a connection, fork its handler, loop.
/// Runs masked so a shutdown `KillThread` can only land while the
/// `recv` *waits* (an interruptible operation). Unlike the classic
/// acceptor there is no accounting here at all — requests, not
/// connections, enter the law, and they do so inside the handler when
/// parsed. A kill between `recv` and `fork` therefore cannot strand
/// anything: an unforked connection simply has no requests in the law.
fn shard_accept_loop(
    q: Mailbox<FrameConnection>,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
    workers: MVar<Value>,
) -> Io<()> {
    let h2 = Rc::clone(&h);
    Io::block(q.recv().and_then(move |conn| {
        let worker = handle_frame_connection(conn, h, cfg, stats);
        Io::fork(worker).and_then(move |tid| register_worker(workers, tid))
    }))
    .and_then(move |_| shard_accept_loop(q, h2, cfg, stats, workers))
}

/// One keep-alive connection, start to close. Forked masked (mask
/// inheritance from the acceptor); only the per-request serve runs
/// unblocked. The top-level catch absorbs a `KillThread` that lands at
/// a blocking point with *no request mid-flight* — while the accept
/// transaction's `take` still waits (nothing committed) or while the
/// frame read blocks (the next request was never parsed, so it was
/// never accepted) — tearing the connection down without touching the
/// conservation law. A kill *during* a request is handled inside
/// [`conn_loop`]: the catch there records `Killed` through [`finish`].
pub fn handle_frame_connection(
    conn: FrameConnection,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
) -> Io<()> {
    conn_loop(conn, h, cfg, stats, String::new(), false, String::new()).catch(|_| Io::unit())
}

/// The keep-alive request loop. `buf` accumulates inbound bytes and is
/// drained in place per parsed request; `fin` records an already-seen
/// FIN (frames behind it may still hold complete requests); `respbuf`
/// batches rendered responses until no complete request remains
/// buffered, then flushes once.
fn conn_loop(
    conn: FrameConnection,
    h: Handler,
    cfg: ShardConfig,
    stats: ServerStats,
    mut buf: String,
    fin: bool,
    respbuf: String,
) -> Io<()> {
    if let Some(pos) = buf.find("\r\n\r\n") {
        // A complete request is buffered: it enters the conservation
        // law now, in one masked transaction. From here exactly one
        // outcome is guaranteed: the unblocked serve either returns one
        // (possibly timeout/500-shaped) or a kill lands and the catch
        // turns it into `Killed`; either way `finish` commits the
        // outcome with the active decrement.
        let rest = buf.split_off(pos + 4);
        let req_text = buf;
        let h2 = Rc::clone(&h);
        return stats
            .txn(|s| {
                s.accepted += 1;
                s.active += 1;
            })
            .then(
                Io::unblock(serve_request(req_text, h, cfg.handler_timeout))
                    .catch(|_| Io::pure((Outcome::Killed, String::new()))),
            )
            .and_then(move |(outcome, resp)| {
                finish(stats, outcome).then(if outcome == Outcome::Killed {
                    // Torn down mid-request: the outcome is recorded;
                    // the connection dies without flushing.
                    Io::unit()
                } else {
                    let mut respbuf = respbuf;
                    respbuf.push_str(&resp);
                    conn_loop(conn, h2, cfg, stats, rest, fin, respbuf)
                })
            });
    }
    // No complete request buffered: flush the batched responses (one
    // channel send wakes the client once for the whole pipelined run;
    // sends never block, so flushing is safe under the mask).
    let flush = if respbuf.is_empty() {
        Io::unit()
    } else {
        conn.send_response_frame(respbuf)
    };
    if fin {
        return flush.then(if buf.is_empty() {
            Io::unit()
        } else {
            // Trailing partial request, then FIN: the peer hung up
            // mid-request. Accept-and-conclude in one transaction —
            // `active` never rises, so nothing can tear.
            stats.txn(|s| {
                s.accepted += 1;
                s.aborted += 1;
            })
        });
    }
    // Read exactly one frame per iteration, so the timeout budget is
    // per wire segment and — crucially — `buf` reflects every byte that
    // has actually arrived when the budget lapses: a frame that lands
    // mid-wait re-enters the loop (re-evaluating the partial/idle
    // decision against the grown buffer) instead of being discarded
    // with the killed read.
    let had_partial = !buf.is_empty();
    flush.then(
        timeout(cfg.read_timeout, conn.recv_frame()).and_then(move |r| match r {
            Some((frame, fin)) => {
                let mut buf = buf;
                buf.push_str(&frame);
                conn_loop(conn, h, cfg, stats, buf, fin, String::new())
            }
            None if had_partial => {
                // Stalled mid-request: answer 408 and account the
                // partial request, again in one accept-and-conclude
                // transaction.
                stats
                    .txn(|s| {
                        s.accepted += 1;
                        s.read_timeouts += 1;
                    })
                    .then(conn.send_response_frame(Response::status(408).render()))
            }
            // Idle keep-alive expiry: no bytes buffered, no request in
            // the law — close silently.
            None => Io::unit(),
        }),
    )
}

// ---------------------------------------------------------------------
// The synthetic production-scale load driver
// ---------------------------------------------------------------------

/// Shape of a load run: `clients` keep-alive connections spread over
/// `shards`, each carrying `requests_per_conn` pipelined requests in a
/// single FIN-terminated frame, arrivals paced `arrival_gap` virtual
/// microseconds apart *per shard* (so the virtual makespan is
/// `(clients / shards) × arrival_gap` — sharding buys virtual-time
/// throughput linearly, on top of splitting the stats-cell contention).
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    pub clients: usize,
    pub shards: usize,
    pub requests_per_conn: usize,
    pub arrival_gap: u64,
    pub queue_capacity: i64,
    pub server: ShardConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 1_000,
            shards: 4,
            requests_per_conn: 10,
            arrival_gap: 100,
            queue_capacity: 1_024,
            server: ShardConfig::default(),
        }
    }
}

/// Runs the full load against `h` and returns `(oks, per_shard)`: the
/// number of `200` responses every client collected, and each shard's
/// quiescent snapshot (in shard order) after the audit protocol. Per
/// shard one feeder thread paces connections in and one collector
/// thread reads each connection's single batched response frame; the
/// whole run quiesces before the snapshots are taken, so
/// `StatsSnapshot::sum(&per_shard).conserved()` is the
/// conservation-law verdict.
///
/// Clients split evenly over the shards, or, with `hot_percent`, that
/// percentage of them arrives on shard 0 and the rest split evenly over
/// the others — the per-shard snapshots then expose the `accepted`
/// imbalance the skew creates.
pub fn sharded_load(
    h: Handler,
    cfg: LoadConfig,
    hot_percent: Option<usize>,
) -> Io<(i64, Vec<StatsSnapshot>)> {
    assert!(cfg.shards >= 1 && cfg.requests_per_conn >= 1);
    ShardedListener::bind(cfg.shards, cfg.queue_capacity).and_then(move |l| {
        start_sharded(&l, h, cfg.server).and_then(move |server| {
            Chan::<i64>::new().and_then(move |report| {
                let mut forks = Io::unit();
                for shard in 0..cfg.shards {
                    let conns = match hot_percent {
                        None => per_shard(cfg.clients, cfg.shards, shard),
                        Some(hot) => per_shard_skewed(cfg.clients, cfg.shards, shard, hot),
                    } as u64;
                    let q = l.queue(shard);
                    forks = forks.then(Chan::<FrameConnection>::new().and_then(move |pipe| {
                        Io::fork(feeder(q, pipe, conns, cfg))
                            .then(Io::fork(collector(pipe, conns, report)))
                            .map(|_| ())
                    }));
                }
                forks
                    .then(sum_reports(report, cfg.shards as u64, 0))
                    .and_then(move |oks| {
                        server
                            .shutdown_sync()
                            .then(server.drain())
                            .then(server.aggregate_per_shard())
                            .map(move |per_shard| (oks, per_shard))
                    })
            })
        })
    })
}

/// Connections shard `i` carries: an even split, remainder to the
/// lowest-numbered shards.
pub(crate) fn per_shard(clients: usize, shards: usize, i: usize) -> usize {
    clients / shards + usize::from(i < clients % shards)
}

/// Connections shard `i` carries under a skewed arrival pattern: shard
/// 0 is the hot shard taking `hot_percent`% of all clients, the rest
/// split the remainder evenly (remainder-of-the-remainder to the
/// lowest-numbered cold shards). With one shard the skew is vacuous.
fn per_shard_skewed(clients: usize, shards: usize, i: usize, hot_percent: usize) -> usize {
    assert!(hot_percent <= 100);
    if shards == 1 {
        return clients;
    }
    let hot = clients * hot_percent / 100;
    if i == 0 {
        return hot;
    }
    per_shard(clients - hot, shards - 1, i - 1)
}

/// One shard's load feeder: every `arrival_gap` µs, open a connection,
/// pre-write its entire pipelined run as one FIN-terminated frame
/// (channel sends never block, so composing the wire history costs no
/// interleaving), enqueue it on the shard, and pass the handle to the
/// collector.
fn feeder(
    q: Mailbox<FrameConnection>,
    pipe: Chan<FrameConnection>,
    conns: u64,
    cfg: LoadConfig,
) -> Io<()> {
    let one = Request::get("/bench").render();
    let frame = one.repeat(cfg.requests_per_conn);
    for_each(conns, move |_| {
        let frame = frame.clone();
        Io::sleep(cfg.arrival_gap).then(FrameConnection::open().and_then(move |conn| {
            conn.send_frame_fin(frame)
                .then(q.send(conn))
                .then(pipe.send(conn))
        }))
    })
}

/// One shard's collector: for each connection the feeder opened, read
/// its single batched response frame and count the `200`s, then report
/// the shard total.
fn collector(pipe: Chan<FrameConnection>, conns: u64, report: Chan<i64>) -> Io<()> {
    fn go(pipe: Chan<FrameConnection>, left: u64, acc: i64, report: Chan<i64>) -> Io<()> {
        if left == 0 {
            return report.send(acc);
        }
        pipe.recv().and_then(move |conn| {
            conn.read_response_frame().and_then(move |resp| {
                let got = resp.matches("HTTP/1.0 200").count() as i64;
                go(pipe, left - 1, acc + got, report)
            })
        })
    }
    go(pipe, conns, 0, report)
}

fn sum_reports(report: Chan<i64>, left: u64, acc: i64) -> Io<i64> {
    if left == 0 {
        return Io::pure(acc);
    }
    report
        .recv()
        .and_then(move |n| sum_reports(report, left - 1, acc + n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::handler;
    use conch_runtime::prelude::*;

    fn hello() -> Handler {
        handler(|req| Io::pure(Response::ok(format!("hello {}", req.path))))
    }

    fn start_one_shard() -> Io<(ShardedListener, ShardedServer)> {
        ShardedListener::bind(1, 16)
            .and_then(|l| start_sharded(&l, hello(), ShardConfig::default()).map(move |s| (l, s)))
    }

    fn audit(server: ShardedServer) -> Io<StatsSnapshot> {
        server
            .shutdown_sync()
            .then(server.drain())
            .then(server.aggregate())
    }

    #[test]
    fn pipelined_requests_batch_into_one_response_frame() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            let frame = Request::get("/a").render().repeat(3);
            l.connect(0).and_then(move |conn| {
                conn.send_frame_fin(frame)
                    .then(conn.read_response_frame())
                    .and_then(move |resp| audit(server).map(move |agg| (resp, agg)))
            })
        });
        let (resp, agg) = rt.run(prog).unwrap();
        assert_eq!(resp.matches("HTTP/1.0 200").count(), 3, "got {resp}");
        assert_eq!(agg.accepted, 3);
        assert_eq!(agg.served, 3);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn interactive_keep_alive_flushes_per_request() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            l.connect(0).and_then(move |conn| {
                conn.send_frame(Request::get("/one").render())
                    .then(conn.read_response_frame())
                    .and_then(move |first| {
                        conn.send_frame_fin(Request::get("/two").render())
                            .then(conn.read_response_frame())
                            .and_then(move |second| {
                                audit(server).map(move |agg| (first, second, agg))
                            })
                    })
            })
        });
        let (first, second, agg) = rt.run(prog).unwrap();
        assert!(first.contains("hello /one"), "got {first}");
        assert!(second.contains("hello /two"), "got {second}");
        assert_eq!(agg.served, 2);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn request_spanning_frames_is_reassembled() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            let text = Request::get("/split").render();
            let (a, b) = text.split_at(7);
            let (a, b) = (a.to_owned(), b.to_owned());
            l.connect(0).and_then(move |conn| {
                conn.send_frame(a)
                    .then(conn.send_frame_fin(b))
                    .then(conn.read_response_frame())
                    .and_then(move |resp| audit(server).map(move |agg| (resp, agg)))
            })
        });
        let (resp, agg) = rt.run(prog).unwrap();
        assert!(resp.contains("hello /split"), "got {resp}");
        assert_eq!(agg.accepted, 1);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn partial_request_then_fin_counts_as_aborted() {
        let mut rt = Runtime::new();
        let prog = start_one_shard().and_then(|(l, server)| {
            l.connect(0).and_then(move |conn| {
                // The abort is an accept-and-conclude transaction that
                // never raises `active`, so `drain` cannot wait for it;
                // park briefly so the handler reaches the FIN branch
                // before the audit reads the cell.
                conn.send_frame_fin("GET /half HT")
                    .then(Io::sleep(100))
                    .then(audit(server))
            })
        });
        let agg = rt.run(prog).unwrap();
        assert_eq!(agg.accepted, 1);
        assert_eq!(agg.aborted, 1);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn stalled_partial_request_times_out_with_408() {
        let mut rt = Runtime::new();
        let prog = ShardedListener::bind(1, 16).and_then(|l| {
            let cfg = ShardConfig {
                read_timeout: 1_000,
                ..ShardConfig::default()
            };
            start_sharded(&l, hello(), cfg).and_then(move |server| {
                l.connect(0).and_then(move |conn| {
                    conn.send_frame("GET /slow HT")
                        .then(conn.read_response_frame())
                        .and_then(move |resp| audit(server).map(move |agg| (resp, agg)))
                })
            })
        });
        let (resp, agg) = rt.run(prog).unwrap();
        assert!(resp.contains("408"), "got {resp}");
        assert_eq!(agg.read_timeouts, 1);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn idle_connection_expires_silently_outside_the_law() {
        let mut rt = Runtime::new();
        let prog = ShardedListener::bind(1, 16).and_then(|l| {
            let cfg = ShardConfig {
                read_timeout: 1_000,
                ..ShardConfig::default()
            };
            start_sharded(&l, hello(), cfg).and_then(move |server| {
                // Connect, send nothing, let the keep-alive budget lapse.
                l.connect(0).then(Io::sleep(5_000)).then(audit(server))
            })
        });
        let agg = rt.run(prog).unwrap();
        assert_eq!(agg.accepted, 0, "{agg:?}");
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn load_runs_spread_over_shards_and_conserve() {
        let mut rt = Runtime::new();
        let cfg = LoadConfig {
            clients: 40,
            shards: 4,
            requests_per_conn: 5,
            arrival_gap: 10,
            ..LoadConfig::default()
        };
        let (oks, per_shard) = rt.run(sharded_load(hello(), cfg, None)).unwrap();
        let agg = StatsSnapshot::sum(&per_shard);
        assert_eq!(oks, 200);
        assert_eq!(agg.accepted, 200);
        assert_eq!(agg.served, 200);
        assert!(agg.conserved(), "{agg:?}");
    }

    #[test]
    fn skewed_load_lands_on_the_hot_shard() {
        let mut rt = Runtime::new();
        let cfg = LoadConfig {
            clients: 10,
            shards: 3,
            requests_per_conn: 1,
            arrival_gap: 10,
            ..LoadConfig::default()
        };
        let (oks, per_shard) = rt.run(sharded_load(hello(), cfg, Some(80))).unwrap();
        assert_eq!(oks, 10);
        assert_eq!(
            per_shard.iter().map(|s| s.accepted).collect::<Vec<_>>(),
            [8, 1, 1]
        );
        assert!(StatsSnapshot::sum(&per_shard).conserved(), "{per_shard:?}");
    }

    #[test]
    fn uneven_client_counts_split_across_shards() {
        assert_eq!(per_shard(10, 3, 0), 4);
        assert_eq!(per_shard(10, 3, 1), 3);
        assert_eq!(per_shard(10, 3, 2), 3);
        let mut rt = Runtime::new();
        let cfg = LoadConfig {
            clients: 7,
            shards: 3,
            requests_per_conn: 2,
            arrival_gap: 10,
            ..LoadConfig::default()
        };
        let (oks, per_shard) = rt.run(sharded_load(hello(), cfg, None)).unwrap();
        assert_eq!(oks, 14);
        assert_eq!(
            per_shard.iter().map(|s| s.accepted).collect::<Vec<_>>(),
            [6, 4, 4]
        );
        assert!(StatsSnapshot::sum(&per_shard).conserved(), "{per_shard:?}");
    }
}
