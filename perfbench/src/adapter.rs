//! The one place the benchmark calls conch's front ends:
//! [`ShardedListener`], [`start_sharded`] and [`Explorer`]. A refactor of
//! a serving or exploration front end changes this file and nothing else
//! in the benchmark.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use conch_bench::{pct_sample_bug, SeededBug};
use conch_combinators::{timeout, with_mvar, Chan};
use conch_explore::{
    CheckResult, ExploreConfig, Explorer, Reduction, Report, RunOutcome, Strategy, TestCase,
};
use conch_faults::{kill_storm_targets, Injector};
use conch_httpd::http::Response;
use conch_httpd::net::FrameConnection;
use conch_httpd::server::{handler, Handler, StatsSnapshot};
use conch_httpd::shard::{start_sharded, ShardConfig, ShardedListener, ShardedServer};
use conch_runtime::exception::Exception;
use conch_runtime::io::Io;
use conch_runtime::value::Value;

use crate::answers::{classify, Space};
use crate::bugs::{lost_unlock, lost_unlock_check, Bug};
use crate::gen::{Batch, Conn, ARRIVAL_GAP_US, SHARDS};

// The server runs with the plane's default budgets
// (`ShardConfig::default()`), as the repository's measured sharded
// configuration does.

/// How long a `storm` client waits for one response before counting it
/// missed: a killed worker returns without flushing, so an unbounded
/// read would wait forever. Longer than any budget the server answers
/// within.
fn client_deadline_us() -> u64 {
    let cfg = ShardConfig::default();
    2 * cfg.read_timeout.max(cfg.handler_timeout)
}
/// Accept-queue capacity per shard, as in the measured configuration.
const QUEUE_CAPACITY: i64 = 1_024;

/// What a batch program returns: the client tallies, the per-shard
/// snapshots, and the storm's strikes and per-shard target counts.
pub type BatchValue = (Vec<Vec<i64>>, Vec<StatsSnapshot>, (i64, Vec<i64>));

/// What one batch produced, read back from the runtime.
#[derive(Debug, Clone)]
pub struct BatchOutput {
    /// Per connection, in batch order: the status of each request the
    /// client got an answer to, then `-1` if a response never came.
    pub statuses: Vec<Vec<i64>>,
    /// Quiescent per-shard server counters, in shard order.
    pub per_shard: Vec<StatsSnapshot>,
    /// Per shard: how many workers the kill storm saw (its target list).
    pub storm_targets: Vec<i64>,
    /// Strikes the storm threw.
    pub kills: i64,
}

/// The benchmark's routes. The request path alone decides the answer,
/// so the expected status of every request is known from its input.
fn routes() -> Handler {
    handler(|req| {
        let path = req.path;
        if let Some(n) = path.strip_prefix("/compute/") {
            let n: u64 = n.parse().unwrap_or(0);
            return Io::compute(n).map(|_| Response::ok("computed"));
        }
        match path.as_str() {
            "/const" => Io::pure(Response::ok("ok")),
            "/crash" => Io::throw(Exception::custom("InjectedHandlerCrash")),
            // Sleeps past the handler timeout.
            "/wedge" => {
                Io::sleep(3 * ShardConfig::default().handler_timeout).map(|_| Response::ok("late"))
            }
            _ => Io::pure(Response::status(404)),
        }
    })
}

/// Status codes of the responses in one frame, in order.
fn statuses(frame: &str) -> impl Iterator<Item = i64> + '_ {
    frame
        .match_indices("HTTP/1.0 ")
        .map(|(at, m)| frame[at + m.len()..at + m.len() + 3].parse().unwrap_or(0))
}

/// A `serve` client: the whole pipelined run in one FIN-terminated
/// frame, then one batched response frame back.
fn pipelined_client(
    conn: FrameConnection,
    index: i64,
    frame: String,
    report: Chan<Vec<i64>>,
) -> Io<()> {
    conn.send_frame_fin(frame)
        .then(conn.read_response_frame())
        .and_then(move |resp| {
            let mut got = vec![index];
            got.extend(statuses(&resp));
            report.send(got)
        })
}

/// A `storm` client: one request per frame, each response read under a
/// deadline. A missed response ends the conversation.
fn interactive_client(
    conn: FrameConnection,
    mut requests: std::vec::IntoIter<String>,
    got: Vec<i64>,
    report: Chan<Vec<i64>>,
) -> Io<()> {
    let Some(text) = requests.next() else {
        return conn.close().then(report.send(got));
    };
    conn.send_frame(text)
        .then(timeout(client_deadline_us(), conn.read_response_frame()))
        .and_then(move |resp| {
            let mut got = got;
            match resp.and_then(|r| statuses(&r).next()) {
                Some(408) => {
                    got.push(408);
                    report.send(got)
                }
                Some(status) => {
                    got.push(status);
                    interactive_client(conn, requests, got, report)
                }
                None => {
                    got.push(-1);
                    report.send(got)
                }
            }
        })
}

/// One shard's arrivals: every gap, open a connection, queue it on the
/// shard (so queue order, and hence the shard's worker order, is batch
/// order) and fork its client.
fn feeder(
    l: ShardedListener,
    shard: usize,
    conns: Vec<(i64, Conn)>,
    pipelined: bool,
    report: Chan<Vec<i64>>,
) -> Io<()> {
    let mut io = Io::unit();
    for (index, conn) in conns {
        let l = l.clone();
        io = io
            .then(Io::sleep(ARRIVAL_GAP_US))
            .then(FrameConnection::open().and_then(move |fc| {
                let client = if pipelined {
                    pipelined_client(fc, index, conn.texts.concat(), report)
                } else {
                    interactive_client(fc, conn.texts.into_iter(), vec![index], report)
                };
                l.inject(shard, fc).then(Io::fork(client)).map(|_| ())
            }));
    }
    io
}

/// The kill storm: at `at_us`, walk each shard's worker registry (fork
/// order) and strike through a scripted injector. Returns the strikes
/// thrown and the per-shard target counts.
fn kill_storm(server: ShardedServer, at_us: u64, strikes: Vec<Vec<u8>>) -> Io<(i64, Vec<i64>)> {
    let mut io = Io::sleep(at_us).map(|_| (0_i64, Vec::new()));
    for (sh, script) in server.shards.iter().zip(strikes) {
        let workers = sh.workers;
        io = io.and_then(move |(kills, mut seen)| {
            with_mvar(workers, Io::pure).and_then(move |v: Value| {
                let tids: Vec<_> = match v {
                    Value::List(xs) => xs.into_iter().filter_map(|x| x.as_thread_id()).collect(),
                    _ => Vec::new(),
                };
                seen.push(tids.len() as i64);
                kill_storm_targets(tids, &Injector::scripted(script), false)
                    .map(move |k| (kills + k, seen))
            })
        });
    }
    io
}

/// The whole of one batch as one program: bind, start, feed every
/// connection, optionally storm, collect every client's tally, then the
/// audit protocol (synchronous shutdown, drain, per-shard snapshots).
pub fn batch_program(batch: &Batch) -> Io<BatchValue> {
    let pipelined = batch.storm.is_none();
    let n = batch.conns.len();
    let mut by_shard: Vec<Vec<(i64, Conn)>> = vec![Vec::new(); SHARDS];
    for (i, c) in batch.conns.iter().enumerate() {
        by_shard[c.shard].push((i as i64, c.clone()));
    }
    let storm = batch.storm.clone();
    ShardedListener::bind(SHARDS, QUEUE_CAPACITY).and_then(move |l| {
        start_sharded(&l, routes(), ShardConfig::default()).and_then(move |server| {
            Chan::<Vec<i64>>::new().and_then(move |report| {
                Io::new_empty_mvar::<(i64, Vec<i64>)>().and_then(move |storm_done| {
                    let mut io = Io::unit();
                    for (shard, conns) in by_shard.into_iter().enumerate() {
                        io = io.then(
                            Io::fork(feeder(l.clone(), shard, conns, pipelined, report))
                                .map(|_| ()),
                        );
                    }
                    let storm_io = match storm {
                        Some(s) => Io::fork(
                            kill_storm(server.clone(), s.at_us, s.strikes)
                                .and_then(move |r| storm_done.put(r)),
                        )
                        .map(|_| ()),
                        None => storm_done.put((0, Vec::new())),
                    };
                    io.then(storm_io)
                        .then(collect(report, n, vec![Vec::new(); n]))
                        .and_then(move |tallies| {
                            storm_done.take().and_then(move |storm| {
                                server
                                    .shutdown_sync()
                                    .then(server.drain())
                                    .then(server.aggregate_per_shard())
                                    .map(move |snaps| (tallies, snaps, storm))
                            })
                        })
                })
            })
        })
    })
}

fn collect(report: Chan<Vec<i64>>, left: usize, acc: Vec<Vec<i64>>) -> Io<Vec<Vec<i64>>> {
    if left == 0 {
        return Io::pure(acc);
    }
    report.recv().and_then(move |got| {
        let mut acc = acc;
        let index = got[0] as usize;
        acc[index] = got[1..].to_vec();
        collect(report, left - 1, acc)
    })
}

impl From<BatchValue> for BatchOutput {
    fn from(v: BatchValue) -> BatchOutput {
        let (statuses, per_shard, (kills, storm_targets)) = v;
        BatchOutput {
            statuses,
            per_shard,
            storm_targets,
            kills,
        }
    }
}

// ---------------------------------------------------------------------
// The explorer front end
// ---------------------------------------------------------------------

fn closure_config() -> ExploreConfig {
    ExploreConfig {
        max_schedules: 2_000_000,
        strategy: Strategy::Exhaustive(Reduction::Dpor),
        ..ExploreConfig::default()
    }
}

/// The explorer's set-up warm-up: exhaustive DPOR closure of the
/// one-client accept loop, a small instance of the verified spaces.
/// Returns the schedules it explored.
pub fn warm_up() -> usize {
    Explorer::with_config(closure_config())
        .check(|| {
            TestCase::new(
                conch_bench::accept_loop_workload(1),
                |_: &RunOutcome<i64>| Ok(()),
            )
        })
        .report()
        .explored
}

/// What one closure of a space produced.
pub struct Closure {
    pub result: CheckResult,
    /// The distinct answers its schedules reached.
    pub reached: BTreeSet<String>,
}

/// Exhaustive DPOR closure of one X1 space, every schedule checked
/// against the answer table.
pub fn closure(space: Space) -> Closure {
    let reached = Rc::new(RefCell::new(BTreeSet::new()));
    let answers = Rc::clone(&reached);
    let result = Explorer::with_config(closure_config()).check(move || {
        let answers = Rc::clone(&answers);
        TestCase::new(space.program(), move |out: &RunOutcome<i64>| {
            let answer = classify(space, out);
            let allowed = space.answers().iter().any(|(a, _)| *a == answer);
            answers.borrow_mut().insert(answer.clone());
            if allowed {
                Ok(())
            } else {
                Err(format!(
                    "{} answered `{answer}`, outside its table",
                    space.name()
                ))
            }
        })
    });
    let reached = reached.borrow().clone();
    Closure { result, reached }
}

/// One PCT sample draw of `samples` schedules (depth 3, `seed`) against
/// the seeded bug `bug`; the report and the earliest failing sample.
pub fn pct_draw(bug: Bug, samples: usize, seed: u64) -> (Report, Option<u64>) {
    match bug {
        Bug::OutputRace => pct_sample_bug(SeededBug::OutputRace, 1, samples, seed),
        Bug::BrokenBracket => pct_sample_bug(SeededBug::BrokenBracket, 1, samples, seed),
        Bug::LostUnlock => {
            // The same sampler configuration `pct_sample_bug` uses.
            let cfg = ExploreConfig {
                max_schedules: samples,
                max_depth: 512,
                step_budget: 100_000,
                strategy: Strategy::Pct { depth: 3, seed },
                ..ExploreConfig::default()
            };
            let result = Explorer::with_config(cfg)
                .check(|| TestCase::new(lost_unlock(), lost_unlock_check));
            let report = result.report().clone();
            let first = report.first_failing_sample;
            (report, first)
        }
    }
}
