//! The §11 case study end-to-end: a fault-tolerant web server facing a
//! hostile mix of clients.
//!
//! Run with `cargo run --example web_server` for the classic demo, or
//! scale it up on the sharded plane:
//!
//! ```text
//! cargo run --release --example web_server -- --clients 100000 --shards 16 --keep-alive 10
//! ```
//!
//! * `--clients N` — keep-alive connections to drive (default 10 000);
//! * `--shards N` — accept shards, each with its own bounded queue and
//!   stats cell (default 4);
//! * `--keep-alive K` — pipelined requests per connection (default 10).
//!
//! Any of the three flags switches to the sharded load; with no flags
//! the classic hostile-client crowd runs unchanged.
//!
//! The classic demo spins up the simulated server with tight budgets,
//! throws a crowd of good, stalling, trickling, garbage and
//! crash-inducing clients at it, then shuts down gracefully and prints
//! the bookkeeping. Every request gets *some* response — the server
//! never wedges and never leaks a worker — which is exactly the claim
//! the paper makes for its Haskell web server built on these
//! combinators.

use conch::prelude::*;
use conch_httpd::client::{garbage_client, good_client, stalling_client, trickling_client};
use conch_httpd::http::Response;
use conch_httpd::net::Listener;
use conch_httpd::server::{handler, start, Handler, ServerConfig, StatsSnapshot};
use conch_httpd::shard::{sharded_load, LoadConfig};
use conch_runtime::io::{for_each, sequence};

fn routes() -> Handler {
    handler(|req| match req.path.as_str() {
        "/" => Io::pure(Response::ok("welcome")),
        "/slow" => Io::sleep(200_000).map(|_| Response::ok("eventually")),
        "/crash" => Io::<Response>::throw(Exception::error_call("handler bug")),
        "/compute" => Io::compute_returning(5_000, Response::ok("computed")),
        _ => Io::pure(Response::status(404)),
    })
}

/// Parses `--clients N --shards N --keep-alive K`; `None` means no
/// sharded flag was given and the classic demo should run.
fn parse_sharded_args() -> Option<LoadConfig> {
    let mut cfg = LoadConfig {
        clients: 10_000,
        shards: 4,
        requests_per_conn: 10,
        ..LoadConfig::default()
    };
    let mut sharded = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{flag} needs a positive integer argument"))
        };
        match flag.as_str() {
            "--clients" => cfg.clients = value(&mut args),
            "--shards" => cfg.shards = value(&mut args),
            "--keep-alive" => cfg.requests_per_conn = value(&mut args),
            other => panic!("unknown flag {other}; try --clients / --shards / --keep-alive"),
        }
        sharded = true;
    }
    sharded.then_some(cfg)
}

/// The production-scale path: the whole load through the sharded
/// accept/worker plane, then the quiescent-aggregate audit.
fn run_sharded(cfg: LoadConfig) {
    let mut rt = Runtime::new();
    let requests = (cfg.clients * cfg.requests_per_conn) as i64;
    let (oks, per_shard) = rt
        .run(sharded_load(
            handler(|_| Io::pure(Response::ok("ok"))),
            cfg,
            None,
        ))
        .unwrap();
    let snap = StatsSnapshot::sum(&per_shard);
    println!(
        "sharded run: {} clients x {} pipelined requests over {} shards",
        cfg.clients, cfg.requests_per_conn, cfg.shards
    );
    print_stats(&snap);
    let virtual_secs = rt.clock() as f64 / 1e6;
    println!(
        "virtual time: {}µs ({:.1} requests per virtual second)",
        rt.clock(),
        if rt.clock() == 0 {
            0.0
        } else {
            requests as f64 / virtual_secs
        }
    );
    println!(
        "scheduler: {} steps, {} forks, peak {} thread slots, {} timer ops (wheel high-water {})",
        rt.stats().steps,
        rt.stats().forks,
        rt.stats().max_thread_slots,
        rt.stats().timer_ops,
        rt.stats().max_sleeper_heap,
    );
    assert_eq!(oks, requests, "every pipelined request must come back 200");
    assert!(snap.conserved(), "aggregate must conserve: {snap:?}");
    println!("all invariants hold: every request answered, aggregate conserved");
}

fn main() {
    if let Some(cfg) = parse_sharded_args() {
        return run_sharded(cfg);
    }
    let mut rt = Runtime::new();
    let config = ServerConfig {
        read_timeout: 5_000,
        handler_timeout: 50_000,
        ..ServerConfig::default()
    };

    let prog = Listener::bind().and_then(move |listener| {
        start(listener, routes(), config).and_then(move |server| {
            Io::new_empty_mvar::<i64>().and_then(move |codes| {
                // The client crowd: 6 well-behaved, 2 stalling, 2 trickling
                // (one within budget, one beyond), 1 garbage, 2 crashing,
                // 1 slow-handler, 1 not-found.
                let spawn_all = for_each(6, move |i| {
                    Io::fork(good_client(
                        listener,
                        format!("/{}", if i % 2 == 0 { "" } else { "compute" }),
                        codes,
                    ))
                })
                .then(Io::fork(stalling_client(listener, codes)).map(|_| ()))
                .then(Io::fork(stalling_client(listener, codes)).map(|_| ()))
                .then(Io::fork(trickling_client(listener, "/".into(), 50, codes)).map(|_| ()))
                .then(Io::fork(trickling_client(listener, "/".into(), 2_000, codes)).map(|_| ()))
                .then(Io::fork(garbage_client(listener, codes)).map(|_| ()))
                .then(Io::fork(good_client(listener, "/crash".into(), codes)).map(|_| ()))
                .then(Io::fork(good_client(listener, "/crash".into(), codes)).map(|_| ()))
                .then(Io::fork(good_client(listener, "/slow".into(), codes)).map(|_| ()))
                .then(Io::fork(good_client(listener, "/nowhere".into(), codes)).map(|_| ()));

                const TOTAL: usize = 14;
                spawn_all
                    .then(sequence(
                        (0..TOTAL).map(|_| codes.take()).collect::<Vec<_>>(),
                    ))
                    .and_then(move |statuses| {
                        server
                            .shutdown()
                            .then(server.drain())
                            .then(server.stats.snapshot())
                            .map(move |snap| (statuses, snap))
                    })
            })
        })
    });

    let (mut statuses, snap): (Vec<i64>, StatsSnapshot) = rt.run(prog).unwrap();
    statuses.sort_unstable();

    println!("client-observed status codes: {statuses:?}");
    print_stats(&snap);
    println!(
        "virtual time: {}µs, scheduler steps: {}",
        rt.clock(),
        rt.stats().steps
    );
    println!(
        "threads forked: {}, exceptions delivered: {}",
        rt.stats().forks,
        rt.stats().total_deliveries(),
    );

    // Every client got an answer; nothing is still running.
    assert_eq!(statuses.len(), 14);
    assert!(statuses.iter().all(|s| *s > 0), "a client saw garbage");
    assert_eq!(snap.active, 0, "leaked workers");
    assert_eq!(snap.read_timeouts, 3); // 2 stallers + 1 too-slow trickler
    assert_eq!(snap.handler_errors, 2); // the /crash clients
    assert_eq!(snap.handler_timeouts, 1); // the /slow client
    println!("all invariants hold: no garbled responses, no leaked workers");
}

fn print_stats(snap: &StatsSnapshot) {
    println!(
        "server counters: served={}, 408s={}, 504s={}, 500s={}, 400s={}, active={}",
        snap.served,
        snap.read_timeouts,
        snap.handler_timeouts,
        snap.handler_errors,
        snap.parse_errors,
        snap.active
    );
}
