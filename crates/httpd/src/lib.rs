//! # conch-httpd
//!
//! The paper's §11 case study: "a prototype fault-tolerant HTTP server
//! which makes heavy use of time-outs, multithreading and exceptions"
//! (\[8\], Marlow's Haskell web server) — rebuilt on `conch-runtime` and
//! `conch-combinators` over a simulated network (see DESIGN.md for the
//! substitution).
//!
//! * [`http`] — an HTTP/1.0-subset parser and response renderer.
//! * [`net`] — `MVar`-channel connections and listeners; blocking reads
//!   and accepts are interruptible operations (§5.3), which is what makes
//!   the timeouts and the graceful shutdown possible.
//! * [`server`] — the serving core every front end shares: the request
//!   guard (parse, handler timeout, crash-to-500), the stats cell and
//!   its commit point, the worker registry, and the [`server::Server`]
//!   handle with its shutdown/drain/audit; plus the classic accept loop
//!   with per-connection workers and `max_active` load shedding.
//! * [`pool`] — the same serving contract on a supervised worker pool
//!   (`conch-actors`): a bounded accept queue feeds a fixed set of
//!   worker actors under a self-healing two-level supervision tree.
//! * [`shard`] — the production-scale plane: N accept shards with
//!   per-shard bounded queues and stats cells, keep-alive/pipelined
//!   [`net::FrameConnection`]s with per-request accounting, batched
//!   response flushes, the quiescent-aggregate conservation law, and
//!   the synthetic load driver.
//! * [`parallel`] — the sharded plane on a `MultiRuntime`: one
//!   scheduler per shard, pinned to its own OS thread, with the
//!   per-shard aggregates merged over the cross-shard channels.
//! * [`client`] — load-generating clients: well-behaved, stalling,
//!   trickling and garbage.
//!
//! ## Example
//!
//! ```
//! use conch_runtime::prelude::*;
//! use conch_httpd::http::{Request, Response};
//! use conch_httpd::net::Listener;
//! use conch_httpd::server::{handler, start, ServerConfig};
//!
//! let mut rt = Runtime::new();
//! let prog = Listener::bind().and_then(|l| {
//!     start(l, handler(|_| Io::pure(Response::ok("hi"))), ServerConfig::default())
//!         .and_then(move |_srv| {
//!             l.connect().and_then(|conn| {
//!                 conn.send_text(Request::get("/").render())
//!                     .then(conn.read_response())
//!             })
//!         })
//! });
//! let resp = rt.run(prog).unwrap();
//! assert!(resp.contains("200 OK"));
//! ```

pub mod client;
pub mod http;
pub mod net;
pub mod parallel;
pub mod pool;
pub mod server;
pub mod shard;
