//! The three workloads, their output checks and their metrics.
//!
//! Each workload has a timed unit and a work item: on `serve` and
//! `storm` a batch (one `Runtime::run`) of accounted requests, on
//! `verify` a closure pass (three exhaustive `Explorer::check` calls) of
//! explored schedules. A unit's time is its wall time; the `_p50` and
//! `_tail` metrics are order statistics over every unit the run timed.
//!
//! The result line carries every end-to-end metric of `BENCHMARK.json`
//! on every workload. So `requests_per_s` and `schedules_per_s` both
//! read work items per second of timed units, and `batch_s_*` and
//! `closure_s_*` both read timed-unit wall time: each name is the
//! primary figure of the workload it is named for, and the same figure
//! elsewhere.
//! `samples_to_bug_*` comes from PCT hunt rounds run after the timed
//! window; they are a pure function of the seed, so every workload
//! reports the same figures for one seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use conch_httpd::http::{parse_request, Response};
use conch_httpd::server::StatsSnapshot;
use conch_runtime::{Runtime, Stats};

use crate::adapter::{self, BatchOutput};
use crate::answers::SPACES;
use crate::bugs::BUGS;
use crate::gen::{self, Batch, Rng, SHARDS};
use crate::stats::{median, tail};
use crate::trace::{alloc_counts, Tracer};

/// Distinct batches generated per run; the timed loop cycles over them.
pub const POOL: u64 = 4;
/// Set-up repetitions per run; `setup_s` is their median. `verify`'s
/// set-up takes milliseconds, so it repeats more for a steady median.
/// The counts are fixed, so the work a run does, and with it
/// `peak_rss_mb`, does not depend on the host's speed.
pub fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::Serve | Workload::Storm => 5,
        Workload::Verify => 50,
    }
}

/// Hunt rounds per timed run, and per traced `verify` run.
pub const HUNT_ROUNDS: u64 = 600;
pub const TRACED_HUNT_ROUNDS: u64 = 16;
/// Hunts per corpus bug in one round. A round's samples-to-bug sums
/// twelve first-failure indices, so its median and tail settle within
/// a few hundred rounds where one heavy-tailed index would not.
pub const HUNTS_PER_BUG: u64 = 4;
/// Samples per hunt chunk, and chunks before a hunt counts as a miss.
pub const HUNT_CHUNK: usize = 16;
pub const HUNT_MAX_CHUNKS: u64 = 512;
/// Batches each half of a traced `serve`/`storm` run measures.
pub const TRACED_BATCHES: u64 = 4;
/// Nominal seconds of one closure pass: a timed `verify` run measures
/// `--seconds / PASS_NOMINAL_S` passes, a count fixed by its arguments
/// alone.
pub const PASS_NOMINAL_S: u64 = 6;
/// Fewest closure passes a timed `verify` run measures.
pub const MIN_PASSES: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Serve,
    Storm,
    Verify,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Serve, Workload::Storm, Workload::Verify];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Storm => "storm",
            Workload::Verify => "verify",
        }
    }
}

/// One printed metric: its value, unit and the base it was taken over.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub base: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, base: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: base.into(),
    }
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed; empty when the run is correct.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// The traced run's spans, as JSON lines.
    pub spans: String,
    /// The traced run's self time and call count per span name.
    pub self_times: Vec<(&'static str, f64, u64)>,
}

/// Everything measured over the HTTP batches of one run.
#[derive(Debug, Default)]
struct HttpTally {
    requests: u64,
    failed: u64,
    problems: Vec<String>,
    /// Wall seconds of every batch run, in run order.
    batch_s: Vec<f64>,
    agg: StatsSnapshot,
    shard_accepted: Vec<i64>,
    kills: i64,
    stats: Stats,
    allocs: u64,
    alloc_bytes: u64,
}

/// Everything measured over the closure passes of one run.
#[derive(Debug, Default)]
struct ExploreTally {
    /// Wall seconds of every closure pass, in run order.
    closure_s: Vec<f64>,
    verdicts: u64,
    failed: u64,
    problems: Vec<String>,
    explored: u64,
    pruned: u64,
    stats: Stats,
    replay_s: f64,
    analysis_s: f64,
    check_s: f64,
    allocs: u64,
    alloc_bytes: u64,
}

/// Everything measured over the PCT hunts of one run.
#[derive(Debug, Default)]
struct HuntTally {
    samples_to_bug: Vec<f64>,
    hunt_s: f64,
    verdicts: u64,
    failed: u64,
    problems: Vec<String>,
    sampled: u64,
    distinct: u64,
}

struct Http {
    pool: Vec<Batch>,
    rt: Runtime,
}

impl Http {
    /// Set-up: generate the batch pool, build the runtime, and run one
    /// untimed warm-up batch.
    fn setup(seed: u64, faults: bool) -> Http {
        let pool = (0..POOL)
            .map(|i| gen::batch(seed, i, faults))
            .collect::<Vec<_>>();
        let mut rt = Runtime::new();
        let _ = rt.run(adapter::batch_program(&pool[0]));
        rt.reset();
        Http { pool, rt }
    }

    fn run_batch(&mut self, tracer: &mut Tracer, index: u64, t: &mut HttpTally) {
        let batch = &self.pool[(index % POOL) as usize];
        let program = adapter::batch_program(batch);
        self.rt.reset();
        let rt = &mut self.rt;
        let (a0, b0) = alloc_counts();
        let start = Instant::now();
        let (result, _) = tracer.time("Runtime::run", index, 1, || rt.run(program));
        let secs = start.elapsed().as_secs_f64();
        t.batch_s.push(secs);
        let (a1, b1) = alloc_counts();
        t.allocs += a1 - a0;
        t.alloc_bytes += b1 - b0;
        t.stats.merge(self.rt.stats());
        t.requests += batch.requests() as u64;
        match result {
            Ok(v) => {
                let out = BatchOutput::from(v);
                for p in check_batch(batch, &out, t) {
                    note_problem(t, format!("pool batch {}: {p}", index % POOL));
                }
            }
            Err(e) => {
                t.failed += batch.requests() as u64;
                note_problem(t, format!("pool batch {}: run failed: {e}", index % POOL));
            }
        }
        if tracer.on() {
            time_parse_render(tracer, index, batch);
        }
    }
}

/// The traced run's `parse_request` and `render` spans: each call over
/// the batch's own request texts and the responses they dictate, one
/// span per batch covering all its calls.
fn time_parse_render(tracer: &mut Tracer, index: u64, batch: &Batch) {
    let texts: Vec<&String> = batch.conns.iter().flat_map(|c| &c.texts).collect();
    let responses: Vec<Response> = batch
        .conns
        .iter()
        .flat_map(|c| &c.kinds)
        .map(|k| match k.status() {
            200 => Response::ok("ok"),
            s => Response::status(s as u16),
        })
        .collect();
    tracer.time("parse_request", index, texts.len() as u64, || {
        for t in &texts {
            let _ = black_box(parse_request(black_box(t)));
        }
    });
    tracer.time("render", index, responses.len() as u64, || {
        for r in &responses {
            black_box(black_box(r).render());
        }
    });
}

/// Records a failed check once, however often its batch repeats.
fn note_problem(t: &mut HttpTally, problem: String) {
    if !t.problems.contains(&problem) {
        t.problems.push(problem);
    }
}

/// Requests failed and checks failed for one batch's output.
pub fn check(batch: &Batch, out: &BatchOutput) -> (u64, Vec<String>) {
    let mut t = HttpTally::default();
    let problems = check_batch(batch, out, &mut t);
    (t.failed, problems)
}

/// The output check of one batch. `serve`: every request answered 200.
/// `storm`: every request of an unstruck connection got the status its
/// fault dictates, a struck connection may lose its responses from the
/// strike on, the client-side status tally equals the server's outcome
/// counts, every accepted request not killed was answered, and the
/// conservation law holds. Adds the batch to the run's tallies and
/// returns the checks it failed.
fn check_batch(batch: &Batch, out: &BatchOutput, t: &mut HttpTally) -> Vec<String> {
    let agg = out
        .per_shard
        .iter()
        .fold(StatsSnapshot::default(), |acc, s| acc.merge(s));
    t.agg = t.agg.merge(&agg);
    t.shard_accepted.resize(SHARDS, 0);
    for (i, s) in out.per_shard.iter().enumerate() {
        t.shard_accepted[i] += s.accepted;
    }
    t.kills += out.kills;
    let mut problems = Vec::new();
    let mut nth_on_shard = [0usize; SHARDS];
    let mut tally = [0i64; 5]; // 200, 400, 408, 500, 504
    let mut answered = 0i64;
    for (conn, got) in batch.conns.iter().zip(&out.statuses) {
        let nth = nth_on_shard[conn.shard];
        nth_on_shard[conn.shard] += 1;
        let struck = batch.storm.as_ref().is_some_and(|s| {
            (nth as i64) < out.storm_targets.get(conn.shard).copied().unwrap_or(0)
                && s.strikes[conn.shard].get(nth) == Some(&1)
        });
        for (j, kind) in conn.kinds.iter().enumerate() {
            match got.get(j).copied() {
                Some(-1) | None if struck => break,
                Some(status) if status == kind.status() => {}
                _ => t.failed += 1,
            }
        }
        for &status in got.iter().filter(|&&s| s != -1) {
            answered += 1;
            match [200, 400, 408, 500, 504].iter().position(|&c| c == status) {
                Some(k) => tally[k] += 1,
                None => problems.push(format!("status {status} is in no outcome class")),
            }
        }
    }
    let server = [
        agg.served,
        agg.parse_errors,
        agg.read_timeouts,
        agg.handler_errors,
        agg.handler_timeouts,
    ];
    if tally != server {
        problems.push(format!(
            "client tally {tally:?} != server outcomes {server:?} (200/400/408/500/504)"
        ));
    }
    if !agg.conserved() {
        problems.push(format!("conservation law broken: {agg:?}"));
    }
    if agg.accepted != answered + agg.killed {
        problems.push(format!(
            "accepted {} != answered {answered} + killed {}",
            agg.accepted, agg.killed
        ));
    }
    if batch.storm.is_none() && agg.served != batch.requests() as i64 {
        problems.push(format!(
            "served {} of {} requests",
            agg.served,
            batch.requests()
        ));
    }
    problems
}

/// One exhaustive pass over the three X1 spaces, each schedule checked
/// against the answer table.
fn closure_pass(tracer: &mut Tracer, pass: u64, t: &mut ExploreTally) {
    let mut pass_s = 0.0;
    for (i, space) in SPACES.into_iter().enumerate() {
        let (a0, b0) = alloc_counts();
        let start = Instant::now();
        let (closure, span) = tracer.time("Explorer::check", pass * 3 + i as u64, 1, || {
            adapter::closure(space)
        });
        let secs = start.elapsed().as_secs_f64();
        let (a1, b1) = alloc_counts();
        pass_s += secs;
        let (result, seen) = (closure.result, closure.reached);
        let report = result.report();
        tracer.child(span, "replay", report.timing.replay_seconds);
        tracer.child(span, "analysis", report.timing.analysis_seconds);
        t.allocs += a1 - a0;
        t.alloc_bytes += b1 - b0;
        t.explored += report.explored as u64;
        t.pruned += report.pruned as u64;
        t.stats.merge(&report.stats);
        t.replay_s += report.timing.replay_seconds;
        t.analysis_s += report.timing.analysis_seconds;
        t.check_s += secs;
        t.verdicts += 1;
        let expected: Vec<&str> = space.answers().iter().map(|(a, _)| *a).collect();
        let reached: Vec<&str> = seen.iter().map(String::as_str).collect();
        let verdict = match result.failure() {
            Some(f) => Some(f.message.clone()),
            None if !report.complete => Some("closure incomplete".to_owned()),
            None if reached.len() != expected.len() => {
                Some(format!("reached {reached:?}, table {expected:?}"))
            }
            None => None,
        };
        if let Some(why) = verdict {
            t.failed += 1;
            let problem = format!("{}: {why}", space.name());
            if !t.problems.contains(&problem) {
                t.problems.push(problem);
            }
        }
    }
    t.closure_s.push(pass_s);
}

/// One hunt round: [`HUNTS_PER_BUG`] hunts of each corpus bug. A hunt
/// draws PCT samples in chunks of [`HUNT_CHUNK`] (each chunk under its
/// own seed) until one fails; the round's samples-to-bug is the samples
/// its hunts drew. A bug still unfound after [`HUNT_MAX_CHUNKS`] chunks
/// is a miss.
fn hunt_round(tracer: &mut Tracer, unit: u64, seed: u64, t: &mut HuntTally) {
    let start = Instant::now();
    let mut drawn = 0u64;
    let hunts = (0..HUNTS_PER_BUG).flat_map(|h| {
        BUGS.into_iter()
            .enumerate()
            .map(move |(b, bug)| (h, b, bug))
    });
    for (h, b, bug) in hunts {
        let mut rng = Rng::stream(seed, b as u64, h);
        let mut found = false;
        for chunk in 0..HUNT_MAX_CHUNKS {
            let chunk_seed = rng.next_u64();
            let ((report, first), span) = tracer.time("PCT draw", unit, 1, || {
                adapter::pct_draw(bug, HUNT_CHUNK, chunk_seed)
            });
            tracer.child(span, "replay", report.timing.replay_seconds);
            t.sampled += report.stats.sampled;
            t.distinct += report.stats.distinct_schedules;
            if let Some(i) = first {
                drawn += chunk * HUNT_CHUNK as u64 + i + 1;
                found = true;
                break;
            }
        }
        t.verdicts += 1;
        if !found {
            drawn += HUNT_MAX_CHUNKS * HUNT_CHUNK as u64;
            t.failed += 1;
            t.problems
                .push(format!("hunt {seed:#x} missed {}", bug.name()));
        }
    }
    t.samples_to_bug.push(drawn as f64);
    t.hunt_s += start.elapsed().as_secs_f64();
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The set-up of one run: its inputs, and the runtime or explorer
/// warmed up before the first timed unit.
fn setup(workload: Workload, seed: u64) -> (Option<Http>, Vec<u64>) {
    let hunt_seeds = (0..HUNT_ROUNDS).map(|r| gen::hunt_seed(seed, r)).collect();
    let http = match workload {
        Workload::Serve | Workload::Storm => Some(Http::setup(seed, workload == Workload::Storm)),
        Workload::Verify => {
            black_box(adapter::warm_up());
            None
        }
    };
    (http, hunt_seeds)
}

/// A timed run: end-to-end metrics, tracing off. `serve` and `storm`
/// run batches until the window closes; `verify` runs a pass count fixed
/// by `seconds`. The hunt rounds follow, outside the timed window.
pub fn timed(workload: Workload, seed: u64, seconds: u64) -> Outcome {
    let mut tracer = Tracer::new(false);
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..setup_reps(workload) {
        let start = Instant::now();
        let fresh = setup(workload, seed);
        setup_s.push(start.elapsed().as_secs_f64());
        state = Some(fresh);
    }
    let (http, hunt_seeds) = state.expect("set-up ran");
    let mut h = HttpTally::default();
    let mut x = ExploreTally::default();
    match http {
        Some(mut http) => {
            let budget = Duration::from_secs(seconds);
            let window = Instant::now();
            let mut i = 0;
            while window.elapsed() < budget {
                http.run_batch(&mut tracer, i, &mut h);
                i += 1;
            }
        }
        None => {
            for pass in 0..(seconds / PASS_NOMINAL_S).max(MIN_PASSES) {
                closure_pass(&mut tracer, pass, &mut x);
            }
        }
    }
    let mut u = HuntTally::default();
    for (r, &s) in hunt_seeds.iter().enumerate() {
        hunt_round(&mut tracer, r as u64, s, &mut u);
    }
    Outcome {
        attempted: h.requests + x.verdicts + u.verdicts,
        failed: h.failed + x.failed + u.failed,
        problems: [&h.problems, &x.problems, &u.problems]
            .into_iter()
            .flatten()
            .cloned()
            .collect(),
        metrics: end_to_end(workload, &setup_s, &h, &x, &u),
        ..Outcome::default()
    }
}

/// Every end-to-end metric.
fn end_to_end(
    workload: Workload,
    setup_s: &[f64],
    h: &HttpTally,
    x: &ExploreTally,
    u: &HuntTally,
) -> Vec<Metric> {
    let (units, items, unit_name, item_name) = if workload == Workload::Verify {
        (&x.closure_s, x.explored, "closure passes", "schedules")
    } else {
        (&h.batch_s, h.agg.accepted as u64, "batches", "requests")
    };
    let unit_total: f64 = units.iter().sum();
    let throughput = ratio(items as f64, unit_total);
    let (tail_v, tail_p) = tail(units);
    let n = units.len();
    let through_base = format!("{items} {item_name} / {unit_total:.3} s of {n} {unit_name}");
    let p50_base = format!("median of {n} {unit_name}");
    let tail_base = format!("p{tail_p:.1} of {n} {unit_name}");
    let (bug_tail, bug_p) = tail(&u.samples_to_bug);
    let rounds = u.samples_to_bug.len();
    vec![
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        ),
        metric("requests_per_s", throughput, "req/s", through_base.clone()),
        metric("batch_s_p50", median(units), "s", p50_base.clone()),
        metric("batch_s_tail", tail_v, "s", tail_base.clone()),
        metric("closure_s_p50", median(units), "s", p50_base),
        metric("closure_s_tail", tail_v, "s", tail_base),
        metric("schedules_per_s", throughput, "sched/s", through_base),
        metric(
            "samples_to_bug_p50",
            median(&u.samples_to_bug),
            "samples",
            format!("median of {rounds} hunt rounds"),
        ),
        metric(
            "samples_to_bug_tail",
            bug_tail,
            "samples",
            format!("p{bug_p:.1} of {rounds} hunt rounds"),
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB", "VmHWM of the process"),
    ]
}

/// The names and units a timed (`trace == false`) or traced run prints
/// in its result line, in order.
pub fn metric_names(trace: bool) -> Vec<(&'static str, &'static str)> {
    let h = HttpTally {
        batch_s: vec![1.0],
        ..HttpTally::default()
    };
    let x = ExploreTally::default();
    let u = HuntTally {
        samples_to_bug: vec![1.0],
        ..HuntTally::default()
    };
    let metrics = if trace {
        let mut m = layer_metrics(Workload::Serve, &Tracer::new(false), &h, &x, &u);
        m.extend(run_metrics(0.0, 0.0, 0, 0));
        m
    } else {
        end_to_end(Workload::Serve, &[1.0], &h, &x, &u)
    };
    metrics.into_iter().map(|m| (m.name, m.unit)).collect()
}

/// One side of a traced run: its tracer and tallies.
struct Side {
    tracer: Tracer,
    h: HttpTally,
    x: ExploreTally,
    u: HuntTally,
}

impl Side {
    fn new(on: bool) -> Side {
        Side {
            tracer: Tracer::new(on),
            h: HttpTally::default(),
            x: ExploreTally::default(),
            u: HuntTally::default(),
        }
    }

    /// Seconds spent in the timed calls.
    fn unit_s(&self) -> f64 {
        self.h.batch_s.iter().chain(&self.x.closure_s).sum::<f64>() + self.u.hunt_s
    }
}

/// The traced run: a fixed amount of work with one seed, each unit run
/// untraced and then traced, back to back; per-layer metrics from the
/// traced side, and the difference between the sides as tracing
/// overhead. Alternating unit by unit keeps a slow stretch of the host
/// from landing on one side only. `serve` and `storm` run batches only,
/// `verify` one closure pass and [`TRACED_HUNT_ROUNDS`] hunt rounds, so
/// each layer's counts come from the workload that exercises it.
pub fn traced(workload: Workload, seed: u64) -> Outcome {
    let mut sides = [Side::new(false), Side::new(true)];
    match workload {
        Workload::Serve | Workload::Storm => {
            let mut http = Http::setup(seed, workload == Workload::Storm);
            for i in 0..TRACED_BATCHES {
                for side in &mut sides {
                    http.run_batch(&mut side.tracer, i, &mut side.h);
                }
            }
        }
        Workload::Verify => {
            for side in &mut sides {
                closure_pass(&mut side.tracer, 0, &mut side.x);
            }
            for r in 0..TRACED_HUNT_ROUNDS {
                for side in &mut sides {
                    hunt_round(&mut side.tracer, r, gen::hunt_seed(seed, r), &mut side.u);
                }
            }
        }
    }
    let [plain, traced] = sides;
    let Side { tracer, h, x, u } = &traced;
    let mut out = Outcome {
        attempted: h.requests + x.verdicts + u.verdicts,
        failed: h.failed + x.failed + u.failed,
        problems: [&h.problems, &x.problems, &u.problems]
            .into_iter()
            .flatten()
            .cloned()
            .collect(),
        spans: tracer.to_jsonl(),
        self_times: tracer.self_times(),
        ..Outcome::default()
    };
    out.metrics = layer_metrics(workload, tracer, h, x, u);
    out.metrics.extend(run_metrics(
        plain.unit_s(),
        traced.unit_s(),
        out.failed,
        out.attempted,
    ));
    out
}

/// The traced run's own rows: tracing overhead and the failed share.
fn run_metrics(plain_s: f64, traced_s: f64, failed: u64, attempted: u64) -> Vec<Metric> {
    vec![
        metric(
            "trace.overhead_share",
            ratio(traced_s - plain_s, plain_s),
            "ratio",
            format!(
                "traced {traced_s:.4} s - untraced {plain_s:.4} s of timed calls, over untraced"
            ),
        ),
        metric(
            "failed_share",
            ratio(failed as f64, attempted as f64),
            "ratio",
            format!("{failed} failed / {attempted} attempted"),
        ),
    ]
}

/// Every per-layer metric. "Per request" divides by the workload's work
/// items: accounted requests on `serve`/`storm`, closure schedules on
/// `verify`.
fn layer_metrics(
    workload: Workload,
    tracer: &Tracer,
    h: &HttpTally,
    x: &ExploreTally,
    u: &HuntTally,
) -> Vec<Metric> {
    let http = workload != Workload::Verify;
    let (stats, items, item_name, busy_s, allocs, bytes) = if http {
        let busy = tracer.self_s("Runtime::run");
        (
            &h.stats,
            h.agg.accepted as f64,
            "requests",
            busy,
            h.allocs,
            h.alloc_bytes,
        )
    } else {
        (
            &x.stats,
            x.explored as f64,
            "schedules",
            x.replay_s,
            x.allocs,
            x.alloc_bytes,
        )
    };
    let per = |v: u64| ratio(v as f64, items);
    let per_base = |what: &str, v: u64| format!("{v} {what} / {items} {item_name}");
    let a = &h.agg;
    let accepted = a.accepted as f64;
    let share = |v: i64| ratio(v as f64, accepted);
    let share_base = |v: i64| format!("{v} / {} accepted", a.accepted);
    let mean_accepted = ratio(h.shard_accepted.iter().sum::<i64>() as f64, SHARDS as f64);
    let max_accepted = h.shard_accepted.iter().copied().max().unwrap_or(0) as f64;
    let (parse_s, parse_calls) = self_and_calls(tracer, "parse_request");
    let (render_s, render_calls) = self_and_calls(tracer, "render");
    let check_self = tracer.self_s("Explorer::check");
    let deliveries = stats.async_deliveries + stats.interrupted_blocked;
    let explored = x.explored as f64;
    let schedules = |v: u64| ratio(v as f64, explored);
    let sched_base = |what: &str, v: u64| format!("{v} {what} / {} schedules", x.explored);
    vec![
        metric(
            "runtime.ns_per_step",
            ratio(busy_s * 1e9, stats.steps as f64),
            "ns/step",
            format!("{busy_s:.4} s busy / {} steps", stats.steps),
        ),
        metric(
            "runtime.steps_per_request",
            per(stats.steps),
            "steps/req",
            per_base("steps", stats.steps),
        ),
        metric(
            "runtime.allocs_per_request",
            per(allocs),
            "allocs/req",
            per_base("allocations", allocs),
        ),
        metric(
            "runtime.alloc_bytes_per_request",
            per(bytes),
            "bytes/req",
            per_base("bytes", bytes),
        ),
        metric(
            "runtime.steps_per_schedule",
            schedules(x.stats.steps),
            "steps/sched",
            sched_base("steps", x.stats.steps),
        ),
        metric(
            "runtime.switches_per_request",
            per(stats.context_switches),
            "switches/req",
            per_base("switches", stats.context_switches),
        ),
        metric(
            "runtime.mvar_ops_per_request",
            per(stats.mvar_ops),
            "ops/req",
            per_base("MVar ops", stats.mvar_ops),
        ),
        metric(
            "runtime.blocks_per_request",
            per(stats.blocks),
            "blocks/req",
            per_base("blocks", stats.blocks),
        ),
        metric(
            "runtime.forks_per_request",
            per(stats.forks),
            "forks/req",
            per_base("forks", stats.forks),
        ),
        metric(
            "runtime.timer_ops_per_request",
            per(stats.timer_ops),
            "ops/req",
            per_base("timer ops", stats.timer_ops),
        ),
        metric(
            "runtime.deliveries_per_request",
            per(deliveries),
            "deliv/req",
            per_base("deliveries", deliveries),
        ),
        metric(
            "runtime.catches_per_request",
            per(stats.catches),
            "catches/req",
            per_base("catches", stats.catches),
        ),
        metric(
            "runtime.delivery_latency_steps",
            ratio(
                stats.delivery_latency_total as f64,
                stats.delivery_latency_samples as f64,
            ),
            "steps",
            format!(
                "{} steps / {} deliveries",
                stats.delivery_latency_total, stats.delivery_latency_samples
            ),
        ),
        metric(
            "runtime.max_thread_slots",
            stats.max_thread_slots as f64,
            "slots",
            "high-water mark over the run",
        ),
        metric(
            "httpd.parse_ns",
            ratio(parse_s * 1e9, parse_calls as f64),
            "ns",
            format!("{parse_s:.6} s / {parse_calls} calls"),
        ),
        metric(
            "httpd.render_ns",
            ratio(render_s * 1e9, render_calls as f64),
            "ns",
            format!("{render_s:.6} s / {render_calls} calls"),
        ),
        metric(
            "httpd.outcome_share.served",
            share(a.served),
            "ratio",
            share_base(a.served),
        ),
        metric(
            "httpd.outcome_share.read_timeouts",
            share(a.read_timeouts),
            "ratio",
            share_base(a.read_timeouts),
        ),
        metric(
            "httpd.outcome_share.handler_timeouts",
            share(a.handler_timeouts),
            "ratio",
            share_base(a.handler_timeouts),
        ),
        metric(
            "httpd.outcome_share.handler_errors",
            share(a.handler_errors),
            "ratio",
            share_base(a.handler_errors),
        ),
        metric(
            "httpd.outcome_share.parse_errors",
            share(a.parse_errors),
            "ratio",
            share_base(a.parse_errors),
        ),
        metric(
            "httpd.outcome_share.aborted",
            share(a.aborted),
            "ratio",
            share_base(a.aborted),
        ),
        metric(
            "httpd.outcome_share.killed",
            share(a.killed),
            "ratio",
            share_base(a.killed),
        ),
        metric(
            "httpd.outcome_share.shed",
            share(a.shed),
            "ratio",
            share_base(a.shed),
        ),
        metric(
            "httpd.shard_imbalance",
            ratio(max_accepted, mean_accepted),
            "ratio",
            format!("max {max_accepted} / mean {mean_accepted} accepted per shard"),
        ),
        metric(
            "faults.strikes_per_request",
            ratio(h.kills as f64, accepted),
            "strikes/req",
            format!("{} strikes / {} accepted", h.kills, a.accepted),
        ),
        metric(
            "explore.replay_s",
            x.replay_s,
            "s",
            "Report.timing.replay_seconds summed",
        ),
        metric(
            "explore.analysis_s",
            x.analysis_s,
            "s",
            "Report.timing.analysis_seconds summed",
        ),
        metric(
            "explore.other_s",
            check_self,
            "s",
            format!("Explorer::check self time over {:.4} s", x.check_s),
        ),
        metric(
            "explore.replay_share",
            ratio(x.replay_s, x.check_s),
            "ratio",
            format!(
                "{:.4} s replay / {:.4} s in Explorer::check",
                x.replay_s, x.check_s
            ),
        ),
        metric("explore.explored", explored, "sched", "schedules executed"),
        metric(
            "explore.pruned",
            x.pruned as f64,
            "sched",
            "alternatives pruned",
        ),
        metric(
            "explore.replay_us_per_schedule",
            ratio(x.replay_s * 1e6, explored),
            "us/sched",
            format!("{:.4} s / {} schedules", x.replay_s, x.explored),
        ),
        metric(
            "explore.races_per_schedule",
            schedules(x.stats.races_detected),
            "races/sched",
            sched_base("races", x.stats.races_detected),
        ),
        metric(
            "explore.backtracks_per_schedule",
            schedules(x.stats.backtracks_installed),
            "bt/sched",
            sched_base("backtracks", x.stats.backtracks_installed),
        ),
        metric(
            "explore.allocs_per_schedule",
            schedules(x.allocs),
            "allocs/sched",
            sched_base("allocations", x.allocs),
        ),
        metric(
            "explore.samples_per_s",
            ratio(u.sampled as f64, u.hunt_s),
            "samples/s",
            format!("{} samples / {:.4} s of hunts", u.sampled, u.hunt_s),
        ),
        metric(
            "explore.distinct_share",
            ratio(u.distinct as f64, u.sampled as f64),
            "ratio",
            format!("{} distinct / {} samples", u.distinct, u.sampled),
        ),
    ]
}

fn self_and_calls(tracer: &Tracer, name: &str) -> (f64, u64) {
    tracer
        .self_times()
        .into_iter()
        .find(|(n, _, _)| *n == name)
        .map_or((0.0, 0), |(_, s, c)| (s, c))
}
