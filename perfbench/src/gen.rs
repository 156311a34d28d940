//! Seeded input generation. Every input the program receives is a pure
//! function of the benchmark seed and the batch index, so two runs with
//! one seed drive the program with byte-identical inputs.

use conch_faults::ConnFault;
use conch_httpd::http::Request;

// The plane's shape is the repository's measured sharded configuration
// (`httpd_requests_sharded` in `BENCH_runtime.json`, EXPERIMENTS.md B11):
// 4 shards, 10 pipelined requests per connection, arrivals 100 virtual
// µs apart per shard. Its 4-shard rows carry 1k, 10k and 100k clients;
// a batch here carries 4 000, so every shard serves 1 000 connections.

/// Accept shards every batch is spread over.
pub const SHARDS: usize = 4;
/// Keep-alive connections per shard in one batch.
pub const CONNS_PER_SHARD: usize = 1_000;
/// Keep-alive connections per batch.
pub const CONNS_PER_BATCH: usize = SHARDS * CONNS_PER_SHARD;
/// Requests one connection carries (a `storm` connection ends early at
/// a stalled request).
pub const REQS_PER_CONN: usize = 10;
/// Largest `Io::compute` a compute route asks for, in interpreter steps:
/// the measured steps of one request through the sharded plane (111.1),
/// so a compute request at most doubles a request's interpreter work.
pub const MAX_COMPUTE_STEPS: u64 = 111;
/// Virtual µs between two arrivals on one shard.
pub const ARRIVAL_GAP_US: u64 = 100;

/// SplitMix64: a tiny, fully specified generator, so inputs depend on
/// nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn stream(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.0 ^= r.next_u64() ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB);
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// What one request is, and therefore what the server must answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A route answering a constant body.
    Constant,
    /// A route running `Io::compute(steps)` before answering.
    Compute(u64),
    /// A handler that raises: the server answers 500.
    Crash,
    /// A handler sleeping past the handler timeout: 504 via `timeout`.
    Wedge,
    /// Bytes that are not HTTP: 400.
    Garbage,
    /// A partial request and then silence: 408 via the read timeout.
    /// Always the last request of its connection (the server closes).
    Stall,
}

impl Kind {
    /// The status the server must answer this request with.
    pub fn status(self) -> i64 {
        match self {
            Kind::Constant | Kind::Compute(_) => 200,
            Kind::Crash => 500,
            Kind::Wedge => 504,
            Kind::Garbage => 400,
            Kind::Stall => 408,
        }
    }

    /// The wire bytes of this request.
    pub fn wire(self) -> String {
        match self {
            Kind::Constant => Request::get("/const").render(),
            Kind::Compute(n) => Request::get(format!("/compute/{n}")).render(),
            Kind::Crash => Request::get("/crash").render(),
            Kind::Wedge => Request::get("/wedge").render(),
            Kind::Garbage => ConnFault::Garbage.wire("/").0,
            Kind::Stall => ConnFault::Stall.wire("/stall").0,
        }
    }
}

/// One simulated keep-alive connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conn {
    pub shard: usize,
    pub kinds: Vec<Kind>,
    /// Wire text of each request, parallel to `kinds`.
    pub texts: Vec<String>,
}

/// A kill storm: at virtual time `at_us`, strike worker `i` of shard `s`
/// iff `strikes[s][i] == 1` (the scripted injector's arms).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Storm {
    pub at_us: u64,
    pub strikes: Vec<Vec<u8>>,
}

/// One batch: the inputs of one `Runtime::run`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    pub conns: Vec<Conn>,
    pub storm: Option<Storm>,
}

impl Batch {
    pub fn requests(&self) -> usize {
        self.conns.iter().map(|c| c.kinds.len()).sum()
    }
}

/// A well-formed request: the constant route or a compute route with
/// equal odds, as the repository's own HTTP storm test draws its `Good`
/// and `Work` clients (`tests/httpd_stress.rs`).
fn happy_kind(rng: &mut Rng) -> Kind {
    if rng.percent(50) {
        Kind::Constant
    } else {
        Kind::Compute(rng.range(1, MAX_COMPUTE_STEPS))
    }
}

/// The fault mix of `storm`: uniform over the request kinds of the
/// repository's HTTP storm test (`kind_strategy` in
/// `tests/httpd_stress.rs`: good, work, crash, slow, stall, garbage; its
/// trickling client is left out, as clients here send whole frames).
fn storm_kind(rng: &mut Rng) -> Kind {
    match rng.next_u64() % 6 {
        0 => Kind::Constant,
        1 => Kind::Compute(rng.range(1, MAX_COMPUTE_STEPS)),
        2 => Kind::Crash,
        3 => Kind::Wedge,
        4 => Kind::Garbage,
        _ => Kind::Stall,
    }
}

/// Batch `index` of a run seeded with `seed`. `faults` selects the storm
/// mix and a kill storm; without it every request is well-formed.
pub fn batch(seed: u64, index: u64, faults: bool) -> Batch {
    let mut rng = Rng::stream(seed, u64::from(faults), index);
    let conns = (0..CONNS_PER_BATCH)
        .map(|i| {
            let mut kinds = Vec::with_capacity(REQS_PER_CONN);
            for _ in 0..REQS_PER_CONN {
                let k = if faults {
                    storm_kind(&mut rng)
                } else {
                    happy_kind(&mut rng)
                };
                kinds.push(k);
                if k == Kind::Stall {
                    break;
                }
            }
            Conn {
                shard: i % SHARDS,
                texts: kinds.iter().map(|k| k.wire()).collect(),
                kinds,
            }
        })
        .collect();
    let storm = faults.then(|| {
        // Strike a seed-drawn 10–30% of each shard's workers, somewhere
        // inside the arrival window so most targets are still live.
        let share = rng.range(10, 30);
        let window = CONNS_PER_SHARD as u64 * ARRIVAL_GAP_US;
        Storm {
            at_us: rng.range(window / 4, window),
            strikes: (0..SHARDS)
                .map(|_| {
                    (0..CONNS_PER_SHARD)
                        .map(|_| u8::from(rng.percent(share)))
                        .collect()
                })
                .collect(),
        }
    });
    Batch { conns, storm }
}

/// Seed of hunt `index` of a run seeded with `seed`.
pub fn hunt_seed(seed: u64, index: u64) -> u64 {
    Rng::stream(seed, 7, index).next_u64()
}
