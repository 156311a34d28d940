//! In-memory spans around each call into a layer, and an allocation
//! counter. Both are on only inside the calls a tracing [`Tracer`]
//! times; spans are kept in memory and written out when the run ends.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) while
/// counting is on. Every counter is a statistic that publishes no other
/// data, hence `Relaxed`.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters only read `layout.size()`.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note(bytes: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

/// Allocation calls and bytes counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

/// One recorded span. `unit` groups the spans of one batch, closure
/// space or hunt; `parent` indexes the enclosing span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    unit: u64,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Calls the span covers (1 except for timed loops of calls).
    calls: u64,
}

/// The span recorder. When off, [`Tracer::time`] only runs the call.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` as span `name` of `unit` covering `calls` calls, and
    /// returns its result and the span's index (when tracing).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        unit: u64,
        calls: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Option<usize>) {
        if !self.on {
            return (f(), None);
        }
        let start_ns = self.now_ns();
        COUNTING.store(true, Relaxed);
        let r = f();
        COUNTING.store(false, Relaxed);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns,
            parent: None,
            calls,
        });
        (r, Some(self.spans.len() - 1))
    }

    /// Records a child of span `parent` from a duration the layer
    /// measured itself, laid at the parent's start.
    pub fn child(&mut self, parent: Option<usize>, name: &'static str, seconds: f64) {
        let Some(p) = parent else { return };
        let start_ns = self.spans[p].start_ns;
        let unit = self.spans[p].unit;
        self.spans.push(Span {
            name,
            unit,
            start_ns,
            end_ns: start_ns + (seconds * 1e9) as u64,
            parent: Some(p),
            calls: 1,
        });
    }

    /// Per span name: (self seconds, calls). Self time is a span's
    /// duration minus the durations of its children.
    pub fn self_times(&self) -> Vec<(&'static str, f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, f64, u64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]) as f64 / 1e9;
            match out.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(e) => {
                    e.1 += own;
                    e.2 += s.calls;
                }
                None => out.push((s.name, own, s.calls)),
            }
        }
        out
    }

    /// Self seconds of every span named `name`.
    pub fn self_s(&self, name: &str) -> f64 {
        self.self_times()
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |e| e.1)
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"calls\":{}}}",
                s.name, s.unit, s.start_ns, s.end_ns, parent, s.calls
            );
        }
        out
    }
}
