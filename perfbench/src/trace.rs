//! Tracing for the traced run: spans the benchmark records around its own
//! calls into each layer, an allocation counter, and the self-time
//! reduction that turns spans into per-layer numbers.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! With tracing and counting off nothing is recorded and the counter is
//! not touched.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: `parent` is 0 for a root span; `req` names the request
/// (checkpoint seq, run index, or kill cycle) the span served.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The in-memory span store shared by every instrumented thread.
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds from the tracer's epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Starts a batch of spans for one request; nothing is stored until
    /// [`Batch::flush`].
    pub fn batch(&self, req: u64) -> Batch<'_> {
        Batch { tracer: self, req, spans: Vec::new() }
    }

    /// Takes every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Spans of one request, stored together.
pub struct Batch<'a> {
    tracer: &'a Tracer,
    req: u64,
    spans: Vec<Span>,
}

impl Batch<'_> {
    /// Adds a span from `start` to `end` under `parent` (0 for a root)
    /// and returns its id.
    pub fn span(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span {
            id,
            parent,
            req: self.req,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
        });
        id
    }

    /// Adds a span between two tracer timestamps (for intervals whose
    /// ends were stamped on different threads).
    pub fn span_ns(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let id = self.tracer.next_id.fetch_add(1, Ordering::Relaxed);
        self.spans.push(Span { id, parent: 0, req: self.req, name, start_ns, end_ns });
    }

    pub fn flush(self) {
        if !self.spans.is_empty() {
            self.tracer.spans.lock().expect("span store poisoned").extend(self.spans);
        }
    }
}

/// Self time of every span (its duration minus the part its children
/// cover), in microseconds, grouped by span name.
pub fn self_times_us(spans: &[Span]) -> HashMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for s in spans {
        let own = s.dur_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        out.entry(s.name).or_default().push(own as f64 / 1000.0);
    }
    out
}

/// Writes spans as tab-separated lines: id, parent, req, name, start_ns,
/// end_ns.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations while counting is on.
pub struct CountingAlloc;

// SAFETY: every call forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic with no effect on
// the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System`'s; the caller guarantees `new_size` is valid.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn count() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Turns allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
