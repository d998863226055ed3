//! The outside-in layer trace: one span per call the benchmark makes
//! into a layer's public API. Spans live in memory in a preallocated,
//! bounded buffer and are written to a TSV file at exit. Calls that take
//! well under a microsecond (predict, CRC, pool, index, codec) are
//! replayed in blocks and recorded as one span covering `count` calls, so
//! the timer's own cost does not swamp the figure.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

use crate::util::quantile;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// The benchmark op (or replay index) this call belongs to.
    pub parent: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls covered by the span (1 for a single call).
    pub count: u32,
}

pub struct Tracer {
    on: bool,
    /// Whether spans are being recorded right now (a traced window
    /// alternates recording on and off to measure the tracer's cost).
    active: bool,
    /// Window time at which the buffer filled; recording stops there but
    /// the window runs on.
    full_at: Option<f64>,
    origin: Instant,
    cap: usize,
    pub thread: u32,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A tracer; when `on` is false every `record` is a no-op. `cap`
    /// bounds the buffer; up to 2^20 spans are allocated up front so
    /// recording never reallocates inside a measured window.
    pub fn new(on: bool, origin: Instant, cap: usize, thread: u32) -> Self {
        let spans = if on {
            Vec::with_capacity(cap.min(1 << 20))
        } else {
            Vec::new()
        };
        Tracer {
            on,
            active: on,
            full_at: None,
            origin,
            cap,
            thread,
            spans,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Records in odd seconds of a window and not in even ones, so the
    /// window's own per-second rates give the tracing overhead.
    #[inline]
    pub fn alternate(&mut self, elapsed: std::time::Duration) {
        self.active = self.on && elapsed.as_secs() % 2 == 1;
        if self.on && self.full_at.is_none() && self.spans.len() >= self.cap {
            self.full_at = Some(elapsed.as_secs_f64());
        }
    }

    /// Seconds into the window at which the buffer filled, if it did;
    /// only the seconds before it compare traced against untraced.
    pub fn full_at(&self) -> Option<f64> {
        self.full_at
    }

    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        t0: Instant,
        t1: Instant,
        count: u32,
    ) {
        if self.active && self.spans.len() < self.cap {
            self.spans.push(Span {
                name,
                parent,
                start_ns: t0.saturating_duration_since(self.origin).as_nanos() as u64,
                end_ns: t1.saturating_duration_since(self.origin).as_nanos() as u64,
                count,
            });
        }
    }

    /// Times `f` and records it as one span of `count` calls.
    #[inline]
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        count: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        self.record(name, parent, t0, Instant::now(), count);
        r
    }
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Default, Clone)]
pub struct SpanStats {
    pub calls: u64,
    pub total_ns: u64,
    /// Durations of the single-call spans (for percentiles).
    pub singles: Vec<u64>,
}

impl SpanStats {
    /// Mean ns per call.
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }

    pub fn pct_ns(&self, q: f64) -> f64 {
        let mut v = self.singles.clone();
        quantile(&mut v, q)
    }
}

/// All spans of a run, from every thread, grouped by name.
#[derive(Default)]
pub struct TraceSet {
    pub tracers: Vec<Tracer>,
}

impl TraceSet {
    pub fn add(&mut self, t: Tracer) {
        if t.is_on() {
            self.tracers.push(t);
        }
    }

    pub fn span_count(&self) -> usize {
        self.tracers.iter().map(|t| t.spans.len()).sum()
    }

    pub fn by_name(&self) -> HashMap<&'static str, SpanStats> {
        let mut m: HashMap<&'static str, SpanStats> = HashMap::new();
        for t in &self.tracers {
            for s in &t.spans {
                let e = m.entry(s.name).or_default();
                let d = s.end_ns.saturating_sub(s.start_ns);
                e.calls += s.count as u64;
                e.total_ns += d;
                if s.count == 1 {
                    e.singles.push(d);
                }
            }
        }
        m
    }

    /// Writes every span as `id thread name parent start_ns end_ns count`.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let f = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(f);
        writeln!(w, "id\tthread\tname\tparent_op\tstart_ns\tend_ns\tcount")?;
        let mut id = 0u64;
        for t in &self.tracers {
            for s in &t.spans {
                writeln!(
                    w,
                    "{id}\t{}\t{}\t{}\t{}\t{}\t{}",
                    t.thread, s.name, s.parent, s.start_ns, s.end_ns, s.count
                )?;
                id += 1;
            }
        }
        w.flush()
    }
}
