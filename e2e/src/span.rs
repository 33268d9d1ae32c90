//! Spans recorded from the benchmark's own files.
//!
//! Two boundaries of the serving tier are reachable from outside: the
//! `serve_batch` call and, through [`crate::timed::Timed`], every probe
//! the service hands to its evaluator. A traced pass records one span
//! per call at each, keeps them in memory, and writes them as Chrome
//! `trace_event` JSON when the benchmark ends.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed interval. Spans of one batch share `batch_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Boundary the span was recorded at.
    pub name: &'static str,
    /// Start, nanoseconds since the sink was created.
    pub start_ns: u64,
    /// End, nanoseconds since the sink was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The batch the span belongs to.
    pub batch_id: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// No batch span is open.
const NO_PARENT: u64 = u64::MAX;

/// In-memory span store shared by the measuring loop and the timing
/// evaluator (which may run on the pool's worker threads).
#[derive(Debug)]
pub struct SpanSink {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    // SeqCst: `open` publishes the parent to probes on pool threads.
    open_parent: AtomicU64,
    open_batch: AtomicU64,
}

impl Default for SpanSink {
    fn default() -> Self {
        SpanSink {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            open_parent: AtomicU64::new(NO_PARENT),
            open_batch: AtomicU64::new(0),
        }
    }
}

impl SpanSink {
    /// Nanoseconds since the sink was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a span recorder panicked while holding the sink")
    }

    /// Opens the root span of batch `batch_id`; spans recorded with
    /// [`child`](SpanSink::child) until [`close`](SpanSink::close) hang
    /// under it. Returns its index.
    pub fn open(&self, name: &'static str, batch_id: u64) -> usize {
        let mut spans = self.spans();
        let index = spans.len();
        let now = self.now_ns();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: None,
            batch_id,
        });
        self.open_batch.store(batch_id, Ordering::SeqCst);
        self.open_parent.store(index as u64, Ordering::SeqCst);
        index
    }

    /// Ends the span [`open`](SpanSink::open) returned.
    pub fn close(&self, index: usize) {
        let now = self.now_ns();
        self.open_parent.store(NO_PARENT, Ordering::SeqCst);
        self.spans()[index].end_ns = now;
    }

    /// Records a finished span under the currently open batch span.
    pub fn child(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        let parent = self.open_parent.load(Ordering::SeqCst);
        let batch_id = self.open_batch.load(Ordering::SeqCst);
        self.spans().push(Span {
            name,
            start_ns,
            end_ns,
            parent: (parent != NO_PARENT).then_some(parent as usize),
            batch_id,
        });
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let outer = &spans[parent];
            let start = span.start_ns.max(outer.start_ns);
            let end = span.end_ns.min(outer.end_ns);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Renders spans as Chrome `trace_event` JSON (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, batch spans on
/// thread 0 and their children on thread 1.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (index, span) in spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"batch_id\":{}}}}}",
            span.name,
            usize::from(span.parent.is_some()),
            span.start_ns as f64 / 1e3,
            span.duration_ns() as f64 / 1e3,
            index,
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.batch_id,
        );
    }
    out.push_str("\n]}\n");
    out
}
