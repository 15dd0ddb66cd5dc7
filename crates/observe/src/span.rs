//! The span-based tracing core.
//!
//! A [`span`] is an RAII guard: it opens a named interval when created
//! and records it into a lock-cheap per-thread buffer when dropped.
//! Each recorded [`SpanRecord`] carries a monotonic start timestamp
//! (microseconds since the process trace epoch), a duration, a dense
//! thread id, and a parent link maintained by a per-thread span stack —
//! nesting falls out for free. [`event`] records an instantaneous
//! marker the same way.
//!
//! [`drain_trace`] collects every thread's buffer into a [`Trace`],
//! which serializes to a Chrome `trace_event` file
//! ([`Trace::to_chrome_json`], loadable in `chrome://tracing` or
//! Perfetto) or to JSONL ([`Trace::to_jsonl`]).
//!
//! Span and event *names* are passed as closures so the disabled build
//! never pays for formatting: outside a capture window (or without the
//! `enabled` feature) the closure is not invoked.

use simart_codec::json;
use std::fmt::Write as _;

/// One completed span: a named interval on one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, or 0 for a root.
    pub parent: u64,
    /// The span's name.
    pub name: String,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// One instantaneous event marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventRecord {
    /// The event's name.
    pub name: String,
    /// Dense id of the recording thread.
    pub thread: u32,
    /// Timestamp, microseconds since the process trace epoch.
    pub ts_us: u64,
}

/// Everything recorded since the last drain: completed spans and
/// events, ordered by timestamp.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Completed spans, sorted by start time then id.
    pub spans: Vec<SpanRecord>,
    /// Instant events, sorted by timestamp.
    pub events: Vec<EventRecord>,
}

impl Trace {
    /// Whether the trace holds no spans and no events.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.events.is_empty()
    }

    /// Serializes the trace in Chrome's `trace_event` JSON format
    /// (the "JSON Object Format": a `traceEvents` array of complete
    /// `"ph":"X"` events and instant `"ph":"i"` events). The output
    /// loads directly in `chrome://tracing` and
    /// [Perfetto](https://ui.perfetto.dev).
    pub fn to_chrome_json(&self) -> String {
        let mut entries = Vec::with_capacity(self.spans.len() + self.events.len());
        for span in &self.spans {
            let mut entry = String::from("{\"name\":");
            json::write_string(&mut entry, &span.name);
            let _ = write!(
                entry,
                ",\"cat\":\"simart\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                span.start_us, span.dur_us, span.thread, span.id, span.parent,
            );
            entries.push(entry);
        }
        for event in &self.events {
            let mut entry = String::from("{\"name\":");
            json::write_string(&mut entry, &event.name);
            let _ = write!(
                entry,
                ",\"cat\":\"simart\",\"ph\":\"i\",\"ts\":{},\
                 \"pid\":1,\"tid\":{},\"s\":\"t\"}}",
                event.ts_us, event.thread,
            );
            entries.push(entry);
        }
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&entries.join(",\n"));
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Serializes the trace as JSONL: one JSON object per line, spans
    /// first (`"type":"span"`), then events (`"type":"event"`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str("{\"type\":\"span\",\"name\":");
            json::write_string(&mut out, &span.name);
            let _ = writeln!(
                out,
                ",\"id\":{},\"parent\":{},\
                 \"thread\":{},\"start_us\":{},\"dur_us\":{}}}",
                span.id, span.parent, span.thread, span.start_us, span.dur_us,
            );
        }
        for event in &self.events {
            out.push_str("{\"type\":\"event\",\"name\":");
            json::write_string(&mut out, &event.name);
            let _ = writeln!(
                out,
                ",\"thread\":{},\"ts_us\":{}}}",
                event.thread, event.ts_us,
            );
        }
        out
    }
}

#[cfg(feature = "enabled")]
mod recording {
    use super::{EventRecord, SpanRecord, Trace};
    use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};
    use std::time::Instant;

    static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
    static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

    /// Microseconds since the process trace epoch (first clock use).
    fn now_us() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }

    #[derive(Default)]
    struct ThreadBuf {
        spans: Vec<SpanRecord>,
        events: Vec<EventRecord>,
        stack: Vec<u64>,
    }

    fn all_bufs() -> &'static Mutex<Vec<Arc<Mutex<ThreadBuf>>>> {
        static BUFS: OnceLock<Mutex<Vec<Arc<Mutex<ThreadBuf>>>>> = OnceLock::new();
        BUFS.get_or_init(|| Mutex::new(Vec::new()))
    }

    thread_local! {
        static LOCAL: (Arc<Mutex<ThreadBuf>>, u32) = {
            let buf = Arc::new(Mutex::new(ThreadBuf::default()));
            all_bufs().lock().unwrap_or_else(|e| e.into_inner()).push(Arc::clone(&buf));
            (buf, NEXT_THREAD.fetch_add(1, Ordering::Relaxed))
        };
    }

    /// RAII span guard (enabled build). Holds the open interval;
    /// records it into the thread buffer on drop.
    #[derive(Debug)]
    pub struct SpanGuard {
        open: Option<OpenSpan>,
    }

    struct OpenSpan {
        id: u64,
        parent: u64,
        name: String,
        thread: u32,
        start_us: u64,
        started: Instant,
        /// The creating thread's buffer, so a guard moved to (and
        /// dropped on) another thread still records and unwinds the
        /// right span stack.
        home: Arc<Mutex<ThreadBuf>>,
    }

    impl std::fmt::Debug for OpenSpan {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("OpenSpan")
                .field("id", &self.id)
                .field("name", &self.name)
                .finish_non_exhaustive()
        }
    }

    /// Opens a span on the current thread; it closes (and is
    /// recorded) when the returned guard drops. `name` is only invoked
    /// inside a capture window.
    pub fn span<N: FnOnce() -> String>(name: N) -> SpanGuard {
        if !crate::is_enabled() {
            return SpanGuard { open: None };
        }
        let open = LOCAL.with(|(buf, thread)| {
            let parent;
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            {
                let mut guard = buf.lock().unwrap_or_else(|e| e.into_inner());
                parent = guard.stack.last().copied().unwrap_or(0);
                guard.stack.push(id);
            }
            OpenSpan {
                id,
                parent,
                name: name(),
                thread: *thread,
                start_us: now_us(),
                started: Instant::now(),
                home: Arc::clone(buf),
            }
        });
        SpanGuard { open: Some(open) }
    }

    impl Drop for SpanGuard {
        fn drop(&mut self) {
            let Some(open) = self.open.take() else { return };
            let record = SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                thread: open.thread,
                start_us: open.start_us,
                dur_us: open.started.elapsed().as_micros() as u64,
            };
            let mut buf = open.home.lock().unwrap_or_else(|e| e.into_inner());
            // Unwind the stack to below this span (also clearing any
            // span opened above it that leaked without dropping).
            if let Some(pos) = buf.stack.iter().rposition(|&id| id == record.id) {
                buf.stack.truncate(pos);
            }
            buf.spans.push(record);
        }
    }

    /// Records an instant event on the current thread. `name` is only
    /// invoked inside a capture window.
    pub fn event<N: FnOnce() -> String>(name: N) {
        if !crate::is_enabled() {
            return;
        }
        LOCAL.with(|(buf, thread)| {
            let record = EventRecord {
                name: name(),
                thread: *thread,
                ts_us: now_us(),
            };
            buf.lock()
                .unwrap_or_else(|e| e.into_inner())
                .events
                .push(record);
        });
    }

    /// Moves everything recorded so far (on every thread) out into a
    /// [`Trace`], sorted by start time. Buffers are left empty.
    pub fn drain_trace() -> Trace {
        let mut trace = Trace::default();
        for buf in all_bufs().lock().unwrap_or_else(|e| e.into_inner()).iter() {
            let mut buf = buf.lock().unwrap_or_else(|e| e.into_inner());
            trace.spans.append(&mut buf.spans);
            trace.events.append(&mut buf.events);
        }
        trace.spans.sort_by_key(|s| (s.start_us, s.id));
        trace.events.sort_by_key(|e| e.ts_us);
        trace
    }
}

#[cfg(feature = "enabled")]
pub use recording::{drain_trace, event, span, SpanGuard};

/// No-op stand-ins compiled without the `enabled` feature: the whole
/// tracing surface folds to nothing and name closures never run.
#[cfg(not(feature = "enabled"))]
mod disabled {
    use super::Trace;

    /// Zero-sized no-op span guard compiled without the `enabled`
    /// feature.
    #[derive(Debug)]
    pub struct SpanGuard;

    /// No-op without the `enabled` feature; `name` is never invoked.
    #[inline(always)]
    pub fn span<N: FnOnce() -> String>(_name: N) -> SpanGuard {
        SpanGuard
    }

    /// No-op without the `enabled` feature; `name` is never invoked.
    #[inline(always)]
    pub fn event<N: FnOnce() -> String>(_name: N) {}

    /// Always empty without the `enabled` feature.
    #[inline(always)]
    /// Moves everything recorded so far (on every thread) out into a
    /// [`Trace`], sorted by start time. Buffers are left empty.
    pub fn drain_trace() -> Trace {
        Trace::default()
    }
}

#[cfg(not(feature = "enabled"))]
pub use disabled::{drain_trace, event, span, SpanGuard};

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "outer".to_owned(),
                    thread: 0,
                    start_us: 10,
                    dur_us: 100,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "inner \"quoted\"".to_owned(),
                    thread: 0,
                    start_us: 20,
                    dur_us: 30,
                },
            ],
            events: vec![EventRecord {
                name: "marker".to_owned(),
                thread: 1,
                ts_us: 25,
            }],
        }
    }

    #[test]
    fn chrome_json_has_the_trace_event_shape() {
        let json = sample_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"ph\":\"X\""), "complete events present");
        assert!(json.contains("\"ph\":\"i\""), "instant events present");
        assert!(json.contains("\"dur\":100"));
        assert!(json.contains("\"parent\":1"), "parent links serialized");
        assert!(json.contains("inner \\\"quoted\\\""), "names escaped");
        // Braces balance — a cheap structural validity check.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn jsonl_emits_one_object_per_line() {
        let jsonl = sample_trace().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"type\":\"span\""));
        assert!(lines[2].starts_with("{\"type\":\"event\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn empty_trace_serializes_cleanly() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert!(trace.to_chrome_json().contains("traceEvents"));
        assert_eq!(trace.to_jsonl(), "");
    }

    #[cfg(feature = "enabled")]
    #[test]
    fn spans_nest_via_parent_links_and_threads_get_dense_ids() {
        crate::enable();
        let _ = drain_trace();
        {
            let _outer = span(|| "t.outer".to_owned());
            {
                let _inner = span(|| "t.inner".to_owned());
            }
            event(|| "t.marker".to_owned());
        }
        std::thread::spawn(|| {
            let _other = span(|| "t.other-thread".to_owned());
        })
        .join()
        .unwrap();
        crate::disable();
        let trace = drain_trace();
        let find = |name: &str| {
            trace
                .spans
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("span {name} missing"))
        };
        let outer = find("t.outer");
        let inner = find("t.inner");
        let other = find("t.other-thread");
        assert_eq!(inner.parent, outer.id, "nesting recorded via parent link");
        assert_eq!(outer.parent, 0, "outer is a root");
        assert_eq!(other.parent, 0);
        assert_ne!(
            other.thread, outer.thread,
            "distinct threads get distinct ids"
        );
        assert!(outer.dur_us >= inner.dur_us || outer.start_us <= inner.start_us);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].name, "t.marker");
        // Drained means gone.
        assert!(drain_trace().is_empty());
    }
}
