//! Event sinks: where emitted [`Event`]s go.
//!
//! Three implementations cover the three deployment shapes:
//!
//! * [`NoopSink`] — production default. Reports `enabled() == false`, so
//!   [`crate::Telemetry::emit`] never even constructs the event.
//! * [`RingSink`] — bounded in-memory buffer. Used by the invariant tests
//!   and for live inspection; keeps the most recent `capacity` events.
//! * [`JsonlSink`] — buffered JSON-lines writer for `--telemetry <path>`.
//!
//! Two composition sinks support the observability layer:
//!
//! * [`TeeSink`] — fans every event out to several sinks (e.g. a flight
//!   recorder plus a span log).
//! * [`SpanLog`] — keeps only [`Event::Span`] records, for trace export.

use crate::event::Event;
use crate::flight::FlightRecorder;
use crate::span::Span;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Receives emitted events. Implementations must be internally
/// synchronized: shard workers and parallel sweeps may emit concurrently.
pub trait Sink: Send + Sync {
    /// Records one event.
    fn emit(&self, event: &Event);

    /// Whether emitting is worthwhile at all. [`crate::Telemetry`] caches
    /// this at construction to keep the hot-path check branch-cheap, so it
    /// must be constant over the sink's lifetime.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }

    /// The flight recorder behind this sink, if any — lets fault
    /// handlers trigger a crash dump through the `dyn Sink` handle
    /// without downcasting. [`TeeSink`] forwards to the first member
    /// that has one.
    fn flight(&self) -> Option<&FlightRecorder> {
        None
    }
}

/// Discards everything; `enabled()` is `false` so events are never built.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl Sink for NoopSink {
    fn emit(&self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the most recent `capacity` events in memory.
#[derive(Debug)]
pub struct RingSink {
    capacity: usize,
    state: Mutex<RingState>,
}

#[derive(Debug, Default)]
struct RingState {
    events: Vec<Event>,
    /// Index of the logical head once the buffer has wrapped.
    head: usize,
    /// Total events ever emitted (≥ `events.len()`).
    total: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (`capacity ≥ 1`).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be positive");
        RingSink {
            capacity,
            state: Mutex::new(RingState::default()),
        }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let state = self.state.lock().expect("ring sink poisoned");
        let mut out = Vec::with_capacity(state.events.len());
        out.extend_from_slice(&state.events[state.head..]);
        out.extend_from_slice(&state.events[..state.head]);
        out
    }

    /// Total events ever emitted, including evicted ones.
    #[must_use]
    pub fn total_emitted(&self) -> u64 {
        self.state.lock().expect("ring sink poisoned").total
    }

    /// Whether older events have been evicted.
    #[must_use]
    pub fn overflowed(&self) -> bool {
        let state = self.state.lock().expect("ring sink poisoned");
        state.total > state.events.len() as u64
    }
}

impl Sink for RingSink {
    fn emit(&self, event: &Event) {
        let mut state = self.state.lock().expect("ring sink poisoned");
        state.total += 1;
        if state.events.len() < self.capacity {
            state.events.push(event.clone());
        } else {
            let head = state.head;
            state.events[head] = event.clone();
            state.head = (head + 1) % self.capacity;
        }
    }
}

/// Streams events as JSON lines to a file (one [`Event::to_json`] object
/// per line). Buffered; flushed on [`Sink::flush`] and on drop.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
    /// Lines written so far.
    lines: Mutex<u64>,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    /// Propagates the underlying `File::create` failure.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            writer: Mutex::new(BufWriter::new(file)),
            lines: Mutex::new(0),
        })
    }

    /// Lines written so far (buffered lines included).
    #[must_use]
    pub fn lines_written(&self) -> u64 {
        *self.lines.lock().expect("jsonl sink poisoned")
    }
}

impl Sink for JsonlSink {
    fn emit(&self, event: &Event) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        // An I/O error mid-stream (disk full) must not abort the
        // scheduler; the final flush() surfaces persistent failures.
        let _ = writeln!(w, "{}", event.to_json());
        drop(w);
        *self.lines.lock().expect("jsonl sink poisoned") += 1;
    }

    fn flush(&self) -> io::Result<()> {
        self.writer.lock().expect("jsonl sink poisoned").flush()
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

/// Fans every event out to several sinks — e.g. a [`FlightRecorder`]
/// plus a [`SpanLog`] on a service shard.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Sink>>,
    enabled: bool,
}

impl std::fmt::Debug for TeeSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TeeSink")
            .field("sinks", &self.sinks.len())
            .field("enabled", &self.enabled)
            .finish()
    }
}

impl TeeSink {
    /// A tee over `sinks`; enabled iff any member is enabled (cached,
    /// honoring the [`Sink::enabled`] constancy contract).
    #[must_use]
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> TeeSink {
        let enabled = sinks.iter().any(|s| s.enabled());
        TeeSink { sinks, enabled }
    }
}

impl Sink for TeeSink {
    fn emit(&self, event: &Event) {
        for s in &self.sinks {
            s.emit(event);
        }
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn flush(&self) -> io::Result<()> {
        for s in &self.sinks {
            s.flush()?;
        }
        Ok(())
    }

    fn flight(&self) -> Option<&FlightRecorder> {
        self.sinks.iter().find_map(|s| s.flight())
    }
}

/// Retains only [`Event::Span`] records — the service drains one per
/// shard to assemble the run's trace for Chrome export.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    /// An empty span log.
    #[must_use]
    pub fn new() -> SpanLog {
        SpanLog::default()
    }

    /// A copy of the spans recorded so far, in emission order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Removes and returns the recorded spans.
    #[must_use]
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span log poisoned"))
    }

    /// Number of spans currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Whether no spans have been recorded (or all were drained).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for SpanLog {
    fn emit(&self, event: &Event) {
        if let Event::Span(sp) = event {
            self.spans.lock().expect("span log poisoned").push(*sp);
        }
    }
}

/// Parses a JSONL stream (e.g. a file written by [`JsonlSink`]) back into
/// events. Blank lines are skipped; any malformed line aborts with its
/// 1-based line number for diagnosis.
///
/// # Errors
/// Returns the offending line number and parse error.
pub fn parse_jsonl(text: &str) -> Result<Vec<Event>, (usize, crate::event::EventParseError)> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match Event::from_json(line) {
            Ok(e) => events.push(e),
            Err(err) => return Err((idx + 1, err)),
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Reason;

    fn ev(task: usize) -> Event {
        Event::Rejected {
            task,
            reason: Reason::NoFeasibleSchedule,
        }
    }

    #[test]
    fn noop_sink_is_disabled() {
        assert!(!NoopSink.enabled());
        NoopSink.emit(&ev(0)); // must not panic
        assert!(NoopSink.flush().is_ok());
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let ring = RingSink::new(3);
        for task in 0..5 {
            ring.emit(&ev(task));
        }
        let tasks: Vec<usize> = ring.events().iter().map(Event::task).collect();
        assert_eq!(tasks, vec![2, 3, 4]);
        assert_eq!(ring.total_emitted(), 5);
        assert!(ring.overflowed());
    }

    #[test]
    fn ring_below_capacity_keeps_everything() {
        let ring = RingSink::new(8);
        ring.emit(&ev(1));
        ring.emit(&ev(2));
        let tasks: Vec<usize> = ring.events().iter().map(Event::task).collect();
        assert_eq!(tasks, vec![1, 2]);
        assert!(!ring.overflowed());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_ring_is_rejected() {
        let _ = RingSink::new(0);
    }

    #[test]
    fn jsonl_sink_round_trips_through_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "pdftsp-telemetry-sink-test-{}.jsonl",
            std::process::id()
        ));
        let sink = JsonlSink::create(&path).expect("create jsonl");
        let original = vec![
            Event::ArrivalSeen {
                task: 4,
                slot: 1,
                bid: 2.5,
                vendors: 3,
            },
            ev(4),
        ];
        for e in &original {
            sink.emit(e);
        }
        sink.flush().expect("flush");
        assert_eq!(sink.lines_written(), 2);
        let text = std::fs::read_to_string(&path).expect("read back");
        let parsed = parse_jsonl(&text).expect("parse");
        assert_eq!(parsed, original);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parse_jsonl_reports_offending_line() {
        let text = format!("{}\nnot json\n", ev(1).to_json());
        let (line, _) = parse_jsonl(&text).unwrap_err();
        assert_eq!(line, 2);
    }

    #[test]
    fn tee_fans_out_and_surfaces_the_flight_recorder() {
        let ring = Arc::new(RingSink::new(8));
        let fr = Arc::new(FlightRecorder::new(2, 8));
        let tee = TeeSink::new(vec![ring.clone(), fr.clone()]);
        assert!(tee.enabled());
        tee.emit(&ev(5));
        assert_eq!(ring.total_emitted(), 1);
        assert_eq!(fr.total_emitted(), 1);
        assert_eq!(tee.flight().map(FlightRecorder::shard), Some(2));
        assert!(tee.flush().is_ok());
        // A tee of disabled sinks is disabled.
        assert!(!TeeSink::new(vec![Arc::new(NoopSink)]).enabled());
    }

    #[test]
    fn span_log_keeps_only_spans() {
        let log = SpanLog::new();
        assert!(log.is_empty());
        log.emit(&ev(1));
        log.emit(&Event::Span(Span::route(1, 0, 2, 0)));
        log.emit(&Event::Span(Span::propose(1, 0, 0, 42)));
        assert_eq!(log.len(), 2);
        let spans = log.drain();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].task, 1);
        assert!(log.is_empty());
    }
}
