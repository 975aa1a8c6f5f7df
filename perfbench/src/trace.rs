//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer of
//! the library (`workload.build`, `sim.service.run_epoch`, `core.decide`,
//! ...). Spans nest on one thread, so a span's parent is the span open
//! when it started. They stay in memory until the run ends and are then
//! written out as a Chrome trace (`chrome://tracing`, Perfetto).
//!
//! A disabled tracer records nothing: [`Tracer::enter`] and
//! [`Tracer::exit`] are one branch each, so the untraced run executes
//! the same code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`, e.g. `sim.service.run_epoch`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The layer a span belongs to: its name without the last component.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }

    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Open(Option<usize>);

/// Records spans when enabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes `open`, which must be the innermost open span.
    ///
    /// # Panics
    /// Panics when spans are closed out of order — a bug in the caller.
    pub fn exit(&mut self, open: Open) {
        let Open(Some(id)) = open else { return };
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds of the spans named `name`.
    #[must_use]
    pub fn seconds_in(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Seconds of self time per layer: each span's duration minus the
    /// part its child spans cover.
    #[must_use]
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = span.duration_ns().saturating_sub(children);
            *out.entry(span.layer()).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Renders the spans as a Chrome trace (complete events, µs).
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.layer(),
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("sim.service.run_epoch");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("core.decide", || {
            std::thread::sleep(std::time::Duration::from_millis(3));
        });
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = t.self_seconds();
        let total = spans[0].duration_ns() as f64 / 1e9;
        assert!(own["core"] >= 0.003);
        assert!((own["sim.service"] + own["core"] - total).abs() < 1e-9);
        assert!(t.chrome_json().contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let x = t.span("workload.build", || 7);
        assert_eq!(x, 7);
        assert!(t.spans().is_empty());
        assert!(t.self_seconds().is_empty());
    }
}
