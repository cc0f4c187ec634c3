//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A traced unit opens a `unit` span; the workload opens one span per call
//! into a layer under it (`run_slices`, `run_epochs`, the `next_access`
//! batch, the `step` batch) and attaches the engine-phase deltas read at
//! the same boundaries as child records.  A layer's self time is its
//! span's duration minus its children's.  Spans stay in memory and are
//! written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

use hatric::telemetry::{EnginePhase, PhaseTotals};

/// One span or child record.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call or engine phase name.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Timed unit the span belongs to.
    pub unit: usize,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.  Child records carry a phase total, not a
    /// contiguous interval, and start where their parent starts.
    pub dur_ns: u64,
    /// A migration was in flight around this span (epoch spans only).
    pub inflight: Option<bool>,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    unit: usize,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            unit: 0,
            spans: Vec::new(),
        }
    }

    /// Sets the unit index recorded with the spans that follow.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent`; returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            unit: self.unit,
            start_ns,
            dur_ns: 0,
            inflight: None,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = end - span.start_ns;
    }

    /// Marks span `id` with whether a migration was in flight.
    pub fn mark_inflight(&mut self, id: usize, inflight: bool) {
        self.spans[id].inflight = Some(inflight);
    }

    /// Attaches one child record per engine phase: the growth of the phase
    /// totals from `before` to `after`.
    pub fn phase_children(&mut self, parent: usize, before: &PhaseTotals, after: &PhaseTotals) {
        let (unit, start_ns) = (self.spans[parent].unit, self.spans[parent].start_ns);
        for phase in EnginePhase::ALL {
            self.spans.push(Span {
                name: phase_name(phase),
                parent: Some(parent),
                unit,
                start_ns,
                dur_ns: after.nanos(phase) - before.nanos(phase),
                inflight: None,
            });
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let inflight = s
                .inflight
                .map_or("null", |f| if f { "true" } else { "false" });
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"unit\": {}, \"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"inflight\": {inflight}}}",
                s.unit, s.name, s.start_ns, s.dur_ns
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// Child-record name of an engine phase.
#[must_use]
pub fn phase_name(phase: EnginePhase) -> &'static str {
    match phase {
        EnginePhase::PoolRefill => "engine.pool_refill",
        EnginePhase::Simulate => "engine.simulate",
        EnginePhase::BankReplay => "engine.bank_replay",
        EnginePhase::BookingReplay => "engine.booking_replay",
        EnginePhase::SerialCommit => "engine.serial_commit",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_phase_children_carry_deltas() {
        let mut t = Tracer::new();
        t.set_unit(3);
        let unit = t.open("unit", None);
        let call = t.open("run_slices", Some(unit));
        let before = PhaseTotals::default();
        let mut after = before;
        after.add(EnginePhase::Simulate, Duration::from_nanos(700));
        after.add(EnginePhase::SerialCommit, Duration::from_nanos(50));
        t.close(call);
        t.phase_children(call, &before, &after);
        t.close(unit);
        let spans = t.spans();
        assert_eq!(spans.len(), 2 + EnginePhase::ALL.len());
        assert!(spans.iter().all(|s| s.unit == 3));
        let sim = spans
            .iter()
            .find(|s| s.name == "engine.simulate")
            .expect("a simulate child");
        assert_eq!((sim.parent, sim.dur_ns), (Some(call), 700));
        assert!(spans[unit].dur_ns >= spans[call].dur_ns);
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), spans.len());
        assert!(lines.contains("\"name\": \"engine.serial_commit\", \"start_ns\""));
    }
}
