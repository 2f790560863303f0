//! Benchmark-owned spans around the calls into each layer, kept in memory
//! and written out in Chrome-trace form when the run ends.

use crate::json::Json;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    /// `None` while the span is open.
    pub end_us: Option<f64>,
    /// Index of the span that was open when this one was entered.
    pub parent: Option<usize>,
}

/// Handle of an open span, returned by [`Tracer::enter`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

/// Records nested spans on the calling thread. A tracer that is off records
/// nothing, so untraced repetitions run the same code minus the recording.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off between repetitions (never inside an
    /// open span).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracer switched inside an open span");
        self.on = on;
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_nanos() as f64 / 1e3
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: None,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans exited out of order");
        self.spans[index].end_us = Some(self.now_us());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds covered by, and number of, the closed spans called `name`
    /// among the spans recorded from index `from` on.
    pub fn total(&self, name: &str, from: usize) -> (f64, usize) {
        let mut micros = 0.0;
        let mut count = 0;
        for span in self.spans[from..].iter().filter(|s| s.name == name) {
            if let Some(end_us) = span.end_us {
                micros += end_us - span.start_us;
                count += 1;
            }
        }
        (micros / 1e6, count)
    }

    /// Checks that every span is closed, ends no earlier than it starts,
    /// starts after its parent was recorded, and lies inside its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (index, span) in self.spans.iter().enumerate() {
            let end = span
                .end_us
                .ok_or_else(|| format!("span {index} ({}) was never closed", span.name))?;
            if end < span.start_us {
                return Err(format!(
                    "span {index} ({}) ends before it starts",
                    span.name
                ));
            }
            let Some(parent_index) = span.parent else {
                continue;
            };
            if parent_index >= index {
                return Err(format!("span {index} ({}) precedes its parent", span.name));
            }
            let parent = &self.spans[parent_index];
            let inside = parent.start_us <= span.start_us
                && parent.end_us.is_some_and(|parent_end| end <= parent_end);
            if !inside {
                return Err(format!(
                    "span {index} ({}) is not inside its parent {parent_index} ({})",
                    span.name, parent.name
                ));
            }
        }
        Ok(())
    }

    /// The Chrome trace-event form: one complete (`"ph": "X"`) event per
    /// closed span, timestamps and durations in microseconds; `args` carry
    /// the span's index and its parent's.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .filter_map(|(index, span)| {
                let end_us = span.end_us?;
                Some(Json::Obj(vec![
                    ("name".into(), Json::Str(span.name.into())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(span.start_us)),
                    ("dur".into(), Json::Num(end_us - span.start_us)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(1.0)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(index as f64)),
                            (
                                "parent".into(),
                                span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ]))
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ms".into())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nested() -> Tracer {
        let mut tracer = Tracer::new(true);
        let rep = tracer.enter("rep");
        for _ in 0..3 {
            let quantum = tracer.enter("core.run_quantum");
            std::hint::black_box((0..1000).sum::<u64>());
            tracer.exit(quantum);
        }
        tracer.exit(rep);
        tracer
    }

    #[test]
    fn spans_record_their_parent_and_nest() {
        let tracer = nested();
        assert_eq!(tracer.spans().len(), 4);
        assert_eq!(tracer.spans()[0].parent, None);
        assert!(tracer.spans()[1..].iter().all(|s| s.parent == Some(0)));
        assert_eq!(tracer.check_nesting(), Ok(()));
        let (seconds, count) = tracer.total("core.run_quantum", 0);
        assert_eq!(count, 3);
        let (rep_seconds, _) = tracer.total("rep", 0);
        assert!(seconds <= rep_seconds);
        assert_eq!(tracer.total("core.run_quantum", 3).1, 1);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.enter("rep");
        tracer.exit(id);
        assert!(tracer.spans().is_empty());
        tracer.set_on(true);
        let id = tracer.enter("rep");
        tracer.exit(id);
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn nesting_check_reports_open_and_escaping_spans() {
        let mut open = Tracer::new(true);
        open.enter("rep");
        assert!(open.check_nesting().unwrap_err().contains("never closed"));

        let mut escaping = nested();
        escaping.spans[1].end_us = Some(f64::MAX);
        assert!(escaping.check_nesting().unwrap_err().contains("not inside"));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn exiting_an_outer_span_first_panics() {
        let mut tracer = Tracer::new(true);
        let outer = tracer.enter("rep");
        let _inner = tracer.enter("core.run_quantum");
        tracer.exit(outer);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let tracer = nested();
        let rendered = tracer.chrome_trace().render_pretty();
        let parsed = Json::parse(&rendered).expect("chrome trace parses");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents array");
        };
        assert_eq!(events.len(), 4);
        for event in events {
            assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
            assert!(event.get("dur").and_then(Json::as_f64).unwrap() >= 0.0);
        }
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
