//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's side of the public API, around
//! every call into a layer: name, start, end, the span that caused it, and
//! the round (the benchmark's request identifier) it belongs to. They stay in
//! memory until the run ends. Timing always happens — the recorder is also
//! the stopwatch of the untraced run — but a span is kept only while
//! recording is on, so the untraced run pays one `Instant` pair per call.

use scanraw_obs::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    /// The crate whose public function the span wraps (`bench` for the
    /// benchmark's own round spans).
    pub layer: &'static str,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub round: u64,
    pub lane: u64,
}

pub struct SpanLog {
    epoch: Instant,
    recording: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

/// Where new spans attach: the parent span, the round and the thread lane.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    log: &'a SpanLog,
    parent: Option<usize>,
    round: u64,
    lane: u64,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            recording: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    pub fn set_recording(&self, on: bool) {
        // Toggled between rounds by the thread that then opens the spans.
        self.recording.store(on, Ordering::SeqCst);
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a root span for one round; close it with [`SpanLog::close`].
    pub fn open_round(&self, round: u64, lane: u64) -> Scope<'_> {
        let parent = self.push(Span {
            layer: "bench",
            name: "round",
            start_s: self.now_s(),
            end_s: f64::NAN,
            parent: None,
            round,
            lane,
        });
        Scope {
            log: self,
            parent,
            round,
            lane,
        }
    }

    fn push(&self, span: Span) -> Option<usize> {
        if !self.recording.load(Ordering::SeqCst) {
            return None;
        }
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(span);
        Some(spans.len() - 1)
    }

    fn finish(&self, id: Option<usize>, end_s: f64) {
        if let Some(id) = id {
            self.spans.lock().expect("span log lock")[id].end_s = end_s;
        }
    }

    pub fn close(&self, scope: Scope<'_>) {
        self.finish(scope.parent, self.now_s());
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }
}

impl Scope<'_> {
    /// Runs `f` inside a span and returns its result with the elapsed
    /// seconds.
    pub fn time<T>(
        &self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_s = self.log.now_s();
        let id = self.log.push(Span {
            layer,
            name,
            start_s,
            end_s: f64::NAN,
            parent: self.parent,
            round: self.round,
            lane: self.lane,
        });
        let out = f();
        let end_s = self.log.now_s();
        self.log.finish(id, end_s);
        (out, end_s - start_s)
    }
}

/// Per `layer::name`: how many spans, their total duration, and their self
/// time (duration minus the part of the interval child spans cover).
pub fn self_times(spans: &[Span]) -> BTreeMap<String, (u64, f64, f64)> {
    let mut children: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_s, s.end_s));
        }
    }
    let mut out: BTreeMap<String, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_s.is_nan() {
            continue;
        }
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&i) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut reach = s.start_s;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_s));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        let e = out.entry(format!("{}::{}", s.layer, s.name)).or_default();
        e.0 += 1;
        e.1 += s.end_s - s.start_s;
        e.2 += s.end_s - s.start_s - covered;
    }
    out
}

/// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto): the
/// benchmark's spans as process 0, one thread lane per client thread, then
/// `program` — the events of one query's own span tree, as the program
/// exports them — as process 1.
pub fn chrome_trace(spans: &[Span], program: Option<Value>) -> Value {
    let mut events = vec![json!({
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": "benchmark (host wall clock)"},
    })];
    for (i, s) in spans.iter().enumerate() {
        if s.end_s.is_nan() {
            continue;
        }
        events.push(json!({
            "name": format!("{}::{}", s.layer, s.name),
            "cat": s.layer,
            "ph": "X",
            "pid": 0,
            "tid": s.lane,
            "ts": s.start_s * 1e6,
            "dur": (s.end_s - s.start_s) * 1e6,
            "args": {
                "span": i as u64,
                "parent": s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                "round": s.round,
            },
        }));
    }
    if let Some(Value::Array(program_events)) = program {
        events.push(json!({
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "program spans of the last traced query (device clock)"},
        }));
        events.extend(program_events);
    }
    Value::Array(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            layer: "t",
            name,
            start_s,
            end_s,
            parent,
            round: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0.0, 10.0, None),
            span("kid", 1.0, 4.0, Some(0)),
            span("kid", 3.0, 6.0, Some(0)),
        ];
        let t = self_times(&spans);
        let (n, total, own) = t["t::root"];
        assert_eq!(n, 1);
        assert_eq!(total, 10.0);
        assert_eq!(own, 5.0);
        assert_eq!(t["t::kid"], (2, 6.0, 6.0));
    }

    #[test]
    fn nothing_is_kept_while_recording_is_off() {
        let log = SpanLog::default();
        let scope = log.open_round(0, 0);
        let ((), secs) = scope.time("t", "call", || ());
        log.close(scope);
        assert!(secs >= 0.0);
        assert!(log.spans().is_empty());
        log.set_recording(true);
        let scope = log.open_round(1, 0);
        scope.time("t", "call", || ());
        log.close(scope);
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
    }
}
