//! Structured span/event tracing with JSONL serialization.
//!
//! The API is `tracing`-shaped but zero-dependency: a global sink is
//! [`install`]ed (a JSONL file writer, or an in-memory buffer for
//! tests), and instrumented code emits
//!
//! * **spans** — RAII guards created with the [`span!`](crate::span!)
//!   macro that record their wall-clock duration on drop, and
//! * **events** — point-in-time records created with
//!   [`event!`](crate::event!).
//!
//! When no sink is installed the macros cost a single relaxed atomic
//! load (~1 ns) and build nothing — see the `disabled_overhead` guard
//! in `magis-bench`'s `obs_overhead` binary.
//!
//! # Determinism
//!
//! Trace records carry three volatile fields (`ts_us`, `dur_us`,
//! `thread`) and an otherwise-deterministic payload. The
//! [`TraceEvent::identity`] projection drops the volatile fields so a
//! trace can be compared as a *set* across thread counts: the
//! M-Optimizer emits the same identity multiset for `--threads 1` and
//! `--threads N` (its workers emit nothing; the merge emits one span
//! per candidate with the worker-measured duration).

use crate::gate;
use crate::json::{Json, JsonError};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A typed field value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer (counts, byte sizes, hashes).
    U64(u64),
    /// Signed integer (deltas).
    I64(i64),
    /// Float (latencies, ratios). Must be finite to round-trip.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text (rule names, reasons).
    Str(String),
}

macro_rules! impl_from {
    ($($t:ty => $v:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(x: $t) -> FieldValue { FieldValue::$v(x as $conv) }
        })*
    };
}
impl_from!(
    u8 => U64 as u64, u16 => U64 as u64, u32 => U64 as u64, u64 => U64 as u64,
    usize => U64 as u64, i8 => I64 as i64, i16 => I64 as i64, i32 => I64 as i64,
    i64 => I64 as i64, isize => I64 as i64, f32 => F64 as f64, f64 => F64 as f64,
);

impl From<bool> for FieldValue {
    fn from(x: bool) -> FieldValue {
        FieldValue::Bool(x)
    }
}

impl From<&str> for FieldValue {
    fn from(x: &str) -> FieldValue {
        FieldValue::Str(x.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(x: String) -> FieldValue {
        FieldValue::Str(x)
    }
}

impl FieldValue {
    fn to_json(&self) -> Json {
        match self {
            FieldValue::U64(v) => Json::UInt(*v),
            FieldValue::I64(v) if *v >= 0 => Json::UInt(*v as u64),
            FieldValue::I64(v) => Json::Int(*v),
            FieldValue::F64(v) => Json::Float(*v),
            FieldValue::Bool(v) => Json::Bool(*v),
            FieldValue::Str(v) => Json::Str(v.clone()),
        }
    }

    fn from_json(j: &Json) -> Option<FieldValue> {
        match j {
            Json::UInt(v) => Some(FieldValue::U64(*v)),
            Json::Int(v) => Some(FieldValue::I64(*v)),
            Json::Float(v) => Some(FieldValue::F64(*v)),
            Json::Bool(v) => Some(FieldValue::Bool(*v)),
            Json::Str(v) => Some(FieldValue::Str(v.clone())),
            _ => None,
        }
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v:?}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// Whether a record is a completed span or a point-in-time event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Completed span (has a duration).
    Span,
    /// Point-in-time event.
    Event,
}

impl TraceKind {
    fn as_str(&self) -> &'static str {
        match self {
            TraceKind::Span => "span",
            TraceKind::Event => "event",
        }
    }
}

/// One trace record (a JSONL line).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the process's trace epoch. Volatile.
    pub ts_us: u64,
    /// Span or event.
    pub kind: TraceKind,
    /// Emitting subsystem, `magis_<crate>` by convention.
    pub target: String,
    /// Record name within the target's span taxonomy.
    pub name: String,
    /// Span duration in microseconds (`None` for events). Volatile.
    pub dur_us: Option<u64>,
    /// Small per-process thread number. Volatile.
    pub thread: u64,
    /// Deterministic payload.
    pub fields: Vec<(String, FieldValue)>,
}

/// Why a JSONL line failed to parse back into a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// The line is not valid JSON.
    Json(JsonError),
    /// The JSON is structurally not a trace record.
    Shape(String),
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Json(e) => write!(f, "trace line: {e}"),
            TraceParseError::Shape(msg) => write!(f, "trace line shape: {msg}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

impl TraceEvent {
    /// Serializes the record as one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut kvs: Vec<(String, Json)> = vec![
            ("ts_us".into(), Json::UInt(self.ts_us)),
            ("kind".into(), Json::Str(self.kind.as_str().into())),
            ("target".into(), Json::Str(self.target.clone())),
            ("name".into(), Json::Str(self.name.clone())),
        ];
        if let Some(d) = self.dur_us {
            kvs.push(("dur_us".into(), Json::UInt(d)));
        }
        kvs.push(("thread".into(), Json::UInt(self.thread)));
        kvs.push((
            "fields".into(),
            Json::Obj(self.fields.iter().map(|(k, v)| (k.clone(), v.to_json())).collect()),
        ));
        Json::Obj(kvs).render()
    }

    /// Parses a JSONL line produced by [`TraceEvent::to_jsonl`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceParseError`] for malformed JSON or a JSON value
    /// that is not a trace record.
    pub fn parse_line(line: &str) -> Result<TraceEvent, TraceParseError> {
        let j = Json::parse(line.trim()).map_err(TraceParseError::Json)?;
        let shape = |msg: &str| TraceParseError::Shape(msg.to_string());
        let ts_us = j.get("ts_us").and_then(Json::as_u64).ok_or_else(|| shape("missing ts_us"))?;
        let kind = match j.get("kind").and_then(Json::as_str) {
            Some("span") => TraceKind::Span,
            Some("event") => TraceKind::Event,
            _ => return Err(shape("missing or unknown kind")),
        };
        let target =
            j.get("target").and_then(Json::as_str).ok_or_else(|| shape("missing target"))?;
        let name = j.get("name").and_then(Json::as_str).ok_or_else(|| shape("missing name"))?;
        let dur_us = match j.get("dur_us") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or_else(|| shape("bad dur_us"))?),
        };
        let thread =
            j.get("thread").and_then(Json::as_u64).ok_or_else(|| shape("missing thread"))?;
        let mut fields = Vec::new();
        match j.get("fields") {
            Some(Json::Obj(kvs)) => {
                for (k, v) in kvs {
                    let fv = FieldValue::from_json(v)
                        .ok_or_else(|| shape(&format!("unsupported field value for '{k}'")))?;
                    fields.push((k.clone(), fv));
                }
            }
            Some(_) => return Err(shape("fields is not an object")),
            None => return Err(shape("missing fields")),
        }
        Ok(TraceEvent {
            ts_us,
            kind,
            target: target.to_string(),
            name: name.to_string(),
            dur_us,
            thread,
            fields,
        })
    }

    /// Deterministic projection of the record: kind, target, name, and
    /// the sorted field payload — everything *except* the volatile
    /// timestamp, duration, and thread number. Two searches that take
    /// the same trajectory produce the same identity multiset whatever
    /// their thread counts or wall-clock speeds.
    pub fn identity(&self) -> String {
        let mut fields: Vec<String> =
            self.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
        fields.sort();
        format!("{}:{}/{}[{}]", self.kind.as_str(), self.target, self.name, fields.join(","))
    }
}

/// Destination for trace records. Implementations must be cheap and
/// thread-safe; `record` is called with the fully built event.
pub trait TraceSink: Send + Sync {
    /// Consumes one record.
    fn record(&self, ev: &TraceEvent);
    /// Flushes buffered output (no-op by default).
    fn flush(&self) {}
}

/// In-memory sink for tests and programmatic inspection.
#[derive(Default)]
pub struct BufferSink {
    events: Mutex<Vec<TraceEvent>>,
}

impl BufferSink {
    /// A new empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes the recorded events out of the buffer.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut self.events.lock().unwrap())
    }

    /// Clones the recorded events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().unwrap().clone()
    }
}

impl TraceSink for BufferSink {
    fn record(&self, ev: &TraceEvent) {
        self.events.lock().unwrap().push(ev.clone());
    }
}

/// JSONL sink writing one record per line to any `Write`.
pub struct JsonlSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
}

impl JsonlSink {
    /// Wraps an arbitrary writer.
    pub fn new(w: Box<dyn std::io::Write + Send>) -> Self {
        JsonlSink { out: Mutex::new(w) }
    }

    /// Creates (truncates) `path` and writes buffered JSONL to it.
    ///
    /// # Errors
    ///
    /// Propagates the file-creation error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::File::create(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }

    /// Opens `path` for appending (creating it if absent) — used for
    /// per-job traces that must survive a daemon restart without
    /// truncating the records from the interrupted attempt.
    ///
    /// # Errors
    ///
    /// Propagates the file-open error.
    pub fn append(path: &std::path::Path) -> std::io::Result<Self> {
        let f = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Self::new(Box::new(std::io::BufWriter::new(f))))
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, ev: &TraceEvent) {
        let mut line = ev.to_jsonl();
        line.push('\n');
        let mut out = self.out.lock().unwrap();
        // A full disk must not kill the traced program.
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().unwrap().flush();
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Option<Arc<dyn TraceSink>>> = Mutex::new(None);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

struct ScopedLayer {
    sink: Arc<dyn TraceSink>,
    fields: Vec<(String, FieldValue)>,
}

thread_local! {
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    /// Per-thread stack of scoped sinks (innermost last). Records
    /// emitted on this thread go to every layer *in addition to* the
    /// global sink, with each layer's ambient fields appended.
    static SCOPED: RefCell<Vec<ScopedLayer>> = const { RefCell::new(Vec::new()) };
    /// Cheap mirror of `!SCOPED.is_empty()` so [`enabled`] stays one
    /// atomic load + one TLS read on the fully-disabled fast path.
    static SCOPED_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

fn thread_no() -> u64 {
    THREAD_NO.with(|t| *t)
}

fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Installs `sink` as the global trace destination and enables
/// tracing. Replaces (and flushes) any previous sink.
pub fn install(sink: Arc<dyn TraceSink>) {
    let prev = SINK.lock().unwrap().replace(sink);
    ENABLED.store(true, Ordering::Release);
    if let Some(p) = prev {
        p.flush();
    }
}

/// Disables tracing, flushes, and returns the previous sink.
pub fn uninstall() -> Option<Arc<dyn TraceSink>> {
    ENABLED.store(false, Ordering::Release);
    let prev = SINK.lock().unwrap().take();
    if let Some(p) = &prev {
        p.flush();
    }
    prev
}

/// Flushes the installed sink, if any.
pub fn flush() {
    if let Some(s) = SINK.lock().unwrap().as_ref() {
        s.flush();
    }
}

/// Whether tracing is on for this thread: a global sink is installed
/// or a [`scoped`] sink is active on this thread, and the thread is
/// not inside a [`gate::suppress`] region. The disabled fast path is a
/// relaxed atomic load plus one thread-local read.
#[inline]
pub fn enabled() -> bool {
    (ENABLED.load(Ordering::Relaxed) || SCOPED_ACTIVE.with(Cell::get)) && !gate::suppressed()
}

/// Pushes a thread-scoped trace sink: until the returned guard drops,
/// every record emitted *on this thread* is also delivered to `sink`,
/// and (in every destination, global sink included) carries the given
/// ambient `fields` appended to its payload. Layers nest; the
/// innermost layer's fields are appended last. `magis-serve` uses this
/// to route one job's search records into `jobs/job-<id>/trace.jsonl`
/// with a `job` correlation attribute.
pub fn scoped(sink: Arc<dyn TraceSink>, fields: Vec<(String, FieldValue)>) -> ScopedSinkGuard {
    SCOPED.with(|s| s.borrow_mut().push(ScopedLayer { sink, fields }));
    SCOPED_ACTIVE.with(|a| a.set(true));
    ScopedSinkGuard { _not_send: std::marker::PhantomData }
}

/// RAII guard from [`scoped`]: pops (and flushes) the layer on drop.
/// Deliberately `!Send` — a layer must pop on the thread that pushed
/// it.
pub struct ScopedSinkGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for ScopedSinkGuard {
    fn drop(&mut self) {
        let layer = SCOPED.with(|s| {
            let mut s = s.borrow_mut();
            let layer = s.pop();
            SCOPED_ACTIVE.with(|a| a.set(!s.is_empty()));
            layer
        });
        if let Some(l) = layer {
            l.sink.flush();
        }
    }
}

/// Appends every active scoped layer's ambient fields to `fields`
/// (outermost first). No-op on threads with no scoped sink.
fn append_scoped_fields(fields: &mut Vec<(String, FieldValue)>) {
    if !SCOPED_ACTIVE.with(Cell::get) {
        return;
    }
    SCOPED.with(|s| {
        for layer in s.borrow().iter() {
            fields.extend(layer.fields.iter().cloned());
        }
    });
}

fn dispatch(ev: &TraceEvent) {
    if ENABLED.load(Ordering::Relaxed) {
        let sink = SINK.lock().unwrap().as_ref().cloned();
        if let Some(s) = sink {
            s.record(ev);
        }
    }
    if SCOPED_ACTIVE.with(Cell::get) {
        SCOPED.with(|s| {
            for layer in s.borrow().iter() {
                layer.sink.record(ev);
            }
        });
    }
}

/// Emits an event (point-in-time record). Callers normally use the
/// [`event!`](crate::event!) macro, which skips field construction
/// when tracing is off.
pub fn event(target: &str, name: &str, mut fields: Vec<(String, FieldValue)>) {
    if !enabled() {
        return;
    }
    append_scoped_fields(&mut fields);
    dispatch(&TraceEvent {
        ts_us: now_us(),
        kind: TraceKind::Event,
        target: target.to_string(),
        name: name.to_string(),
        dur_us: None,
        thread: thread_no(),
        fields,
    });
}

/// Records a completed span with an externally measured duration.
///
/// The parallel optimizer measures phase durations inside its workers
/// and records them on the merge thread through this entry point,
/// keeping the emitted record set deterministic.
pub fn span_with_dur(
    target: &str,
    name: &str,
    dur: Duration,
    mut fields: Vec<(String, FieldValue)>,
) {
    if !enabled() {
        return;
    }
    append_scoped_fields(&mut fields);
    dispatch(&TraceEvent {
        ts_us: now_us(),
        kind: TraceKind::Span,
        target: target.to_string(),
        name: name.to_string(),
        dur_us: Some(dur.as_micros() as u64),
        thread: thread_no(),
        fields,
    });
}

/// RAII span: records a [`TraceKind::Span`] with its lifetime's
/// duration when dropped. Created by the [`span!`](crate::span!)
/// macro; a disabled guard is an inert `None` and never reads the
/// clock.
pub struct SpanGuard(Option<SpanInner>);

struct SpanInner {
    target: &'static str,
    name: &'static str,
    start: Instant,
    ts_us: u64,
    fields: Vec<(String, FieldValue)>,
}

impl SpanGuard {
    /// The inert guard used when tracing is off.
    pub fn disabled() -> SpanGuard {
        SpanGuard(None)
    }

    /// Starts an enabled span (the `span!` macro checks
    /// [`enabled`] first).
    pub fn start(
        target: &'static str,
        name: &'static str,
        fields: Vec<(String, FieldValue)>,
    ) -> SpanGuard {
        SpanGuard(Some(SpanInner { target, name, start: Instant::now(), ts_us: now_us(), fields }))
    }

    /// Attaches a field after creation (e.g. a result computed inside
    /// the span). No-op on a disabled guard.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(inner) = &mut self.0 {
            inner.fields.push((key.to_string(), value.into()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            let mut fields = inner.fields;
            append_scoped_fields(&mut fields);
            dispatch(&TraceEvent {
                ts_us: inner.ts_us,
                kind: TraceKind::Span,
                target: inner.target.to_string(),
                name: inner.name.to_string(),
                dur_us: Some(inner.start.elapsed().as_micros() as u64),
                thread: thread_no(),
                fields,
            });
        }
    }
}

/// Builds a `Vec<(String, FieldValue)>` from `key = value` pairs.
#[macro_export]
macro_rules! fields {
    ($($k:ident = $v:expr),* $(,)?) => {
        vec![ $( (stringify!($k).to_string(), $crate::trace::FieldValue::from($v)) ),* ]
    };
}

/// Starts an RAII span: `let _s = span!("magis_core", "expansion", n = 3);`.
///
/// Evaluates to a [`SpanGuard`]; when tracing is disabled the guard is
/// inert and the field expressions are never evaluated.
#[macro_export]
macro_rules! span {
    ($target:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::SpanGuard::start($target, $name, $crate::fields!($($k = $v),*))
        } else {
            $crate::trace::SpanGuard::disabled()
        }
    };
}

/// Emits a point-in-time event: `event!("magis_core", "accept", peak = p);`.
///
/// Field expressions are never evaluated when tracing is disabled.
#[macro_export]
macro_rules! event {
    ($target:expr, $name:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::trace::enabled() {
            $crate::trace::event($target, $name, $crate::fields!($($k = $v),*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TraceEvent {
        TraceEvent {
            ts_us: 12345,
            kind: TraceKind::Span,
            target: "magis_core".into(),
            name: "expansion".into(),
            dur_us: Some(678),
            thread: 3,
            fields: vec![
                ("candidates".into(), FieldValue::U64(u64::MAX)),
                ("delta".into(), FieldValue::I64(-42)),
                ("latency".into(), FieldValue::F64(0.1 + 0.2)),
                ("ok".into(), FieldValue::Bool(true)),
                ("rule".into(), FieldValue::Str("remat \"x\"\n".into())),
            ],
        }
    }

    #[test]
    fn jsonl_round_trip_is_exact() {
        let ev = sample();
        let line = ev.to_jsonl();
        let back = TraceEvent::parse_line(&line).unwrap();
        assert_eq!(back, ev);
        // Events too (no dur_us).
        let mut ev2 = sample();
        ev2.kind = TraceKind::Event;
        ev2.dur_us = None;
        assert_eq!(TraceEvent::parse_line(&ev2.to_jsonl()).unwrap(), ev2);
    }

    #[test]
    fn identity_ignores_volatile_fields() {
        let a = sample();
        let mut b = sample();
        b.ts_us = 999;
        b.dur_us = Some(1);
        b.thread = 7;
        assert_eq!(a.identity(), b.identity());
        let mut c = sample();
        c.fields[0].1 = FieldValue::U64(0);
        assert_ne!(a.identity(), c.identity());
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!(TraceEvent::parse_line("not json").is_err());
        assert!(TraceEvent::parse_line("{}").is_err());
        assert!(TraceEvent::parse_line(r#"{"ts_us":1,"kind":"nope"}"#).is_err());
        assert!(TraceEvent::parse_line(
            r#"{"ts_us":1,"kind":"event","target":"t","name":"n","thread":1,"fields":{"x":[1]}}"#
        )
        .is_err());
    }

    #[test]
    fn buffer_sink_captures_macro_output() {
        // Global state: serialize against other trace tests.
        let _lock = crate::test_support::global_lock();
        let buf = Arc::new(BufferSink::new());
        install(buf.clone());
        {
            let mut s = crate::span!("magis_test", "work", items = 2u64);
            s.record("result", 7u64);
            crate::event!("magis_test", "tick", n = 1u64);
        }
        uninstall();
        crate::event!("magis_test", "after", n = 2u64); // must be dropped
        let evs = buf.take();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].kind, TraceKind::Event);
        assert_eq!(evs[0].name, "tick");
        assert_eq!(evs[1].kind, TraceKind::Span);
        assert!(evs[1].dur_us.is_some());
        assert_eq!(
            evs[1].fields,
            vec![
                ("items".to_string(), FieldValue::U64(2)),
                ("result".to_string(), FieldValue::U64(7)),
            ]
        );
    }

    #[test]
    fn scoped_sink_receives_records_with_ambient_fields() {
        let _lock = crate::test_support::global_lock();
        let global = Arc::new(BufferSink::new());
        let job = Arc::new(BufferSink::new());
        install(global.clone());
        {
            let _g = scoped(job.clone(), crate::fields!(job = 7u64));
            crate::event!("magis_test", "tick", n = 1u64);
            crate::trace::span_with_dur(
                "magis_test",
                "work",
                Duration::from_micros(5),
                crate::fields!(items = 2u64),
            );
        }
        crate::event!("magis_test", "outside");
        uninstall();
        let jv = job.take();
        assert_eq!(jv.len(), 2, "scoped sink sees only in-scope records");
        let gv = global.take();
        assert_eq!(gv.len(), 3, "global sink sees everything");
        // Both copies of an in-scope record carry the ambient field.
        for ev in jv.iter().chain(gv.iter().take(2)) {
            assert!(
                ev.fields.contains(&("job".to_string(), FieldValue::U64(7))),
                "missing ambient field on {}",
                ev.name
            );
        }
        assert!(gv[2].fields.is_empty(), "out-of-scope record is unchanged");
    }

    #[test]
    fn scoped_sink_works_without_a_global_sink() {
        let _lock = crate::test_support::global_lock();
        let job = Arc::new(BufferSink::new());
        assert!(!enabled());
        {
            let _g = scoped(job.clone(), crate::fields!(job = 1u64));
            assert!(enabled(), "scoped layer alone enables tracing");
            crate::event!("magis_test", "tick");
            crate::gate::suppress(|| {
                crate::event!("magis_test", "hidden");
            });
        }
        assert!(!enabled());
        crate::event!("magis_test", "dropped");
        let evs = job.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "tick");
    }

    #[test]
    fn scoped_layers_nest_and_pop_in_order() {
        let _lock = crate::test_support::global_lock();
        let outer = Arc::new(BufferSink::new());
        let inner = Arc::new(BufferSink::new());
        {
            let _a = scoped(outer.clone(), crate::fields!(job = 1u64));
            {
                let _b = scoped(inner.clone(), crate::fields!(attempt = 2u64));
                crate::event!("magis_test", "both");
            }
            crate::event!("magis_test", "outer_only");
        }
        assert_eq!(inner.take().len(), 1);
        let o = outer.take();
        assert_eq!(o.len(), 2);
        assert_eq!(
            o[0].fields,
            vec![
                ("job".to_string(), FieldValue::U64(1)),
                ("attempt".to_string(), FieldValue::U64(2)),
            ]
        );
        assert_eq!(o[1].fields, vec![("job".to_string(), FieldValue::U64(1))]);
    }

    #[test]
    fn suppression_drops_records() {
        let _lock = crate::test_support::global_lock();
        let buf = Arc::new(BufferSink::new());
        install(buf.clone());
        crate::gate::suppress(|| {
            crate::event!("magis_test", "hidden");
            let _s = crate::span!("magis_test", "hidden_span");
        });
        crate::event!("magis_test", "visible");
        uninstall();
        let evs = buf.take();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].name, "visible");
    }
}
