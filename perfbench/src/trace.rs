//! Spans recorded from outside the program: timing decorators around the
//! trait objects `Kepler` accepts.
//!
//! Each decorator forwards every call to the layer it wraps and, when it
//! holds a [`Span`], adds the call's wall time and count to it. Spans are
//! plain cells in memory, read once when the run ends.

use kepler::bgp::Asn;
use kepler::bgpstream::Timestamp;
use kepler::core::{BinView, SignalKind, SignalSource, SourceSignal};
use kepler::probe::{
    AsyncTraceBackend, BackendHealth, Epicenter, Measurement, MeasurementState, ProbeReport,
    ProbeRequest, Prober, RestorationProber, RestorationReport, SubmitResult, Trace, TraceBackend,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Busy time and work counts of one layer.
#[derive(Debug, Default)]
pub struct Span {
    ns: Cell<u64>,
    calls: Cell<u64>,
    hits: Cell<u64>,
}

impl Span {
    /// Adds the time since `start` and `calls` calls.
    pub fn add(&self, start: Instant, calls: u64) {
        self.add_ns(start.elapsed().as_nanos() as u64, calls);
    }

    /// Adds `ns` nanoseconds and `calls` calls.
    pub fn add_ns(&self, ns: u64, calls: u64) {
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + calls);
    }

    /// Counts `n` useful outcomes (resolved campaigns, raised signals).
    pub fn hit(&self, n: u64) {
        self.hits.set(self.hits.get() + n);
    }

    /// Total busy nanoseconds.
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    /// Calls made.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Useful outcomes counted.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Nanoseconds per `per` (0 when `per` is 0).
    pub fn ns_per(&self, per: u64) -> f64 {
        ratio(self.ns() as f64, per as f64)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A layer behind a timing decorator. Without a span it only forwards.
pub struct Timed<T> {
    inner: T,
    span: Option<Rc<Span>>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, timing into `span` when one is given.
    pub fn new(inner: T, span: Option<&Rc<Span>>) -> Self {
        Timed { inner, span: span.cloned() }
    }

    fn start(&self) -> Option<Instant> {
        self.span.as_ref().map(|_| Instant::now())
    }

    fn stop(&self, start: Option<Instant>, calls: u64, hits: u64) {
        if let (Some(span), Some(start)) = (&self.span, start) {
            span.add(start, calls);
            span.hit(hits);
        }
    }
}

impl<P: Prober> Prober for Timed<P> {
    fn validate(&mut self, request: &ProbeRequest, now: Timestamp) -> ProbeReport {
        let t = self.start();
        let report = self.inner.validate(request, now);
        self.stop(t, 1, u64::from(report.resolved().is_some()));
        report
    }

    fn health(&self) -> BackendHealth {
        self.inner.health()
    }
}

impl<R: RestorationProber> RestorationProber for Timed<R> {
    fn check(
        &mut self,
        epicenter: Epicenter,
        targets: &[Asn],
        incident_start: Timestamp,
        now: Timestamp,
    ) -> RestorationReport {
        let t = self.start();
        let report = self.inner.check(epicenter, targets, incident_start, now);
        self.stop(t, 1, 0);
        report
    }
}

impl SignalSource for Timed<Box<dyn SignalSource>> {
    fn kind(&self) -> SignalKind {
        self.inner.kind()
    }

    fn poll(&mut self, view: &BinView<'_>) -> Vec<SourceSignal> {
        let t = self.start();
        let signals = self.inner.poll(view);
        self.stop(t, 1, signals.len() as u64);
        signals
    }
}

/// Async measurement backends: a submission counts as one measurement.
impl<B: AsyncTraceBackend> AsyncTraceBackend for Timed<B> {
    fn submit(&mut self, m: &Measurement) -> SubmitResult {
        let t = self.start();
        let r = self.inner.submit(m);
        self.stop(t, 1, 0);
        r
    }

    fn poll(&mut self, m: &Measurement, now: Timestamp) -> MeasurementState {
        let t = self.start();
        let state = self.inner.poll(m, now);
        self.stop(t, 0, 0);
        state
    }
}

/// Synchronous trace backends (the delay detector's canary panel).
impl<B: TraceBackend> TraceBackend for Timed<B> {
    fn trace(&self, vantage: Asn, target: Asn, t: Timestamp) -> Trace {
        let start = self.start();
        let trace = self.inner.trace(vantage, target, t);
        self.stop(start, 1, 0);
        trace
    }
}

/// The spans of one traced run's production passes.
#[derive(Debug, Default)]
pub struct Ledger {
    /// `MrtSource` → `MergedStream`: one call per record.
    pub decode: Rc<Span>,
    /// `Prober::validate`: one call per campaign; hits are resolved ones.
    pub validate: Rc<Span>,
    /// The validation engine's backend: one call per measurement.
    pub validate_backend: Rc<Span>,
    /// `RestorationProber::check`.
    pub restore: Rc<Span>,
    /// The restoration engine's backend.
    pub restore_backend: Rc<Span>,
    /// The forecast signal source's polls; hits are raised signals.
    pub forecast: Rc<Span>,
    /// The delay signal source's polls (canary traces included).
    pub delay: Rc<Span>,
    /// The delay source's canary backend: one call per trace.
    pub canary_backend: Rc<Span>,
}
