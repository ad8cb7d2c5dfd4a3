//! Record/replay fixtures that keep the network simulator out of every
//! timed window.
//!
//! A recording pass runs the detector once against the live simulator
//! and journals every measurement it makes; timed passes then answer the
//! same measurements from the journal. Two shapes of backend need this:
//!
//! * the probe engines' async backends, journaled by the probe crate's
//!   own `RecordingBackend` behind a shared handle ([`Shared`]) — boxed
//!   inside `Kepler`, a plain `RecordingBackend` would take its
//!   transcript with it — and replayed by [`Replay`];
//! * the delay detector's synchronous canary backend, taped by
//!   [`CanaryRecorder`] and played back by [`CanaryReplay`].
//!
//! A replay miss means the timed run asked for a measurement the
//! recording never made. It is counted as a failed operation and never
//! falls back to the simulator.

use kepler::bgp::Asn;
use kepler::bgpstream::Timestamp;
use kepler::probe::{
    AsyncTraceBackend, CampaignTranscript, IfaceOwner, Measurement, MeasurementState,
    RecordedOutcome, SubmitResult, Trace, TraceBackend, TraceHop,
};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::net::IpAddr;
use std::rc::Rc;
use std::sync::Arc;

/// A backend behind a shared handle: the detector owns one clone, the
/// benchmark keeps another to read the journal after the run.
pub struct Shared<T>(pub Rc<RefCell<T>>);

impl<T: AsyncTraceBackend> AsyncTraceBackend for Shared<T> {
    fn submit(&mut self, m: &Measurement) -> SubmitResult {
        self.0.borrow_mut().submit(m)
    }

    fn poll(&mut self, m: &Measurement, now: Timestamp) -> MeasurementState {
        self.0.borrow_mut().poll(m, now)
    }
}

/// Replay lookups and misses, shared by every replay backend of a pass.
#[derive(Debug, Default)]
pub struct ReplayCounters {
    lookups: Cell<u64>,
    misses: Cell<u64>,
}

impl ReplayCounters {
    /// Measurements answered (or missed) from a journal.
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Measurements the journal had no answer for.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    fn count(&self, hit: bool) {
        self.lookups.set(self.lookups.get() + 1);
        if !hit {
            self.misses.set(self.misses.get() + 1);
        }
    }
}

/// Answers the async lifecycle from a recorded transcript with the
/// probe crate's `ReplayBackend` semantics — rejections reject, traces
/// answer on the first poll, failures fail, unknown attempts stay
/// pending — over a transcript shared between passes, counting every
/// submission the transcript does not know as a miss.
pub struct Replay {
    transcript: Arc<CampaignTranscript>,
    counters: Rc<ReplayCounters>,
}

impl Replay {
    /// A backend replaying `transcript`, counting into `counters`.
    pub fn new(transcript: Arc<CampaignTranscript>, counters: Rc<ReplayCounters>) -> Replay {
        Replay { transcript, counters }
    }
}

impl AsyncTraceBackend for Replay {
    fn submit(&mut self, m: &Measurement) -> SubmitResult {
        let recorded = self.transcript.get(m);
        self.counters.count(recorded.is_some());
        match recorded {
            Some(RecordedOutcome::Rejected) => SubmitResult::Rejected,
            _ => SubmitResult::Accepted,
        }
    }

    fn poll(&mut self, m: &Measurement, _now: Timestamp) -> MeasurementState {
        match self.transcript.get(m) {
            Some(RecordedOutcome::Done(trace)) => MeasurementState::Ready(trace.clone()),
            Some(RecordedOutcome::Failed) => MeasurementState::Failed,
            Some(RecordedOutcome::Rejected) | None => MeasurementState::Pending,
        }
    }
}

/// One canary trace's identity: vantage, target, instant.
type CanaryKey = (Asn, Asn, Timestamp);

/// A trace's hops without their RTTs.
type Route = Vec<(IpAddr, IfaceOwner)>;

/// Recorded canary traces, in the order they were asked for.
///
/// A fused pass replays about a million canary traces. Kept as whole
/// `Trace`s, the tape would be most of the run's memory and would stream
/// through the cache every pass, a load the detector under test does not
/// have. So a pair's route is stored once until it changes, and each
/// trace keeps only its key, its route and its hop RTTs.
#[derive(Debug, Default)]
pub struct CanaryTape {
    entries: Vec<TapeEntry>,
    routes: Vec<Route>,
    rtts: Vec<f64>,
    /// Each vantage/target pair's latest route.
    latest: HashMap<(Asn, Asn), u32>,
}

/// One recorded trace.
#[derive(Debug)]
struct TapeEntry {
    key: CanaryKey,
    route: u32,
    /// Index of its first hop RTT in `rtts`; the route gives the count.
    rtts: u32,
    reached: bool,
}

impl CanaryTape {
    /// Appends one answered trace.
    fn push(&mut self, key: CanaryKey, trace: &Trace) {
        let route: Route = trace.hops.iter().map(|h| (h.addr, h.owner)).collect();
        let pair = (key.0, key.1);
        let id = match self.latest.get(&pair) {
            Some(&id) if self.routes[id as usize] == route => id,
            _ => {
                let id = u32::try_from(self.routes.len()).expect("under 2^32 routes");
                self.routes.push(route);
                self.latest.insert(pair, id);
                id
            }
        };
        let rtts = u32::try_from(self.rtts.len()).expect("under 2^32 hops");
        self.rtts.extend(trace.hops.iter().map(|h| h.rtt_ms));
        self.entries.push(TapeEntry { key, route: id, rtts, reached: trace.reached });
    }

    /// Traces recorded.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// The `i`th trace, if it was recorded under `key`.
    fn get(&self, i: usize, key: CanaryKey) -> Option<Trace> {
        let e = self.entries.get(i).filter(|e| e.key == key)?;
        let route = &self.routes[e.route as usize];
        let rtts = &self.rtts[e.rtts as usize..][..route.len()];
        let hops = route
            .iter()
            .zip(rtts)
            .map(|(&(addr, owner), &rtt_ms)| TraceHop { addr, owner, rtt_ms })
            .collect();
        Some(Trace { hops, reached: e.reached })
    }
}

/// Records every trace a synchronous backend answers, in call order.
pub struct CanaryRecorder<B> {
    inner: B,
    tape: Rc<RefCell<CanaryTape>>,
}

impl<B> CanaryRecorder<B> {
    /// Records `inner`'s traces onto `tape`.
    pub fn new(inner: B, tape: Rc<RefCell<CanaryTape>>) -> Self {
        CanaryRecorder { inner, tape }
    }
}

impl<B: TraceBackend> TraceBackend for CanaryRecorder<B> {
    fn trace(&self, vantage: Asn, target: Asn, t: Timestamp) -> Trace {
        let trace = self.inner.trace(vantage, target, t);
        self.tape.borrow_mut().push((vantage, target, t), &trace);
        trace
    }
}

/// Plays a recorded tape back in order. The delay detector traces its
/// panel in a fixed order every bin, so a faithful replay asks for
/// exactly the recorded sequence; a request that is not the next one on
/// the tape is a miss, answered with an unreachable trace and counted.
/// Walking the tape in order keeps the replay's own cost small next to
/// the detector's.
pub struct CanaryReplay {
    tape: Arc<CanaryTape>,
    next: Cell<usize>,
    counters: Rc<ReplayCounters>,
}

impl CanaryReplay {
    /// A backend replaying `tape`, counting into `counters`.
    pub fn new(tape: Arc<CanaryTape>, counters: Rc<ReplayCounters>) -> CanaryReplay {
        CanaryReplay { tape, next: Cell::new(0), counters }
    }
}

impl TraceBackend for CanaryReplay {
    fn trace(&self, vantage: Asn, target: Asn, t: Timestamp) -> Trace {
        let i = self.next.get();
        match self.tape.get(i, (vantage, target, t)) {
            Some(trace) => {
                self.next.set(i + 1);
                self.counters.count(true);
                trace
            }
            None => {
                self.counters.count(false);
                Trace::unreachable()
            }
        }
    }
}
