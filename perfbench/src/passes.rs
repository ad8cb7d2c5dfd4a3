//! Timed passes over a prepared stream.
//!
//! * [`production`] — the path under test: archives → `MergedStream` →
//!   `Kepler`, inside `Daemon` with a status reader beside it on daemon
//!   workloads. Untraced, it gives the
//!   end-to-end metrics; with a [`Ledger`] it gives decode, probe and
//!   signal spans.
//! * [`core_pass`] — the passive detector composed from `kepler-core`'s
//!   public modules, each call timed, checked against `Kepler` itself.
//! * [`serve_pass`] — the daemon's commit step performed from outside
//!   through the store and query APIs, each call timed.

use crate::fixture::ReplayCounters;
use crate::stats::Windows;
use crate::trace::{Ledger, Span};
use crate::workloads::{Replayed, Setup, Stream};
use kepler::bgpstream::{BgpRecord, GapTracker, Timestamp};
use kepler::core::events::{OutageReport, OutageScope, ValidationStatus};
use kepler::core::input::InputModule;
use kepler::core::investigate::Investigator;
use kepler::core::monitor::{DenseBinOutcome, Monitor};
use kepler::core::tracker::{IncidentMeta, Tracker};
use kepler::core::{AnyMonitor, Interner, Kepler};
use kepler::docmine::LocationTag;
use kepler::serve::{Daemon, DaemonConfig, IncidentStore, StatusView, ViewCell};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Interval between the status reader's reads: an open loop at 1 kHz.
/// The repository documents no deployment query load; this rate is an
/// assumed dashboard/alerting poll. At five_year's ~20 commits per
/// millisecond every read lands on a view published since the read
/// before it ([`ReadLog::fresh`] counts them).
pub const READ_PERIOD: Duration = Duration::from_millis(1);

/// Everything a run's passes add up.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted: records, replayed measurements, reads.
    pub attempted: u64,
    /// Records that failed decode or ingest, replay misses, bad reads.
    pub failed: u64,
    /// Records that failed decode.
    pub decode_errors: u64,
    /// Correctness-gate mismatches, described.
    pub mismatches: Vec<String>,
    /// Wall time of each ingest call that closed a bin.
    pub bin_close_ns: Windows,
    /// The status reader's log.
    pub reads: ReadLog,
}

/// What one production pass over one stream did.
#[derive(Debug, Default, Clone, Copy)]
pub struct StreamRun {
    /// Records decoded and processed.
    pub records: u64,
    /// Decode + ingest + finish wall time.
    pub window_ns: u64,
    /// Detector and store set-up.
    pub setup: Setup,
    /// Store commits (daemon only).
    pub commits: u64,
    /// Bins the detector closed.
    pub bins: u64,
    /// Auxiliary signals suppressed below the fusion opening quorum.
    pub suppressed: u64,
}

impl StreamRun {
    /// Adds another stream's run.
    pub fn add(&mut self, o: StreamRun) {
        self.records += o.records;
        self.window_ns += o.window_ns;
        self.setup.add(o.setup);
        self.commits += o.commits;
        self.bins += o.bins;
        self.suppressed += o.suppressed;
    }
}

/// The detector under test, bare or inside the daemon.
enum Sink {
    Daemon(Box<Daemon>),
    Bare(Box<Kepler>),
}

impl Sink {
    fn detector(&self) -> &Kepler {
        match self {
            Sink::Daemon(d) => d.detector(),
            Sink::Bare(k) => k,
        }
    }

    fn ingest(&mut self, rec: BgpRecord) -> bool {
        match self {
            Sink::Daemon(d) => d.ingest(rec).is_ok(),
            Sink::Bare(k) => {
                k.process_record_owned(rec);
                true
            }
        }
    }

    fn finish(self) -> std::io::Result<(Vec<OutageReport>, u64)> {
        match self {
            Sink::Daemon(d) => d.finish().map(|(reports, summary)| (reports, summary.commits)),
            Sink::Bare(mut k) => Ok((k.finalize(), 0)),
        }
    }
}

/// A fresh, empty store directory under `root`.
pub fn fresh_dir(root: &Path) -> PathBuf {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = root.join(format!("store-{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps a bare detector's clock one bin at a time up to `t`, timing
/// each step that closed a bin. Stepping starts once the stream itself
/// has started the bin clock.
fn step_clock(kepler: &mut Kepler, t: Timestamp, bin: u64, samples: &mut Windows) {
    if kepler.bins_closed() == 0 {
        return;
    }
    let mut end = kepler.last_bin_end() + bin;
    while end <= t {
        let before = kepler.bins_closed();
        let start = Instant::now();
        kepler.advance_clock(end);
        let ns = start.elapsed().as_nanos() as f64;
        if kepler.bins_closed() > before {
            samples.push(ns);
        }
        end += bin;
    }
}

/// One pass of the path under test over `stream`. `daemon` wraps the
/// detector in the serve daemon with a status reader beside it; streams
/// that step the bin clock get it stepped bin by bin. Checks the
/// stream's correctness gate into `tally`.
pub fn production(
    stream: &Stream,
    daemon: bool,
    store_root: &Path,
    ledger: Option<&Ledger>,
    tally: &mut Tally,
) -> Result<StreamRun, String> {
    let counters = Rc::new(ReplayCounters::default());
    let mut plane = Replayed { journals: &stream.journals, counters: Rc::clone(&counters) };
    let (kepler, mut setup) = stream.detector(&mut plane, ledger);
    let bin = stream.config().bin_secs;
    let step = stream.steps_clock();
    let mut sink = if daemon {
        let dir = fresh_dir(store_root);
        let start = Instant::now();
        let d = Daemon::new(kepler, &DaemonConfig::new(dir.clone()))
            .map_err(|e| format!("opening store {}: {e}", dir.display()))?;
        setup.store_open_ns = start.elapsed().as_nanos() as u64;
        Sink::Daemon(Box::new(d))
    } else {
        Sink::Bare(Box::new(kepler))
    };
    let view = match &sink {
        Sink::Daemon(d) => Some(d.view()),
        Sink::Bare(_) => None,
    };
    let scopes = read_scopes(stream);
    let errors = Rc::new(Cell::new(0));
    let mut records = stream.archives.stream(&errors);
    let mut run = StreamRun { setup, ..StreamRun::default() };
    let mut ingest_failed = 0u64;
    let stop = AtomicBool::new(false);
    let (finished, log) = std::thread::scope(|s| {
        let reader = view.map(|v| {
            let (scopes, stop) = (&scopes, &stop);
            s.spawn(move || read_loop(&v, scopes, stop))
        });
        let start = Instant::now();
        loop {
            let t = ledger.map(|_| Instant::now());
            let Some(rec) = records.next() else { break };
            if let (Some(l), Some(t)) = (ledger, t) {
                l.decode.add(t, 1);
            }
            run.records += 1;
            if let (true, Sink::Bare(k)) = (step, &mut sink) {
                step_clock(k, rec.time, bin, &mut tally.bin_close_ns);
            }
            let before = sink.detector().bins_closed();
            let t = Instant::now();
            let ok = sink.ingest(rec);
            let ns = t.elapsed().as_nanos() as f64;
            ingest_failed += u64::from(!ok);
            if sink.detector().bins_closed() > before {
                tally.bin_close_ns.push(ns);
            }
        }
        if let (true, Sink::Bare(k)) = (step, &mut sink) {
            step_clock(k, stream.end, bin, &mut tally.bin_close_ns);
        }
        run.bins = sink.detector().bins_closed();
        run.suppressed = sink.detector().class_counts().aux_suppressed as u64;
        let finished = sink.finish();
        run.window_ns = start.elapsed().as_nanos() as u64;
        stop.store(true, Ordering::Relaxed);
        let log = reader.map(|h| h.join().expect("status reader panicked"));
        (finished, log)
    });
    let (reports, commits) =
        finished.map_err(|e| format!("{}: store failed: {e}", stream.label))?;
    run.commits = commits;
    if let Some(log) = log {
        tally.attempted += log.reads;
        tally.failed += log.errors;
        tally.reads.absorb(log);
    }
    let decode_failed = errors.get() + stream.archives.records().saturating_sub(run.records);
    tally.attempted += stream.archives.records() + counters.lookups();
    tally.failed += decode_failed + ingest_failed + counters.misses();
    tally.decode_errors += decode_failed;
    check(stream, &reports, tally);
    Ok(run)
}

/// The stream's correctness gate: its reference reports.
fn check(stream: &Stream, reports: &[OutageReport], tally: &mut Tally) {
    if reports != stream.reference.as_slice() {
        tally.mismatches.push(format!(
            "{}: {} reports, reference has {}{}",
            stream.label,
            reports.len(),
            stream.reference.len(),
            if reports.len() == stream.reference.len() { " (contents differ)" } else { "" }
        ));
    }
}

/// The scopes the status reader cycles through: every facility and IXP
/// of the stream's world.
fn read_scopes(stream: &Stream) -> Vec<OutageScope> {
    let colo = &stream.scenario().world.colo;
    let facilities = colo.facilities().iter().map(|f| OutageScope::Facility(f.id));
    facilities.chain(colo.ixps().iter().map(|x| OutageScope::Ixp(x.id))).collect()
}

/// The status reader's record.
#[derive(Debug, Default)]
pub struct ReadLog {
    /// Reads issued.
    pub reads: u64,
    /// Reads that saw the view go back in time.
    pub errors: u64,
    /// Reads that saw a newer commit than the read before them.
    pub fresh: u64,
    /// Reads that started more than one period after they were due.
    pub late: u64,
    /// Service time of each read.
    pub read_ns: Windows,
}

impl ReadLog {
    fn absorb(&mut self, o: ReadLog) {
        self.reads += o.reads;
        self.errors += o.errors;
        self.fresh += o.fresh;
        self.late += o.late;
        self.read_ns.absorb(o.read_ns);
    }
}

/// An open-loop status reader: one `ViewCell::load` + `status` every
/// [`READ_PERIOD`], due times fixed in advance, until `stop`. A view
/// whose commit sequence or bin clock is older than one already seen is
/// an errored read.
fn read_loop(view: &ViewCell, scopes: &[OutageScope], stop: &AtomicBool) -> ReadLog {
    let mut log = ReadLog::default();
    let (mut seq, mut as_of) = (0u64, 0u64);
    let mut due = Instant::now();
    let mut i = 0usize;
    while !stop.load(Ordering::Relaxed) {
        due += READ_PERIOD;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let start = Instant::now();
        if start.duration_since(due) > READ_PERIOD {
            log.late += 1;
        }
        let v = view.load();
        let status = scopes.get(i % scopes.len().max(1)).and_then(|&s| v.status(s));
        std::hint::black_box(status);
        log.read_ns.push(start.elapsed().as_nanos() as f64);
        if v.seq < seq || v.as_of < as_of {
            log.errors += 1;
        }
        log.fresh += u64::from(v.seq > seq);
        (seq, as_of) = (v.seq, v.as_of);
        log.reads += 1;
        i += 1;
    }
    log
}

/// Spans and counts of the composed core pass.
#[derive(Debug, Default)]
pub struct CoreStats {
    /// Gap tracking + `InputModule::process_record_events` (interning
    /// included), per record.
    pub input: Span,
    /// `Monitor::observe`, per event.
    pub observe: Span,
    /// `Monitor::advance_to` + `DenseBinOutcome::resolve`, per bin.
    pub close: Span,
    /// `Investigator::investigate`, per bin; hits are signals.
    pub investigate: Span,
    /// `Tracker::record` + `check_restorations`, per bin.
    pub tracker: Span,
    /// Located announcements.
    pub located: u64,
    /// Announcements with or without location.
    pub announcements: u64,
    /// Interned routes at the end of each stream, summed.
    pub routes: u64,
    /// Stable baseline routes at the end of each stream, summed.
    pub baseline_routes: u64,
    /// Signal groups investigated, and the PoP-level ones among them.
    pub groups: u64,
    /// PoP-level signal groups.
    pub pop_level: u64,
    /// Most incidents live at once.
    pub live_max: u64,
    /// Records fed.
    pub records: u64,
}

/// The composed detector's state.
struct Composed {
    interner: Interner,
    monitor: AnyMonitor,
    investigator: Investigator,
    tracker: Tracker,
    bin_secs: u64,
    bins: u64,
    /// End of the last closed bin.
    last_end: Timestamp,
}

impl Composed {
    /// Handles one closed bin the way `Kepler` does with no prober, no
    /// data plane and no signal sources: pending localizations settle on
    /// their passive fallback.
    fn handle(&mut self, outcome: DenseBinOutcome, stats: &mut CoreStats) {
        let t = Instant::now();
        let outcome = outcome.resolve(&self.interner);
        stats.close.add(t, 0);
        let t = Instant::now();
        let inv = self.investigator.investigate(&outcome);
        stats.investigate.add(t, 1);
        stats.investigate.hit(outcome.signals.len() as u64);
        let pop = inv.incidents.len() + inv.pending.len() + inv.unresolved.len();
        stats.pop_level += pop as u64;
        stats.groups += (pop + inv.dismissed.len()) as u64;
        let settled = inv.pending.iter().filter_map(|p| p.fallback.map(|s| p.to_incident(s)));
        let incidents: Vec<_> = inv.incidents.into_iter().chain(settled).collect();
        let meta: Vec<IncidentMeta> = incidents
            .iter()
            .map(|_| IncidentMeta {
                validation: ValidationStatus::Unvalidated,
                ..IncidentMeta::default()
            })
            .collect();
        let t = Instant::now();
        self.tracker.record(&incidents, &meta, &mut self.interner);
        let bin_end = outcome.bin_start.saturating_add(self.bin_secs);
        self.tracker.check_restorations(bin_end, &mut self.monitor);
        stats.tracker.add(t, 1);
        stats.live_max = stats.live_max.max(self.tracker.ongoing_count() as u64);
        self.bins += 1;
        self.last_end = bin_end;
    }

    fn close_until(&mut self, t: Timestamp, stats: &mut CoreStats) {
        let start = Instant::now();
        let outcomes = self.monitor.advance_to(t);
        stats.close.add(start, outcomes.len() as u64);
        for outcome in outcomes {
            self.handle(outcome, stats);
        }
    }

    /// Closes bins one at a time up to `t`, as [`step_clock`] steps
    /// `Kepler`.
    fn step_until(&mut self, t: Timestamp, stats: &mut CoreStats) {
        if self.bins == 0 {
            return;
        }
        let mut end = self.last_end + self.bin_secs;
        while end <= t {
            self.close_until(end, stats);
            end += self.bin_secs;
        }
    }
}

/// The passive detector composed from `kepler-core`'s public modules
/// over `stream`, every layer call timed into `stats`. It watches the
/// same facilities' presence and steps the bin clock the same way as the
/// stream's production passes. Checks that it closes the same bins and
/// reports the same outages as `Kepler` on that passive configuration.
pub fn core_pass(stream: &Stream, stats: &mut CoreStats, tally: &mut Tally) {
    let mut setup = Setup::default();
    let inputs = stream.inputs(&mut setup);
    let config = inputs.config.clone();
    let watched = stream.watched(&inputs);
    let step = stream.steps_clock();
    let mut gap = GapTracker::new(config.quarantine_secs);
    let mut input = InputModule::new(inputs.dictionary.clone(), inputs.colo.clone());
    let mut tracker = Tracker::new(config.clone());
    tracker.set_geography(&inputs.colo);
    let mut c = Composed {
        interner: Interner::new(),
        monitor: AnyMonitor::Single(Monitor::new(config.clone())),
        investigator: Investigator::new(config.clone(), inputs.colo.clone(), inputs.orgs.clone()),
        tracker,
        bin_secs: config.bin_secs,
        bins: 0,
        last_end: 0,
    };
    for &f in &watched {
        let pop = c.interner.pop_id(LocationTag::Facility(f));
        c.monitor.watch_presence(pop);
    }
    let errors = Rc::new(Cell::new(0));
    let mut events = Vec::new();
    let mut last_time = 0;
    for rec in stream.archives.stream(&errors) {
        stats.records += 1;
        if step {
            c.step_until(rec.time, stats);
        }
        last_time = last_time.max(rec.time);
        let t = Instant::now();
        gap.observe(&rec);
        if gap.is_usable(rec.collector, rec.peer, rec.time) {
            input.process_record_events(&rec, &mut c.interner, |e| events.push((rec.time, e)));
        }
        stats.input.add(t, 1);
        for (t, event) in events.drain(..) {
            // `Kepler` applies the event before handling the bins it
            // closed; advancing first keeps that order with the close
            // timed on its own.
            let start = Instant::now();
            let outcomes = c.monitor.advance_to(t);
            stats.close.add(start, outcomes.len() as u64);
            let start = Instant::now();
            let none = c.monitor.observe(t, &event);
            stats.observe.add(start, 1);
            debug_assert!(none.is_empty(), "the clock was already advanced");
            for outcome in outcomes {
                c.handle(outcome, stats);
            }
        }
    }
    if step {
        c.step_until(stream.end, stats);
        last_time = last_time.max(stream.end);
    }
    c.close_until(last_time.saturating_add(2 * config.bin_secs), stats);
    let reports = c.tracker.finish();
    let s = input.stats();
    stats.located += s.located;
    stats.announcements += s.located + s.unlocated;
    stats.routes += c.interner.route_keys_since(0).len() as u64;
    if let AnyMonitor::Single(m) = &c.monitor {
        stats.baseline_routes += m.baseline_size() as u64;
    }

    let bin = config.bin_secs;
    let mut passive = Kepler::new(inputs);
    for f in watched {
        passive.watch_presence(LocationTag::Facility(f));
    }
    let mut unused = Windows::default();
    for rec in stream.archives.stream(&errors) {
        if step {
            step_clock(&mut passive, rec.time, bin, &mut unused);
        }
        passive.process_record_owned(rec);
    }
    if step {
        step_clock(&mut passive, stream.end, bin, &mut unused);
    }
    let want = passive.finalize();
    if reports != want || c.bins != passive.bins_closed() {
        tally.mismatches.push(format!(
            "{}: composed core pass closed {} bins with {} reports, Kepler {} with {}",
            stream.label,
            c.bins,
            reports.len(),
            passive.bins_closed(),
            want.len()
        ));
    }
}

/// Spans of the serve layer, taken around the daemon's commit step.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// `Kepler::export_incidents`, per commit.
    pub export: Span,
    /// `IncidentStore::commit_bin` without compaction, per commit.
    pub commit: Span,
    /// `IncidentStore::commit_bin` calls that compacted.
    pub compaction: Span,
    /// `StatusView::from_state`, per commit.
    pub view: Span,
    /// WAL bytes appended by commits that did not compact.
    pub wal_bytes: u64,
}

/// Replays `stream` through a bare detector and performs the daemon's
/// commit step from outside: export, durable commit, view build and
/// publish, each timed. Checks the reports against the reference.
pub fn serve_pass(
    stream: &Stream,
    store_root: &Path,
    stats: &mut ServeStats,
    tally: &mut Tally,
) -> Result<(), String> {
    let counters = Rc::new(ReplayCounters::default());
    let mut plane = Replayed { journals: &stream.journals, counters };
    let (mut kepler, _) = stream.detector(&mut plane, None);
    let dir = fresh_dir(store_root);
    let io = |e: std::io::Error| format!("{}: store failed: {e}", stream.label);
    // The daemon's own compaction cadence.
    let every = DaemonConfig::new(dir.clone()).snapshot_every_bins;
    let (mut store, _) = IncidentStore::open(&dir, every).map_err(io)?;
    let wal = dir.join("wal.log");
    let wal_len = || std::fs::metadata(&wal).map(|m| m.len()).unwrap_or(0);
    let cell = ViewCell::new(StatusView::from_state(store.state(), store.last_bin(), store.seq()));
    let errors = Rc::new(Cell::new(0));
    let mut len = wal_len();
    let mut commits = 0u64;
    for rec in stream.archives.stream(&errors) {
        kepler.process_record_owned(rec);
        let seq = kepler.bins_closed();
        if seq <= store.seq() {
            continue;
        }
        let bin_end = kepler.last_bin_end();
        let t = Instant::now();
        let state = kepler.export_incidents();
        stats.export.add(t, 1);
        let t = Instant::now();
        store.commit_bin(seq, bin_end, &state).map_err(io)?;
        let ns = t.elapsed().as_nanos() as u64;
        commits += 1;
        // Every `every`th commit compacts, restarting the WAL.
        let after = wal_len();
        if commits.is_multiple_of(every) {
            stats.compaction.add_ns(ns, 1);
        } else {
            stats.commit.add_ns(ns, 1);
            stats.wal_bytes += after.saturating_sub(len);
        }
        len = after;
        let t = Instant::now();
        let view = StatusView::from_state(store.state(), bin_end, seq);
        stats.view.add(t, 1);
        cell.store(view);
    }
    let reports = kepler.finalize();
    store.close_run(kepler.bins_closed() + 1, kepler.last_bin_end(), &reports).map_err(io)?;
    check(stream, &reports, tally);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{record_one, Journals};
    use kepler::netsim::fuzz::FailureKind;

    #[test]
    fn replay_is_deterministic_and_counts_misses() {
        let mut stream = record_one(FailureKind::DelaySurge, 1, 7).expect("recording agrees");
        assert!(stream.journals.canary.len() > 0, "the canary panel was traced");
        let root = Path::new("unused-store-root");
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut tally = Tally::default();
            let run = production(&stream, false, root, None, &mut tally)
                .expect("bare passes need no store");
            assert_eq!(tally.mismatches, Vec::<String>::new());
            assert_eq!(tally.failed, 0);
            assert!(tally.attempted > stream.archives.records(), "measurements were replayed");
            runs.push((run.bins, run.records, tally.bin_close_ns.count()));
        }
        assert_eq!(runs[0], runs[1], "two replays do the same work");
        assert_eq!(runs[0].2 as u64, runs[0].0, "every closed bin has its own sample");

        // Without journals every measurement misses: counted, never live.
        stream.journals = Journals::default();
        let mut tally = Tally::default();
        production(&stream, false, root, None, &mut tally).expect("bare pass");
        assert!(tally.failed > 0);
    }
}
