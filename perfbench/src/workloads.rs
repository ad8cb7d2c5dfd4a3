//! The two workloads: how their inputs are generated from the seed,
//! how their measurements are recorded, and how a timed pass rebuilds
//! the detector under test.
//!
//! Everything in [`prepare`] — world generation, simulation, MRT
//! encoding, canary-panel selection, the live reference runs and the
//! recording pass — happens before any timed window and outside set-up
//! time. [`Stream::detector`] is the set-up a timed pass pays for.

use crate::archive::Archives;
use crate::fixture::{CanaryRecorder, CanaryReplay, CanaryTape, Replay, ReplayCounters, Shared};
use crate::trace::{Ledger, Span, Timed};
use kepler::bgpstream::BgpRecord;
use kepler::core::{
    CanaryPair, DelayDetector, ForecastDetector, Kepler, KeplerConfig, KeplerInputs, OutageReport,
    SignalSource,
};
use kepler::docmine::LocationTag;
use kepler::glue::{
    canary_panel, detector_with_fusion, detector_with_lifecycle, is_trackable,
    vantage_registry_for, FusionOptions, SimTraceBackend,
};
use kepler::netsim::events::Epicenter;
use kepler::netsim::fuzz::{FailureKind, FuzzWorld, ScenarioScript};
use kepler::netsim::scenario::five_year::{self, FiveYearConfig};
use kepler::netsim::scenario::Scenario;
use kepler::netsim::WorldConfig;
use kepler::probe::{
    splitmix64, AsyncTraceBackend, CampaignTranscript, ProbeEngine, ProbeEngineConfig,
    RecordingBackend, SyncAdapter, TraceBackend,
};
use kepler::topology::{ColocationMap, FacilityId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Scenario seeds of the five-year world slots (tiny worlds under the
/// paper's outage and churn counts).
const FIVE_YEAR_TOPOLOGIES: [u64; 3] = [1, 2, 3];
/// Fuzz seeds of the fusion world slots, per family.
const FUSION_RECIPES: [u64; 2] = [1, 2];
/// The fusion families swept.
const FUSION_FAMILIES: [FailureKind; 3] =
    [FailureKind::SlowDrain, FailureKind::DelaySurge, FailureKind::Seasonal];
/// Seed salt of the probe backends, as the repository's glue uses it.
const PROBE_SALT: u64 = 0x9B0E;
/// Canary pairs per trackable facility (the glue default).
const CANARIES_PER_FACILITY: usize = 4;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's five-year timeline through the daemon with probers
    /// and one concurrent status reader.
    FiveYear,
    /// Fused fuzz worlds through bare `Kepler` with every signal source.
    FusionSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::FiveYear, Workload::FusionSweep];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FiveYear => "five_year",
            Workload::FusionSweep => "fusion_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the detector runs inside the serve daemon, with a status
    /// reader beside it.
    pub fn daemon(self) -> bool {
        matches!(self, Workload::FiveYear)
    }
}

/// A workload's prepared input.
pub struct Prepared {
    /// The streams one pass replays, in order.
    pub streams: Vec<Stream>,
    /// Wall time of the recording passes against the live simulator.
    pub record_secs: f64,
    /// Detector behaviour the preparation observed but does not gate.
    pub findings: Vec<String>,
}

/// One replayable stream and what its replay must reproduce.
pub struct Stream {
    /// Human-readable origin (`five_year seed 48`, ...).
    pub label: String,
    /// The stream as per-collector MRT archives.
    pub archives: Archives,
    /// What the detector is built from.
    pub source: Source,
    /// Reports every pass must reproduce exactly.
    pub reference: Vec<OutageReport>,
    /// Recorded measurements.
    pub journals: Journals,
    /// Where a stepped bin clock drains to after the last record.
    pub end: u64,
}

/// The world behind a stream.
pub enum Source {
    /// A five-year scenario.
    FiveYear(Box<Scenario>),
    /// A fused fuzz world and its canary panel.
    Fusion(Box<FuzzWorld>, Vec<CanaryPair>),
}

/// Recorded measurements of one stream.
#[derive(Default)]
pub struct Journals {
    /// The validation engine's attempts.
    pub validate: Arc<CampaignTranscript>,
    /// The restoration engine's attempts.
    pub restore: Arc<CampaignTranscript>,
    /// The delay detector's canary traces.
    pub canary: Arc<CanaryTape>,
}

/// Set-up time of one detector, split the way `setup.*` reports it.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    /// Community-dictionary mining.
    pub dictionary_ns: u64,
    /// Colocation merge, `Kepler::new`, probe engines, signal sources.
    pub detector_ns: u64,
    /// Store open and recovery.
    pub store_open_ns: u64,
}

impl Setup {
    /// The sum, in seconds.
    pub fn secs(&self) -> f64 {
        (self.dictionary_ns + self.detector_ns + self.store_open_ns) as f64 * 1e-9
    }

    /// Adds another detector's set-up.
    pub fn add(&mut self, other: Setup) {
        self.dictionary_ns += other.dictionary_ns;
        self.detector_ns += other.detector_ns;
        self.store_open_ns += other.store_open_ns;
    }
}

/// Which probe engine a backend serves.
#[derive(Debug, Clone, Copy)]
pub enum Role {
    /// Validation campaigns.
    Validate,
    /// Restoration re-probes.
    Restore,
}

/// Where a detector's measurements go: the live simulator, journaled,
/// or the journals of an earlier recording.
pub trait Plane {
    /// The probe engines' backend.
    type Probe: AsyncTraceBackend + 'static;
    /// The delay detector's canary backend.
    type Canary: TraceBackend + 'static;
    /// A backend for one engine.
    fn probe(&mut self, scenario: &Scenario, role: Role) -> Self::Probe;
    /// The canary backend.
    fn canary(&mut self, scenario: &Scenario) -> Self::Canary;
}

type LiveBackend = RecordingBackend<SyncAdapter<SimTraceBackend>>;

fn sim_backend(scenario: &Scenario) -> SimTraceBackend {
    SimTraceBackend::new(
        Arc::new(scenario.world.clone()),
        &scenario.timeline,
        scenario.seed ^ PROBE_SALT,
    )
}

/// The live simulator, every answer journaled.
#[derive(Default)]
pub struct Live {
    validate: Option<Rc<RefCell<LiveBackend>>>,
    restore: Option<Rc<RefCell<LiveBackend>>>,
    canary: Rc<RefCell<CanaryTape>>,
}

impl Live {
    /// Takes the journals recorded so far.
    pub fn take_journals(&self) -> Journals {
        let transcript = |b: &Option<Rc<RefCell<LiveBackend>>>| {
            Arc::new(
                b.as_ref()
                    .map(|b| std::mem::take(&mut b.borrow_mut().transcript))
                    .unwrap_or_default(),
            )
        };
        Journals {
            validate: transcript(&self.validate),
            restore: transcript(&self.restore),
            canary: Arc::new(std::mem::take(&mut *self.canary.borrow_mut())),
        }
    }
}

impl Plane for Live {
    type Probe = Shared<LiveBackend>;
    type Canary = CanaryRecorder<SimTraceBackend>;

    fn probe(&mut self, scenario: &Scenario, role: Role) -> Self::Probe {
        let backend =
            Rc::new(RefCell::new(RecordingBackend::new(SyncAdapter(sim_backend(scenario)))));
        let slot = match role {
            Role::Validate => &mut self.validate,
            Role::Restore => &mut self.restore,
        };
        *slot = Some(Rc::clone(&backend));
        Shared(backend)
    }

    fn canary(&mut self, scenario: &Scenario) -> Self::Canary {
        CanaryRecorder::new(sim_backend(scenario), Rc::clone(&self.canary))
    }
}

/// Answers from a stream's journals.
pub struct Replayed<'a> {
    /// The journals.
    pub journals: &'a Journals,
    /// Lookup and miss counters.
    pub counters: Rc<ReplayCounters>,
}

impl Plane for Replayed<'_> {
    type Probe = Replay;
    type Canary = CanaryReplay;

    fn probe(&mut self, _scenario: &Scenario, role: Role) -> Replay {
        let transcript = match role {
            Role::Validate => &self.journals.validate,
            Role::Restore => &self.journals.restore,
        };
        Replay::new(Arc::clone(transcript), Rc::clone(&self.counters))
    }

    fn canary(&mut self, _scenario: &Scenario) -> CanaryReplay {
        CanaryReplay::new(Arc::clone(&self.journals.canary), Rc::clone(&self.counters))
    }
}

fn engine<B: AsyncTraceBackend>(
    backend: B,
    scenario: &Scenario,
    colo: &ColocationMap,
    span: Option<&Rc<Span>>,
) -> ProbeEngine<Timed<B>> {
    ProbeEngine::with_async(
        Timed::new(backend, span),
        vantage_registry_for(&scenario.world),
        colo.clone(),
        ProbeEngineConfig::default(),
    )
}

/// Facilities the fused detector watches: the paper's trackability
/// rule over the mined dictionary, in colocation-map order.
fn trackable(
    scenario: &Scenario,
    dictionary: &kepler::docmine::CommunityDictionary,
    config: &KeplerConfig,
) -> Vec<FacilityId> {
    scenario
        .world
        .colo
        .facilities()
        .iter()
        .filter(|f| {
            is_trackable(
                &scenario.world,
                dictionary,
                &Epicenter::Facility(f.id),
                config.trackable_min_members,
            )
        })
        .map(|f| f.id)
        .collect()
}

impl Stream {
    /// The detector configuration of this stream.
    pub fn config(&self) -> KeplerConfig {
        match &self.source {
            Source::Fusion(fw, _) => {
                KeplerConfig::default().with_hysteresis(fw.script.open_after, fw.script.close_after)
            }
            Source::FiveYear(_) => KeplerConfig::default(),
        }
    }

    /// The scenario behind the stream.
    pub fn scenario(&self) -> &Scenario {
        match &self.source {
            Source::FiveYear(s) => s,
            Source::Fusion(fw, _) => &fw.scenario,
        }
    }

    /// Whether passes step the bin clock bin by bin with
    /// `advance_clock` and drain it to the stream's end: the fused
    /// detector's sources must be polled through record silence.
    pub fn steps_clock(&self) -> bool {
        matches!(self.source, Source::Fusion(..))
    }

    /// Facilities whose presence the detector watches: on fused streams,
    /// the trackable ones (see [`trackable`]); none otherwise.
    pub fn watched(&self, inputs: &KeplerInputs) -> Vec<FacilityId> {
        match &self.source {
            Source::FiveYear(_) => Vec::new(),
            Source::Fusion(fw, _) => trackable(&fw.scenario, &inputs.dictionary, &inputs.config),
        }
    }

    /// Builds the passive detector inputs; mining is timed into `setup`.
    pub fn inputs(&self, setup: &mut Setup) -> KeplerInputs {
        let scenario = self.scenario();
        let t = Instant::now();
        let dictionary = scenario.mined_dictionary();
        setup.dictionary_ns += t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let (colo, orgs) = (scenario.detector_colo(), scenario.world.orgs.clone());
        setup.detector_ns += t.elapsed().as_nanos() as u64;
        KeplerInputs { config: self.config(), dictionary, colo, orgs }
    }

    /// Builds the detector under test over `plane`, with its layers
    /// behind `ledger`'s spans when tracing. Returns it with its set-up.
    pub fn detector<P: Plane>(&self, plane: &mut P, ledger: Option<&Ledger>) -> (Kepler, Setup) {
        let mut setup = Setup::default();
        let inputs = self.inputs(&mut setup);
        let t = Instant::now();
        let span = |f: fn(&Ledger) -> &Rc<Span>| ledger.map(f);
        let kepler = match &self.source {
            Source::FiveYear(scenario) => {
                let colo = inputs.colo.clone();
                let validate = engine(
                    plane.probe(scenario, Role::Validate),
                    scenario,
                    &colo,
                    span(|l| &l.validate_backend),
                );
                let restore = engine(
                    plane.probe(scenario, Role::Restore),
                    scenario,
                    &colo,
                    span(|l| &l.restore_backend),
                );
                Kepler::new(inputs)
                    .with_prober(Box::new(Timed::new(validate, span(|l| &l.validate))))
                    .with_restoration_prober(Box::new(Timed::new(restore, span(|l| &l.restore))))
            }
            Source::Fusion(fw, panel) => {
                let scenario = &fw.scenario;
                let config = inputs.config.clone();
                let colo = inputs.colo.clone();
                let watched = self.watched(&inputs);
                let rtt = kepler::probe::shared_ledger(config.delay_threshold_ms);
                let validate = engine(
                    plane.probe(scenario, Role::Validate),
                    scenario,
                    &colo,
                    span(|l| &l.validate_backend),
                )
                .with_telemetry(rtt.clone());
                let mut kepler = Kepler::new(inputs)
                    .with_prober(Box::new(Timed::new(validate, span(|l| &l.validate))));
                for f in watched {
                    kepler.watch_presence(LocationTag::Facility(f));
                }
                let forecast: Box<dyn SignalSource> = Box::new(ForecastDetector::new(&config));
                let canary = Timed::new(plane.canary(scenario), span(|l| &l.canary_backend));
                let delay: Box<dyn SignalSource> = Box::new(DelayDetector::with_canary(
                    &config,
                    rtt,
                    canary,
                    panel.clone(),
                    scenario.start + 600,
                ));
                kepler
                    .with_signal_source(Box::new(Timed::new(forecast, span(|l| &l.forecast))))
                    .with_signal_source(Box::new(Timed::new(delay, span(|l| &l.delay))))
            }
        };
        setup.detector_ns += t.elapsed().as_nanos() as u64;
        (kepler, setup)
    }
}

/// Generates a workload's input from `seed`, runs its live reference
/// and recording passes, and checks that they agree.
///
/// Five-year and fusion streams come from fixed world slots: each
/// slot's topology, event timeline and BGP stream are the same in every
/// run, so runs with different seeds replay the same amount of routing
/// work. `seed` draws what the detector consumes besides the stream:
/// the operator documentation its community dictionary is mined from,
/// and the RTT noise of every probe and canary trace.
pub fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let slot_seed = |slot: u64| splitmix64(seed.wrapping_mul(16).wrapping_add(slot));
    match workload {
        Workload::FiveYear => {
            let sources = FIVE_YEAR_TOPOLOGIES.iter().zip(0..).map(|(&topology, slot)| {
                let mut scenario = five_year::build(FiveYearConfig {
                    world: WorldConfig::tiny(topology),
                    ..FiveYearConfig::standard(topology)
                });
                scenario.seed = slot_seed(slot);
                let label = format!("five_year world {topology} seed {}", scenario.seed);
                (label, Source::FiveYear(Box::new(scenario)))
            });
            record_all(sources.collect())
        }
        Workload::FusionSweep => {
            let mut sources = Vec::new();
            for (kind, family) in FUSION_FAMILIES.into_iter().zip(0..) {
                for &recipe in &FUSION_RECIPES {
                    sources.push(fusion_source(kind, recipe, slot_seed(family * 4 + recipe)));
                }
            }
            record_all(sources)
        }
    }
}

/// A fused fuzz world: the recipe's world and failure plan, `seed`'s
/// corpus and probe noise, and the canary panel over its trackable
/// facilities.
fn fusion_source(kind: FailureKind, recipe: u64, seed: u64) -> (String, Source) {
    let mut fw = ScenarioScript::generate_kind(recipe, Some(kind)).build();
    fw.scenario.seed = seed;
    let config =
        KeplerConfig::default().with_hysteresis(fw.script.open_after, fw.script.close_after);
    let dictionary = fw.scenario.mined_dictionary();
    let watched = trackable(&fw.scenario, &dictionary, &config);
    let panel =
        canary_panel(&fw.scenario, &watched, CANARIES_PER_FACILITY, fw.scenario.start + 600);
    let label = format!("fusion {} world {recipe} seed {seed}", kind.name());
    (label, Source::Fusion(Box::new(fw), panel))
}

/// One recorded fusion stream (for tests).
#[cfg(test)]
pub fn record_one(kind: FailureKind, recipe: u64, seed: u64) -> Result<Stream, String> {
    let mut prepared = record_all(vec![fusion_source(kind, recipe, seed)])?;
    Ok(prepared.streams.remove(0))
}

/// Runs the live references and the recording pass of every source.
///
/// The timed path reads per-collector archives through a merge that
/// breaks equal timestamps by collector, so the gate's reference is the
/// live detector over the records in that order. The same detector over
/// the simulator's own record order is compared too; a difference is a
/// finding about the detector (its output depends on how equal
/// timestamps are interleaved), reported but not gated. Fusion worlds
/// must also pass the fuzz harness's fused invariant checks.
fn record_all(sources: Vec<(String, Source)>) -> Result<Prepared, String> {
    let mut streams = Vec::new();
    let mut findings = Vec::new();
    let mut record_secs = 0.0;
    for (label, source) in sources {
        let scenario = match &source {
            Source::FiveYear(s) => s.as_ref(),
            Source::Fusion(fw, _) => &fw.scenario,
        };
        let archives = Archives::encode(scenario.output.records.iter().cloned());
        let errors = Rc::new(Cell::new(0));
        let merged: Vec<BgpRecord> = archives.stream(&errors).collect();
        let end = scenario.end;
        let mut stream = Stream {
            label,
            archives,
            source,
            reference: Vec::new(),
            journals: Journals::default(),
            end,
        };
        let config = stream.config();
        let (reference, simulator_order) = match &stream.source {
            Source::FiveYear(s) => {
                let live = |records: Vec<BgpRecord>| {
                    detector_with_lifecycle(s, config.clone()).run(records)
                };
                (live(merged.clone()), live(s.output.records.clone()))
            }
            Source::Fusion(fw, _) => {
                let verdict = kepler::fuzz_harness::check_world_fused(fw);
                if !verdict.ok() {
                    return Err(format!(
                        "{}: fuzz invariants violated: {:?}",
                        stream.label, verdict.violations
                    ));
                }
                let mut k = detector_with_fusion(&fw.scenario, config, FusionOptions::default());
                for rec in merged.iter().cloned() {
                    k.process_record_owned(rec);
                }
                k.advance_clock(end);
                (k.finalize(), verdict.reports)
            }
        };
        if simulator_order != reference {
            findings.push(format!(
                "{}: reports differ between the merged archive order and the simulator's \
                 record order ({} vs {} reports)",
                stream.label,
                reference.len(),
                simulator_order.len()
            ));
        }
        let mut live = Live::default();
        let t = Instant::now();
        let (mut kepler, _) = stream.detector(&mut live, None);
        for rec in merged {
            kepler.process_record_owned(rec);
        }
        if stream.steps_clock() {
            kepler.advance_clock(end);
        }
        let recorded = kepler.finalize();
        record_secs += t.elapsed().as_secs_f64();
        if recorded != reference {
            return Err(format!(
                "{}: the recording pass differs from the live reference ({} vs {} reports)",
                stream.label,
                recorded.len(),
                reference.len()
            ));
        }
        stream.journals = live.take_journals();
        stream.reference = reference;
        // Passes replay the archives; the simulator's own copy of the
        // records would only sit in memory under `peak_rss_mb`.
        match &mut stream.source {
            Source::FiveYear(s) => s.output.records = Vec::new(),
            Source::Fusion(fw, _) => fw.scenario.output.records = Vec::new(),
        }
        streams.push(stream);
    }
    Ok(Prepared { streams, record_secs, findings })
}
