//! The datacenter simulation driver.
//!
//! Wires the DES engine (`eards-sim`), the datacenter model
//! (`eards-model`), a workload trace and a scheduling policy into one run,
//! and produces the metrics the paper's tables report. This is the
//! equivalent of the paper's OMNeT++ simulation harness (§IV): the
//! *Workload Generator* feeds arrivals, the *Scheduler* is real code (the
//! policy under test), and the *VHost* layer — execution, operation
//! overheads, power — is simulated here.
//!
//! Per-round state is recycled, not rebuilt: the runner owns its policy
//! for the whole simulation, so a [`ScoreScheduler`]'s evaluator
//! allocations carry from one consolidation tick to the next, and the
//! power-adjustment candidate sets reuse one scratch vector across
//! rounds.
//!
//! [`ScoreScheduler`]: eards_core::ScoreScheduler

use std::collections::{BTreeMap, HashMap};

use eards_metrics::{
    delay_pct, satisfaction, FaultStats, JobOutcome, RunReport, TimeSeries, TimeWeighted,
};
use eards_model::{
    Action, CalibratedPowerModel, Cluster, HostId, HostSpec, Job, Policy, PowerModel, PowerState,
    ScheduleContext, ScheduleReason, ShardMap, VmId, VmState,
};
use eards_obs::{FaultKind, HistId, Obs, ObsEvent, PowerFlipKind, RecoveryKind};
use eards_sim::{
    read_header, write_header, EventHandle, IntBuildHasher, Persist, PersistError, Reader,
    SimDuration, SimRng, SimTime, Simulator, Writer,
};
use eards_workload::Trace;

use crate::audit::{AuditEvent, AuditKind};
use crate::config::RunConfig;
use crate::faults::FaultEngine;
use crate::invariants::InvariantAuditor;

/// Events of the datacenter simulation.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A job from the trace arrives (index into the job list).
    JobArrival(usize),
    /// A VM creation finishes. The `u64` is the operation sequence number
    /// (see [`eards_model::InFlightOp::seq`]) proving the event belongs to
    /// the *live* operation — a completion timestamp cannot do that,
    /// because an abort or a re-started operation can land on the same
    /// tick.
    CreationDone(VmId, u64),
    /// A live migration finishes (`seq` as above).
    MigrationDone(VmId, u64),
    /// A checkpoint write finishes (`seq` as above).
    CheckpointDone(VmId, u64),
    /// A VM's job is projected to complete now.
    JobCompletion(VmId),
    /// A host finished booting.
    BootDone(HostId),
    /// A host finished shutting down.
    ShutdownDone(HostId),
    /// A host crashes.
    HostFailure(HostId),
    /// A failed host becomes bootable again.
    HostRepaired(HostId),
    /// A doomed VM creation aborts partway through, carrying the sequence
    /// number of the operation it kills. An earlier design used the
    /// operation's end time as the identity token, which collides when an
    /// abort lands on the same tick as a later operation's completion for
    /// the same VM (see `stale_abort_does_not_kill_reissued_creation` in
    /// the seq-guard tests).
    CreationAborted(VmId, u64),
    /// A doomed live migration aborts partway through (`seq` as above).
    MigrationAborted(VmId, u64),
    /// A transient slowdown episode starts on a host.
    SlowdownStart(HostId),
    /// The host's slowdown episode ends.
    SlowdownEnd(HostId),
    /// A correlated outage strikes one rack (index into the rack grid).
    RackOutage(usize),
    /// A failed VM's retry backoff expires; reschedule it.
    RetryRelease(VmId),
    /// Periodic SLA-projection check.
    SlaCheck,
    /// Periodic consolidation round (migration re-evaluation).
    ConsolidationTick,
    /// Adaptive λ controller adjustment.
    LambdaAdjust,
    /// Periodic checkpoint trigger.
    CheckpointTick,
}

/// Canonical state: the pending-event payloads of a mid-flight run. Every
/// variant gets a stable tag byte; adding a variant appends a tag (and
/// bumps [`eards_sim::SNAPSHOT_VERSION`] if an existing tag moves).
impl Persist for Event {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match *self {
            Event::JobArrival(idx) => {
                w.put_u8(0);
                w.put_usize(idx);
            }
            Event::CreationDone(vm, seq) => {
                w.put_u8(1);
                vm.persist(w);
                w.put_u64(seq);
            }
            Event::MigrationDone(vm, seq) => {
                w.put_u8(2);
                vm.persist(w);
                w.put_u64(seq);
            }
            Event::CheckpointDone(vm, seq) => {
                w.put_u8(3);
                vm.persist(w);
                w.put_u64(seq);
            }
            Event::JobCompletion(vm) => {
                w.put_u8(4);
                vm.persist(w);
            }
            Event::BootDone(h) => {
                w.put_u8(5);
                h.persist(w);
            }
            Event::ShutdownDone(h) => {
                w.put_u8(6);
                h.persist(w);
            }
            Event::HostFailure(h) => {
                w.put_u8(7);
                h.persist(w);
            }
            Event::HostRepaired(h) => {
                w.put_u8(8);
                h.persist(w);
            }
            Event::CreationAborted(vm, seq) => {
                w.put_u8(9);
                vm.persist(w);
                w.put_u64(seq);
            }
            Event::MigrationAborted(vm, seq) => {
                w.put_u8(10);
                vm.persist(w);
                w.put_u64(seq);
            }
            Event::SlowdownStart(h) => {
                w.put_u8(11);
                h.persist(w);
            }
            Event::SlowdownEnd(h) => {
                w.put_u8(12);
                h.persist(w);
            }
            Event::RackOutage(r) => {
                w.put_u8(13);
                w.put_usize(r);
            }
            Event::RetryRelease(vm) => {
                w.put_u8(14);
                vm.persist(w);
            }
            Event::SlaCheck => w.put_u8(15),
            Event::ConsolidationTick => w.put_u8(16),
            Event::LambdaAdjust => w.put_u8(17),
            Event::CheckpointTick => w.put_u8(18),
        }
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(match r.get_u8()? {
            0 => Event::JobArrival(r.get_usize()?),
            1 => Event::CreationDone(VmId::restore(r)?, r.get_u64()?),
            2 => Event::MigrationDone(VmId::restore(r)?, r.get_u64()?),
            3 => Event::CheckpointDone(VmId::restore(r)?, r.get_u64()?),
            4 => Event::JobCompletion(VmId::restore(r)?),
            5 => Event::BootDone(HostId::restore(r)?),
            6 => Event::ShutdownDone(HostId::restore(r)?),
            7 => Event::HostFailure(HostId::restore(r)?),
            8 => Event::HostRepaired(HostId::restore(r)?),
            9 => Event::CreationAborted(VmId::restore(r)?, r.get_u64()?),
            10 => Event::MigrationAborted(VmId::restore(r)?, r.get_u64()?),
            11 => Event::SlowdownStart(HostId::restore(r)?),
            12 => Event::SlowdownEnd(HostId::restore(r)?),
            13 => Event::RackOutage(r.get_usize()?),
            14 => Event::RetryRelease(VmId::restore(r)?),
            15 => Event::SlaCheck,
            16 => Event::ConsolidationTick,
            17 => Event::LambdaAdjust,
            18 => Event::CheckpointTick,
            t => return Err(PersistError::Corrupt(format!("bad Event tag {t}"))),
        })
    }
}

/// Snapshot of a run's progress, as reported by [`Runner::progress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Current simulated time (instant of the last processed batch).
    pub now: SimTime,
    /// The drain horizon the run cannot pass.
    pub horizon: SimTime,
    /// Jobs fully completed so far.
    pub jobs_done: usize,
    /// Jobs in the trace.
    pub jobs_total: usize,
}

/// One configured simulation run.
pub struct Runner {
    cluster: Cluster,
    policy: Box<dyn Policy>,
    cfg: RunConfig,
    model: Box<dyn PowerModel>,
    jobs: Vec<Job>,
    label: String,

    sim: Simulator<Event>,
    rng: SimRng,
    // lint:allow(D001): keyed removal/insertion only, never iterated
    completion: HashMap<VmId, EventHandle, IntBuildHasher>,
    // BTreeMap, not HashMap: the invariant auditor iterates both timer
    // maps, and audit order must not depend on hasher state (lint D001).
    failure_timer: BTreeMap<HostId, EventHandle>,
    /// The pending slowdown-start *or* slowdown-end timer of each host.
    slowdown_timer: BTreeMap<HostId, EventHandle>,
    /// Per-host, per-class fault streams (see [`FaultEngine`]): two runs
    /// that keep a host up for the same intervals see the same faults on
    /// it regardless of what else they randomize.
    faults: FaultEngine,
    /// Retry backoff state of VMs whose creation/migration failed.
    /// BTreeMap, not HashMap: persisted wholesale and (in degrade mode)
    /// audited per-entry, so order must not depend on hasher state.
    retry: BTreeMap<VmId, RetryState>,
    /// Backpressure: VMs whose retry ladder passed `cfg.park_after`
    /// attempts, parked (still `Queued`) until the flapping blacklist
    /// clears. BTreeMap so release order is deterministic. Empty unless
    /// `cfg.degrade`.
    parked: BTreeMap<VmId, SimTime>,
    /// VMs ever parked by backpressure (monotone counter).
    vms_parked: u64,
    /// Crashes accumulated per host (feeds the flapping blacklist).
    crash_counts: Vec<u32>,
    /// When each currently-unrecovered VM was displaced or failed
    /// (cleared on successful restart; feeds time-to-recover).
    // lint:allow(D001): keyed lookup/removal only, never iterated
    displaced_at: HashMap<VmId, SimTime>,
    auditor: InvariantAuditor,
    fstats: FaultStats,
    recovery_total_secs: f64,

    power_series: TimeSeries,
    power_tw: TimeWeighted,
    working_tw: TimeWeighted,
    online_tw: TimeWeighted,
    outcomes: Vec<JobOutcome>,
    jobs_done: usize,
    migrations: u64,
    creations: u64,
    host_failures: u64,
    vms_displaced: u64,
    /// Current λ_min (starts at the configured value; moved by the
    /// adaptive controller when enabled).
    lambda_min: f64,
    audit: Vec<AuditEvent>,
    /// Satisfaction of jobs completed since the last adjustment.
    sat_window: eards_metrics::Summary,
    /// Scratch for power-on/off candidate sets, reused across rounds
    /// (the set is rebuilt every `adjust_power` pass; the allocation
    /// is not).
    power_scratch: Vec<HostId>,
    /// Scratch for one host's Running residents during the SLA sweep.
    sla_scratch: Vec<VmId>,
    /// Observability handle (cloned from the config; disabled = no-ops).
    obs: Obs,
    /// Pre-registered histogram of queue length entering each round.
    queue_hist: HistId,
    /// Pre-registered histogram of retry-backoff depths (attempt counts).
    retry_hist: HistId,
    /// True once [`Runner::start`] has armed the t = 0 world (initial
    /// power-on, arrival schedule, periodic timers). Part of the snapshot:
    /// a resumed run must not re-run the setup.
    started: bool,
}

/// Exponential-backoff state of one VM whose creation or migration
/// failed.
#[derive(Clone, Copy)]
struct RetryState {
    /// Consecutive failures so far.
    attempts: u32,
    /// The VM may not be retried before this instant.
    eligible: SimTime,
}

impl Persist for RetryState {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.attempts);
        self.eligible.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(RetryState {
            attempts: r.get_u32()?,
            eligible: SimTime::restore(r)?,
        })
    }
}

/// The shard map the run configuration implies for a cluster of
/// `num_hosts` — `None` unless the realized partition has at least two
/// shards (mirrors the policy-side arming in
/// `eards_core::ScoreScheduler`, so the auditor checks exactly the
/// partition the solver uses).
fn derived_shard_map(cfg: &RunConfig, num_hosts: usize) -> Option<ShardMap> {
    let spec = cfg.shard_spec()?;
    if num_hosts == 0 {
        return None;
    }
    let map = ShardMap::build(num_hosts, spec.rack_size, spec.count);
    (map.num_shards() >= 2).then_some(map)
}

impl Runner {
    /// Builds a run over `hosts` executing `trace` under `policy`, with
    /// the paper's Table-I power model.
    pub fn new(
        hosts: Vec<HostSpec>,
        trace: Trace,
        policy: Box<dyn Policy>,
        cfg: RunConfig,
    ) -> Self {
        Self::with_power_model(
            hosts,
            trace,
            policy,
            cfg,
            Box::new(CalibratedPowerModel::paper_4way()),
        )
    }

    /// As [`Runner::new`] with an explicit power model (ablations).
    pub fn with_power_model(
        hosts: Vec<HostSpec>,
        trace: Trace,
        policy: Box<dyn Policy>,
        cfg: RunConfig,
        model: Box<dyn PowerModel>,
    ) -> Self {
        let label = policy.name();
        let rng = SimRng::seed_from_u64(cfg.seed);
        let faults = FaultEngine::new(cfg.faults.clone(), hosts.len(), cfg.seed);
        let mut auditor = InvariantAuditor::new(cfg.auditor);
        auditor.set_shard_map(derived_shard_map(&cfg, hosts.len()));
        let crash_counts = vec![0; hosts.len()];
        let obs = cfg.obs.clone();
        let queue_hist = obs.histogram("queue_len", &[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]);
        let retry_hist = obs.histogram("retry_backoff_depth", &[1.0, 2.0, 3.0, 4.0, 6.0, 10.0]);
        Runner {
            cluster: Cluster::new(hosts, PowerState::Off),
            policy,
            cfg,
            model,
            jobs: trace.into_jobs(),
            label,
            sim: Simulator::new(),
            rng,
            completion: HashMap::default(),
            failure_timer: BTreeMap::new(),
            slowdown_timer: BTreeMap::new(),
            faults,
            retry: BTreeMap::new(),
            parked: BTreeMap::new(),
            vms_parked: 0,
            crash_counts,
            displaced_at: HashMap::new(),
            auditor,
            fstats: FaultStats::default(),
            recovery_total_secs: 0.0,
            power_series: TimeSeries::new(),
            power_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            working_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            online_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            outcomes: Vec::new(),
            jobs_done: 0,
            migrations: 0,
            creations: 0,
            host_failures: 0,
            vms_displaced: 0,
            lambda_min: 0.0, // set from cfg in run()
            audit: Vec::new(),
            sat_window: eards_metrics::Summary::new(),
            power_scratch: Vec::new(),
            sla_scratch: Vec::new(),
            obs,
            queue_hist,
            retry_hist,
            started: false,
        }
    }

    /// Overrides the report label (defaults to the policy name).
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Records an audit entry (no-op unless `cfg.audit`).
    fn note(&mut self, at: SimTime, kind: AuditKind) {
        if self.cfg.audit {
            self.audit.push(AuditEvent { at, kind });
        }
    }

    /// Executes the simulation and returns the report together with the
    /// audit log (empty unless `cfg.audit` is set).
    pub fn run_audited(mut self) -> (RunReport, Vec<AuditEvent>) {
        while self.step_batch() {}
        self.finish()
    }

    /// Executes the simulation and returns its report.
    pub fn run(self) -> RunReport {
        self.run_audited().0
    }

    /// Current simulated time (the instant of the last processed batch).
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Progress of the run so far — a cheap read a driver can poll
    /// between batches (e.g. a sweep worker heartbeating its
    /// supervisor).
    pub fn progress(&self) -> RunProgress {
        RunProgress {
            now: self.sim.now(),
            horizon: self.hard_cap(),
            jobs_done: self.jobs_done,
            jobs_total: self.jobs.len(),
        }
    }

    /// The policy driving this run (read-only) — lets callers inspect
    /// policy-side telemetry such as
    /// [`eards_model::Policy::degrade_stats`] after stepping a run.
    pub fn policy(&self) -> &dyn Policy {
        self.policy.as_ref()
    }

    /// VMs ever parked by runner backpressure (0 unless degrade mode).
    pub fn vms_parked(&self) -> u64 {
        self.vms_parked
    }

    /// The simulation horizon: the run drains for at most
    /// `cfg.drain_limit` past the last arrival. Derived state — recomputed
    /// from the trace on restore, never serialized.
    fn hard_cap(&self) -> SimTime {
        let last_arrival = self.jobs.last().map(|j| j.submit).unwrap_or(SimTime::ZERO);
        last_arrival + self.cfg.drain_limit
    }

    /// Arms the t = 0 world: initial power-on, the arrival schedule and
    /// the periodic timers. Idempotent — a restored runner skips it.
    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;

        // Bring up the initial node set instantaneously at t = 0 — the
        // datacenter does not cold-boot in front of the workload. The
        // policy picks which nodes (§III-C: by reliability, boot time, …).
        let initial = self.cfg.initial_on.min(self.cluster.num_hosts());
        let all: Vec<HostId> = (0..self.cluster.num_hosts())
            .map(|i| HostId(i as u32))
            .collect();
        let ranked = self.policy.rank_power_on(&self.cluster, &all);
        for &h in ranked.iter().take(initial) {
            self.cluster.begin_power_on(h, SimTime::ZERO);
            self.cluster.complete_power_on(h);
            self.arm_failure(h);
            self.arm_slowdown(h);
        }
        // Rack-outage timers run for the whole simulation: an outage can
        // strike whatever happens to be powered when it fires.
        for r in 0..self.faults.num_racks() {
            if let Some(dt) = self.faults.time_to_rack_outage(r) {
                self.sim.schedule_after(dt, Event::RackOutage(r));
            }
        }

        for (idx, job) in self.jobs.iter().enumerate() {
            self.sim.schedule_at(job.submit, Event::JobArrival(idx));
        }
        self.sim
            .schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
        if let Some(p) = self.cfg.consolidation_period {
            self.sim.schedule_after(p, Event::ConsolidationTick);
        }
        self.lambda_min = self.cfg.lambda_min;
        if let Some(al) = &self.cfg.adaptive_lambda {
            self.lambda_min = self
                .lambda_min
                .clamp(al.lambda_min_bounds.0, al.lambda_min_bounds.1);
            self.sim
                .schedule_after(al.adjust_period, Event::LambdaAdjust);
        }
        if let Some(p) = self.cfg.checkpoint_period {
            self.sim.schedule_after(p, Event::CheckpointTick);
        }
        self.record_metrics();
    }

    /// Processes one event *batch* — every event of the next occupied
    /// instant, then the scheduling round, power adjustment, metrics and
    /// audit that close it. Starts the run on first call. Returns `false`
    /// once the run is over (all jobs done, or the drain horizon passed);
    /// call [`Runner::finish`] then.
    ///
    /// Batch boundaries are the only coherent snapshot points: between
    /// them no event is half-applied and the metrics are up to date.
    pub fn step_batch(&mut self) -> bool {
        // A run that already completed (e.g. restored from a snapshot
        // taken at the final batch) must not drain leftover periodic
        // timers past its end.
        if self.started && self.finished() {
            return false;
        }
        self.start();
        let hard_cap = self.hard_cap();
        let Some((now, _, event)) = self.sim.step_before(hard_cap) else {
            return false;
        };
        // Keep the earliest scheduling reason of the batch.
        let mut dirty = self.handle(now, event);
        // Batch all events of this instant before scheduling/metrics.
        while self.sim.peek_time() == Some(now) {
            let (_, _, event) = self
                .sim
                .step_before(hard_cap)
                // lint:allow(P001): peek_time just proved an event exists here
                .expect("peeked event at the current instant");
            if let Some(reason) = self.handle(now, event) {
                dirty = dirty.or(Some(reason));
            }
        }
        if let Some(reason) = dirty {
            self.schedule_round(now, reason);
            self.adjust_power(now);
        }
        self.record_metrics();
        self.audit_invariants(now);
        !self.finished()
    }

    /// Closes the books after the last [`Runner::step_batch`] and returns
    /// the report plus the audit log.
    pub fn finish(mut self) -> (RunReport, Vec<AuditEvent>) {
        let end = self.sim.now();
        let audit = std::mem::take(&mut self.audit);
        (self.finalize(end), audit)
    }

    // ----- snapshot / restore ----------------------------------------------
    //
    // Canonical vs. rebuilt state. Serialized: the engine (clock, event
    // queue with live handles, RNG), the cluster, the fault engine's RNG
    // stream positions, the retry/backoff and blacklist bookkeeping, every
    // accumulated metric, and a policy-private block. Rebuilt on restore
    // from the constructor arguments: the power model, the job list (from
    // the trace), the obs handle and its histogram registrations, the
    // report label, and the `power_scratch` and `sla_scratch` buffers. The
    // drain horizon (`hard_cap`) is derived from the trace and recomputed.

    /// Serializes the full mid-flight run state. Call at a batch boundary
    /// (between [`Runner::step_batch`] calls); the driver loop never
    /// exposes a half-applied batch.
    ///
    /// Fails only if some sequence outgrew the codec's `u32` length
    /// prefix ([`PersistError::SequenceTooLong`]) — the writer refuses to
    /// hand out a malformed snapshot rather than panicking mid-run.
    pub fn snapshot(&self) -> Result<Vec<u8>, PersistError> {
        let mut w = Writer::new();
        write_header(&mut w);
        self.persist_body(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a run from `bytes`, with the paper's Table-I power model.
    /// `hosts`, `trace`, `policy` and `cfg` must be the ones the
    /// snapshotted run was built with — the snapshot carries fingerprint
    /// fields (host count, job count, seed) and rejects mismatches.
    pub fn restore(
        hosts: Vec<HostSpec>,
        trace: Trace,
        policy: Box<dyn Policy>,
        cfg: RunConfig,
        bytes: &[u8],
    ) -> Result<Self, PersistError> {
        Self::restore_with_power_model(
            hosts,
            trace,
            policy,
            cfg,
            Box::new(CalibratedPowerModel::paper_4way()),
            bytes,
        )
    }

    /// As [`Runner::restore`] with an explicit power model.
    pub fn restore_with_power_model(
        hosts: Vec<HostSpec>,
        trace: Trace,
        policy: Box<dyn Policy>,
        cfg: RunConfig,
        model: Box<dyn PowerModel>,
        bytes: &[u8],
    ) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        read_header(&mut r)?;
        let mut runner = Self::with_power_model(hosts, trace, policy, cfg, model);
        runner.restore_body(&mut r)?;
        r.finish()?;
        Ok(runner)
    }

    fn persist_body(&self, w: &mut Writer) {
        w.put_bool(self.started);
        // Fingerprint fields: restore validates these against the world it
        // was handed, catching a snapshot replayed onto the wrong run.
        w.put_u32(self.cluster.num_hosts() as u32);
        w.put_u64(self.jobs.len() as u64);
        w.put_u64(self.cfg.seed);

        self.sim.persist(w);
        self.rng.persist(w);
        // HashMaps are serialized as key-sorted pair lists so the byte
        // stream never depends on hasher state.
        let mut completion: Vec<(VmId, EventHandle)> =
            // lint:allow(D001): collected then key-sorted before serializing
            self.completion.iter().map(|(&k, &v)| (k, v)).collect();
        completion.sort_by_key(|&(vm, _)| vm);
        completion.persist(w);
        let failure: Vec<(HostId, EventHandle)> =
            self.failure_timer.iter().map(|(&k, &v)| (k, v)).collect();
        failure.persist(w);
        let slowdown: Vec<(HostId, EventHandle)> =
            self.slowdown_timer.iter().map(|(&k, &v)| (k, v)).collect();
        slowdown.persist(w);
        self.faults.persist(w);
        // BTreeMap: already key-sorted, serialize in iteration order.
        let retry: Vec<(VmId, RetryState)> = self.retry.iter().map(|(&k, &v)| (k, v)).collect();
        retry.persist(w);
        self.crash_counts.persist(w);
        let mut displaced: Vec<(VmId, SimTime)> =
            // lint:allow(D001): collected then key-sorted before serializing
            self.displaced_at.iter().map(|(&k, &v)| (k, v)).collect();
        displaced.sort_by_key(|&(vm, _)| vm);
        displaced.persist(w);
        self.auditor.persist(w);
        self.fstats.persist(w);
        w.put_f64(self.recovery_total_secs);

        self.power_series.persist(w);
        self.power_tw.persist(w);
        self.working_tw.persist(w);
        self.online_tw.persist(w);
        self.outcomes.persist(w);
        w.put_usize(self.jobs_done);
        w.put_u64(self.migrations);
        w.put_u64(self.creations);
        w.put_u64(self.host_failures);
        w.put_u64(self.vms_displaced);
        w.put_f64(self.lambda_min);
        self.audit.persist(w);
        self.sat_window.persist(w);
        let parked: Vec<(VmId, SimTime)> = self.parked.iter().map(|(&k, &v)| (k, v)).collect();
        parked.persist(w);
        w.put_u64(self.vms_parked);
        self.cluster.persist(w);
        // Policy-private state rides in a length-prefixed block so the
        // outer layout stays policy-agnostic.
        w.put_block(|w| self.policy.persist_state(w));
    }

    fn restore_body(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.started = r.get_bool()?;
        let hosts = r.get_u32()? as usize;
        if hosts != self.cluster.num_hosts() {
            return Err(PersistError::Corrupt(format!(
                "snapshot taken over {hosts} hosts, run built with {}",
                self.cluster.num_hosts()
            )));
        }
        let jobs = r.get_u64()? as usize;
        if jobs != self.jobs.len() {
            return Err(PersistError::Corrupt(format!(
                "snapshot taken over {jobs} jobs, trace carries {}",
                self.jobs.len()
            )));
        }
        let seed = r.get_u64()?;
        if seed != self.cfg.seed {
            return Err(PersistError::Corrupt(format!(
                "snapshot seed {seed:#x} does not match configured {:#x}",
                self.cfg.seed
            )));
        }

        self.sim = Simulator::restore(r)?;
        self.rng = SimRng::restore(r)?;
        self.completion = Vec::<(VmId, EventHandle)>::restore(r)?
            .into_iter()
            .collect();
        self.failure_timer = Vec::<(HostId, EventHandle)>::restore(r)?
            .into_iter()
            .collect();
        self.slowdown_timer = Vec::<(HostId, EventHandle)>::restore(r)?
            .into_iter()
            .collect();
        self.faults = FaultEngine::restore(r)?;
        self.retry = Vec::<(VmId, RetryState)>::restore(r)?.into_iter().collect();
        self.crash_counts = Vec::restore(r)?;
        if self.crash_counts.len() != self.cluster.num_hosts() {
            return Err(PersistError::Corrupt(format!(
                "crash-count table covers {} hosts, expected {}",
                self.crash_counts.len(),
                self.cluster.num_hosts()
            )));
        }
        self.displaced_at = Vec::<(VmId, SimTime)>::restore(r)?.into_iter().collect();
        self.auditor = InvariantAuditor::restore(r)?;
        self.fstats = FaultStats::restore(r)?;
        self.recovery_total_secs = r.get_f64()?;

        self.power_series = TimeSeries::restore(r)?;
        self.power_tw = TimeWeighted::restore(r)?;
        self.working_tw = TimeWeighted::restore(r)?;
        self.online_tw = TimeWeighted::restore(r)?;
        self.outcomes = Vec::restore(r)?;
        self.jobs_done = r.get_usize()?;
        self.migrations = r.get_u64()?;
        self.creations = r.get_u64()?;
        self.host_failures = r.get_u64()?;
        self.vms_displaced = r.get_u64()?;
        self.lambda_min = r.get_f64()?;
        self.audit = Vec::restore(r)?;
        self.sat_window = eards_metrics::Summary::restore(r)?;
        self.parked = Vec::<(VmId, SimTime)>::restore(r)?.into_iter().collect();
        self.vms_parked = r.get_u64()?;
        self.cluster = Cluster::restore(r)?;
        // The auditor's shard map is derived state, not snapshot payload:
        // re-arm it from the configuration so a restored run keeps the
        // cross-shard conservation check.
        self.auditor
            .set_shard_map(derived_shard_map(&self.cfg, self.cluster.num_hosts()));
        let mut block = r.get_block()?;
        self.policy.restore_state(&mut block)?;
        block.finish()?;
        Ok(())
    }

    // ----- event handling --------------------------------------------------

    /// Handles one event; returns the scheduling-round reason it raises.
    fn handle(&mut self, now: SimTime, event: Event) -> Option<ScheduleReason> {
        match event {
            Event::JobArrival(idx) => {
                let job = self.jobs[idx].clone();
                let vm = self.cluster.submit_job(job);
                self.note(now, AuditKind::JobArrived { vm });
                Some(ScheduleReason::VmArrived)
            }
            Event::CreationDone(vm, seq) => {
                let VmState::Creating { host } = self.cluster.vm(vm).state else {
                    return None; // host failed mid-creation; VM re-queued
                };
                // Guard against a *stale* event: if the original creation
                // was aborted by a host failure and the VM is now being
                // re-created elsewhere, only the event carrying the live
                // operation's sequence number may complete it.
                let live =
                    self.cluster.host(host).ops.iter().any(|o| {
                        o.vm == vm && o.kind == eards_model::OpKind::Create && o.seq == seq
                    });
                if !live {
                    return None;
                }
                self.cluster.finish_creation(vm, now);
                self.note(now, AuditKind::VmStarted { vm, host });
                self.obs.record(
                    now,
                    ObsEvent::Creation {
                        vm: vm.raw(),
                        host: host.raw(),
                    },
                );
                self.retry.remove(&vm);
                self.record_recovery(vm, now);
                self.touch(host, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::VmFinished)
            }
            Event::MigrationDone(vm, seq) => {
                let VmState::Migrating { from, to } = self.cluster.vm(vm).state else {
                    return None; // an endpoint failed mid-migration
                };
                // Stale-event guard (see CreationDone): only the event
                // carrying the live migration's sequence number may
                // complete it.
                let live = self.cluster.host(to).ops.iter().any(|o| {
                    o.vm == vm
                        && matches!(o.kind, eards_model::OpKind::MigrateIn { .. })
                        && o.seq == seq
                });
                if !live {
                    return None;
                }
                // Progress accrued on the source up to this instant.
                self.cluster.touch_host(from, now);
                self.cluster.finish_migration(vm, now);
                self.note(now, AuditKind::MigrationFinished { vm, to });
                self.obs.record(
                    now,
                    ObsEvent::Migration {
                        vm: vm.raw(),
                        from: from.raw(),
                        to: to.raw(),
                    },
                );
                self.retry.remove(&vm);
                self.touch(from, now);
                self.touch(to, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CheckpointDone(vm, seq) => {
                let VmState::Checkpointing { host } = self.cluster.vm(vm).state else {
                    return None;
                };
                let live = self.cluster.host(host).ops.iter().any(|o| {
                    o.vm == vm && o.kind == eards_model::OpKind::Checkpoint && o.seq == seq
                });
                if !live {
                    return None;
                }
                self.cluster.finish_checkpoint(vm, now);
                self.note(now, AuditKind::CheckpointTaken { vm });
                self.touch(host, now);
                self.complete_if_done(vm, now);
                None
            }
            Event::JobCompletion(vm) => {
                self.completion.remove(&vm);
                let VmState::Running { host } = self.cluster.vm(vm).state else {
                    // Migrating/checkpointing: their completion handlers
                    // re-check; a queued VM (failure) restarts later.
                    return None;
                };
                self.cluster.touch_host(host, now);
                if self.complete_if_done(vm, now) {
                    Some(ScheduleReason::VmFinished)
                } else {
                    // Allocation changed since this event was scheduled;
                    // refresh the projection.
                    self.refresh_completion(vm, now);
                    None
                }
            }
            Event::BootDone(h) => {
                if matches!(self.cluster.host(h).power, PowerState::Booting { .. }) {
                    if self.faults.boot_fails(h.raw() as usize) {
                        self.cluster.fail_boot(h);
                        self.note(now, AuditKind::BootFailed { host: h });
                        self.obs.record(
                            now,
                            ObsEvent::Fault {
                                kind: FaultKind::BootFailure,
                                host: h.raw(),
                            },
                        );
                        self.fstats.boot_failures += 1;
                        let mttr = self.faults.plan().mttr;
                        self.sim.schedule_after(mttr, Event::HostRepaired(h));
                    } else {
                        self.cluster.complete_power_on(h);
                        self.note(now, AuditKind::HostOn { host: h });
                        self.obs.record(
                            now,
                            ObsEvent::PowerFlip {
                                host: h.raw(),
                                state: PowerFlipKind::On,
                            },
                        );
                        self.arm_failure(h);
                        self.arm_slowdown(h);
                    }
                    Some(ScheduleReason::HostStateChanged)
                } else {
                    None
                }
            }
            Event::ShutdownDone(h) => {
                if matches!(self.cluster.host(h).power, PowerState::ShuttingDown { .. }) {
                    self.cluster.complete_power_off(h);
                    self.obs.record(
                        now,
                        ObsEvent::PowerFlip {
                            host: h.raw(),
                            state: PowerFlipKind::Off,
                        },
                    );
                }
                None
            }
            Event::HostFailure(h) => {
                self.failure_timer.remove(&h);
                if self.cluster.host(h).power != PowerState::On {
                    return None;
                }
                let mttr = self.faults.plan().mttr;
                self.crash_host(h, now, mttr);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::HostRepaired(h) => {
                self.cluster.repair_host(h);
                self.note(now, AuditKind::HostRepaired { host: h });
                self.obs.record(
                    now,
                    ObsEvent::Recovery {
                        kind: RecoveryKind::HostRepaired,
                        id: h.raw() as u64,
                    },
                );
                // In degrade mode a repair wipes the host's flapping
                // record: the blacklist lifts and the crash count resets
                // (so renewed flapping can re-blacklist it), which in turn
                // may let parked VMs back in.
                if self.cfg.degrade && self.cluster.is_blacklisted(h) {
                    self.cluster.blacklist(h, 0.0);
                    self.crash_counts[h.raw() as usize] = 0;
                    self.note(now, AuditKind::BlacklistCleared { host: h });
                }
                let _ = self.try_release_parked(now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CreationAborted(vm, seq) => {
                let VmState::Creating { host } = self.cluster.vm(vm).state else {
                    return None; // the host failed first; already re-queued
                };
                // Stale-event guard: only the abort belonging to the live
                // operation (matching sequence number) may kill it.
                let live =
                    self.cluster.host(host).ops.iter().any(|o| {
                        o.vm == vm && o.kind == eards_model::OpKind::Create && o.seq == seq
                    });
                if !live {
                    return None;
                }
                self.cluster.abort_creation(vm, now);
                self.note(now, AuditKind::CreationFailed { vm, host });
                self.obs.record(
                    now,
                    ObsEvent::Fault {
                        kind: FaultKind::CreationAbort,
                        host: host.raw(),
                    },
                );
                self.fstats.creation_failures += 1;
                // The recovery clock starts at the first failure and runs
                // until the VM finally comes up somewhere.
                self.displaced_at.entry(vm).or_insert(now);
                self.apply_backoff(vm, now);
                self.touch(host, now);
                Some(ScheduleReason::VmArrived)
            }
            Event::MigrationAborted(vm, seq) => {
                let VmState::Migrating { from, to } = self.cluster.vm(vm).state else {
                    return None; // an endpoint failed first
                };
                let live = self.cluster.host(to).ops.iter().any(|o| {
                    o.vm == vm
                        && matches!(o.kind, eards_model::OpKind::MigrateIn { .. })
                        && o.seq == seq
                });
                if !live {
                    return None;
                }
                self.cluster.abort_migration(vm, now);
                self.note(now, AuditKind::MigrationAborted { vm, from, to });
                self.obs.record(
                    now,
                    ObsEvent::Fault {
                        kind: FaultKind::MigrationAbort,
                        host: to.raw(),
                    },
                );
                self.fstats.migration_aborts += 1;
                self.apply_backoff(vm, now);
                self.touch(from, now);
                self.touch(to, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::SlowdownStart(h) => {
                self.slowdown_timer.remove(&h);
                if self.cluster.host(h).power != PowerState::On {
                    return None; // episode cancelled with the host
                }
                // Only scheduled with a slowdown plan.
                let sp = self.faults.plan().slowdown.as_ref()?;
                let (factor, duration) = (sp.factor, sp.duration);
                self.cluster.set_cpu_factor(h, factor);
                self.note(now, AuditKind::SlowdownStarted { host: h, factor });
                self.obs.record(
                    now,
                    ObsEvent::Fault {
                        kind: FaultKind::SlowdownStart,
                        host: h.raw(),
                    },
                );
                self.fstats.slowdown_episodes += 1;
                let handle = self.sim.schedule_after(duration, Event::SlowdownEnd(h));
                self.slowdown_timer.insert(h, handle);
                self.touch(h, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::SlowdownEnd(h) => {
                self.slowdown_timer.remove(&h);
                if self.cluster.host(h).power != PowerState::On {
                    return None;
                }
                self.cluster.set_cpu_factor(h, 1.0);
                self.note(now, AuditKind::SlowdownEnded { host: h });
                self.obs.record(
                    now,
                    ObsEvent::Fault {
                        kind: FaultKind::SlowdownEnd,
                        host: h.raw(),
                    },
                );
                self.touch(h, now);
                self.arm_slowdown(h);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::RackOutage(r) => {
                // Only scheduled with a rack plan.
                let rp = self.faults.plan().rack.as_ref()?;
                let (size, outage) = (rp.rack_size, rp.outage);
                let lo = r * size;
                let hi = (lo + size).min(self.cluster.num_hosts());
                let failed = (lo..hi)
                    .filter(|&i| self.cluster.host(HostId(i as u32)).power.is_online())
                    .count();
                self.fstats.rack_outages += 1;
                self.note(now, AuditKind::RackOutage { rack: r, failed });
                // For rack outages the `host` field carries the *rack*
                // index (the per-host crashes below record themselves).
                self.obs.record(
                    now,
                    ObsEvent::Fault {
                        kind: FaultKind::RackOutage,
                        host: r as u32,
                    },
                );
                for i in lo..hi {
                    let h = HostId(i as u32);
                    match self.cluster.host(h).power {
                        PowerState::On => self.crash_host(h, now, outage),
                        PowerState::Booting { .. } => {
                            // The boot is struck down with the rack.
                            self.cancel_fault_timers(h);
                            self.cluster.fail_boot(h);
                            self.note(now, AuditKind::BootFailed { host: h });
                            self.fstats.boot_failures += 1;
                            self.sim.schedule_after(outage, Event::HostRepaired(h));
                        }
                        _ => {} // unpowered hosts are unaffected
                    }
                }
                // Re-arm: the rack can fail again later.
                if let Some(dt) = self.faults.time_to_rack_outage(r) {
                    self.sim.schedule_after(dt, Event::RackOutage(r));
                }
                (failed > 0).then_some(ScheduleReason::HostStateChanged)
            }
            Event::RetryRelease(vm) => {
                // The backoff expired; if the VM is still waiting, give the
                // policy a chance to place it again.
                (self.cluster.vm(vm).state == VmState::Queued).then_some(ScheduleReason::VmArrived)
            }
            Event::SlaCheck => {
                // Walk the hosts' resident lists, not every VM ever
                // admitted (DESIGN.md §18). A host is touched once, and
                // only if it has a Running resident: touching any other
                // host would split the progress accrual of a VM migrating
                // away or checkpointing there, and move its f64 bits.
                let mut violated = false;
                let mut running = std::mem::take(&mut self.sla_scratch);
                for i in 0..self.cluster.num_hosts() {
                    let host = HostId(i as u32);
                    running.clear();
                    running.extend(self.cluster.host(host).resident.iter().copied().filter(
                        |&vm| matches!(self.cluster.vm(vm).state, VmState::Running { .. }),
                    ));
                    if running.is_empty() {
                        continue;
                    }
                    self.cluster.touch_host(host, now);
                    for &vm in &running {
                        if self.cluster.vm(vm).sla_fulfillment(now) < 1.0 {
                            violated = true;
                            if self.cfg.dynamic_sla {
                                self.escalate_request(vm, host, now);
                            }
                        }
                    }
                }
                self.sla_scratch = running;
                if !self.finished() {
                    self.sim
                        .schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
                }
                // Periodic release guard: without this, a run whose
                // blacklist cleared between repairs could strand parked
                // VMs until the next repair/consolidation event.
                let released = self.try_release_parked(now);
                violated
                    .then_some(ScheduleReason::SlaViolation)
                    .or(released)
            }
            Event::ConsolidationTick => {
                if let (Some(p), false) = (self.cfg.consolidation_period, self.finished()) {
                    self.sim.schedule_after(p, Event::ConsolidationTick);
                }
                let released = self.try_release_parked(now);
                self.policy
                    .uses_migration()
                    .then_some(ScheduleReason::Periodic)
                    .or(released)
            }
            Event::LambdaAdjust => {
                // A run restored without adaptive λ drops the pending
                // adjustment instead of rescheduling it.
                let al = self.cfg.adaptive_lambda.clone()?;
                if self.sat_window.count() >= al.min_window_jobs {
                    let recent = self.sat_window.mean();
                    if recent < al.target_satisfaction {
                        // SLAs slipping: keep more nodes on (less eager off).
                        self.lambda_min -= al.step;
                    } else {
                        // Comfortably above target: turn off more eagerly.
                        self.lambda_min += al.step;
                    }
                    self.lambda_min = self
                        .lambda_min
                        .clamp(al.lambda_min_bounds.0, al.lambda_min_bounds.1)
                        .min(self.cfg.lambda_max - 0.05);
                    self.note(
                        now,
                        AuditKind::LambdaAdjusted {
                            lambda_min: self.lambda_min,
                        },
                    );
                    self.sat_window = eards_metrics::Summary::new();
                }
                if !self.finished() {
                    self.sim
                        .schedule_after(al.adjust_period, Event::LambdaAdjust);
                }
                None
            }
            Event::CheckpointTick => {
                // Id order: checkpoint op seqs and event seqs are handed
                // out in this loop.
                let mut eligible: Vec<(VmId, HostId)> = self
                    .cluster
                    .hosts()
                    .iter()
                    .flat_map(|h| h.resident.iter().map(move |&vm| (vm, h.spec.id)))
                    .filter(|&(vm, _)| matches!(self.cluster.vm(vm).state, VmState::Running { .. }))
                    .collect();
                eligible.sort_unstable_by_key(|&(vm, _)| vm);
                for (vm, host) in eligible {
                    let ends = now + self.cfg.checkpoint_duration;
                    let seq = self.cluster.start_checkpoint(vm, now, ends);
                    self.sim.schedule_at(ends, Event::CheckpointDone(vm, seq));
                    self.touch(host, now);
                }
                if let (Some(p), false) = (self.cfg.checkpoint_period, self.finished()) {
                    self.sim.schedule_after(p, Event::CheckpointTick);
                }
                None
            }
        }
    }

    // ----- scheduling ------------------------------------------------------

    fn schedule_round(&mut self, now: SimTime, reason: ScheduleReason) {
        let _span = self.obs.span("schedule_round", now);
        self.obs
            .observe(self.queue_hist, self.cluster.queue().len() as f64);
        let ctx = ScheduleContext { now, reason };
        let actions = self.policy.schedule(&self.cluster, &ctx);
        for action in actions {
            match action {
                Action::Create { vm, host } => {
                    if self.cluster.vm(vm).state != VmState::Queued
                        || !self.cluster.can_place_overcommitted(host, vm)
                    {
                        continue; // stale decision; the VM stays queued
                    }
                    // Retry gate: a VM whose last attempt failed waits out
                    // its backoff in the queue.
                    if let Some(r) = self.retry.get(&vm) {
                        if r.eligible > now {
                            continue;
                        }
                    }
                    // Parked VMs sit out admission entirely until the
                    // flapping blacklist clears (backpressure).
                    if self.parked.contains_key(&vm) {
                        continue;
                    }
                    let mean = self.cluster.host(host).spec.class.creation_cost();
                    let dur = self.op_duration(mean, self.cfg.creation_jitter_std);
                    let ends = now + dur;
                    // Doomed operations are drawn at start: they schedule
                    // their abort instead of their completion.
                    let doomed = self.faults.creation_fails(host.raw() as usize);
                    let seq = self.cluster.start_creation(vm, host, now, ends);
                    self.note(now, AuditKind::CreationStarted { vm, host });
                    match doomed {
                        Some(frac) => {
                            let abort_at = now + dur.mul_f64(frac);
                            self.sim
                                .schedule_at(abort_at, Event::CreationAborted(vm, seq));
                        }
                        None => {
                            self.sim.schedule_at(ends, Event::CreationDone(vm, seq));
                        }
                    }
                    self.touch(host, now);
                    self.creations += 1;
                }
                Action::Migrate { vm, to } => {
                    let VmState::Running { host: from } = self.cluster.vm(vm).state else {
                        continue;
                    };
                    if !self.policy.uses_migration()
                        || from == to
                        || !self.cluster.can_place_overcommitted(to, vm)
                    {
                        continue;
                    }
                    if let Some(r) = self.retry.get(&vm) {
                        if r.eligible > now {
                            continue; // backing off after an aborted attempt
                        }
                    }
                    // Migration cost is the destination's (§V: C_m by class).
                    let mean = self.cluster.host(to).spec.class.migration_cost();
                    let dur = self.op_duration(mean, self.cfg.migration_jitter_std);
                    let ends = now + dur;
                    let doomed = self.faults.migration_aborts(to.raw() as usize);
                    let seq = self.cluster.start_migration(vm, to, now, ends);
                    self.note(now, AuditKind::MigrationStarted { vm, from, to });
                    match doomed {
                        Some(frac) => {
                            let abort_at = now + dur.mul_f64(frac);
                            self.sim
                                .schedule_at(abort_at, Event::MigrationAborted(vm, seq));
                        }
                        None => {
                            self.sim.schedule_at(ends, Event::MigrationDone(vm, seq));
                        }
                    }
                    self.touch(from, now);
                    self.touch(to, now);
                    self.migrations += 1;
                }
            }
        }
    }

    fn op_duration(&mut self, mean: SimDuration, std_dev: f64) -> SimDuration {
        let secs = self.rng.normal_at_least(mean.as_secs_f64(), std_dev, 1.0);
        SimDuration::from_secs_f64(secs)
    }

    /// §III-A.5: raise a violated VM's requested CPU so rescheduling can
    /// find it more room. Escalation only helps a VM that is actually
    /// being *starved* (allocation below demand, e.g. by dom0 operation
    /// overheads) — a VM already running at full demand cannot be sped up,
    /// and inflating its reservation would only block queued VMs. The
    /// escalation is also capped at 1.5× the demand: reserving a whole
    /// node for one late job starves the rest of the queue. `host` is the
    /// host the VM runs on.
    fn escalate_request(&mut self, vm: VmId, host: HostId, now: SimTime) {
        let (needed, cap, starved) = {
            let v = self.cluster.vm(vm);
            let cap = self.cluster.host(host).spec.cpu;
            let left = v
                .job
                .deadline_at()
                .saturating_since(now)
                .as_secs_f64()
                .max(1.0);
            (
                (v.remaining_work() / left).ceil(),
                cap,
                v.alloc + 1e-9 < v.job.cpu.as_f64(),
            )
        };
        if !starved {
            return;
        }
        let job_cpu = self.cluster.vm(vm).job.cpu.points();
        let ceiling = (job_cpu * 3 / 2).min(cap.points());
        let new_cpu = (needed as u32).clamp(job_cpu, ceiling);
        self.cluster
            .escalate_requested_cpu(vm, eards_model::Cpu(new_cpu));
    }

    // ----- power management (§III-C) ----------------------------------------

    fn adjust_power(&mut self, now: SimTime) {
        let _span = self.obs.span("adjust_power", now);
        let mut candidates = std::mem::take(&mut self.power_scratch);
        // Turn on: working/online above λ_max, or unplaceable queue.
        loop {
            let online = self.cluster.online_count();
            let working = self.cluster.working_count();
            let ratio = if online == 0 {
                f64::INFINITY
            } else {
                working as f64 / online as f64
            };
            let queue_stuck = self.queue_stuck();
            if ratio <= self.cfg.lambda_max && !queue_stuck {
                break;
            }
            candidates.clear();
            candidates.extend(
                self.cluster
                    .hosts()
                    .iter()
                    .filter(|h| h.power == PowerState::Off)
                    .map(|h| h.spec.id),
            );
            if candidates.is_empty() {
                break;
            }
            let Some(&pick) = self
                .policy
                .rank_power_on(&self.cluster, &candidates)
                .first()
            else {
                break;
            };
            let ready_at = self.cluster.begin_power_on(pick, now);
            self.note(now, AuditKind::HostPoweringOn { host: pick });
            self.obs.record(
                now,
                ObsEvent::PowerFlip {
                    host: pick.raw(),
                    state: PowerFlipKind::Booting,
                },
            );
            self.sim.schedule_at(ready_at, Event::BootDone(pick));
            // A booting host counts as online, so the ratio falls and the
            // loop converges; the stuck-queue rule boots at most one.
            if queue_stuck && ratio <= self.cfg.lambda_max {
                break;
            }
        }

        // Turn off: working/online below λ_min (never below minexec).
        loop {
            let online = self.cluster.online_count();
            if online <= self.cfg.min_exec {
                break;
            }
            let working = self.cluster.working_count();
            let ratio = if online == 0 {
                break;
            } else {
                working as f64 / online as f64
            };
            if ratio >= self.lambda_min {
                break;
            }
            candidates.clear();
            candidates.extend(
                self.cluster
                    .hosts()
                    .iter()
                    .filter(|h| h.power == PowerState::On && h.is_idle())
                    .map(|h| h.spec.id),
            );
            if candidates.is_empty() {
                break;
            }
            let Some(&pick) = self
                .policy
                .rank_power_off(&self.cluster, now, &candidates)
                .first()
            else {
                break;
            };
            // Disarm crash/slowdown timers with the host: a failure must
            // never fire on a host that is no longer up.
            self.cancel_fault_timers(pick);
            let off_at = self.cluster.begin_power_off(pick, now);
            self.note(now, AuditKind::HostPoweringOff { host: pick });
            self.obs.record(
                now,
                ObsEvent::PowerFlip {
                    host: pick.raw(),
                    state: PowerFlipKind::ShuttingDown,
                },
            );
            self.sim.schedule_at(off_at, Event::ShutdownDone(pick));
        }
        self.power_scratch = candidates;
    }

    /// True if a queued VM cannot be placed on any ready host and no help
    /// is on the way (nothing booting).
    fn queue_stuck(&self) -> bool {
        if self.cluster.queue().is_empty() {
            return false;
        }
        let booting = self
            .cluster
            .hosts()
            .iter()
            .any(|h| matches!(h.power, PowerState::Booting { .. }));
        if booting {
            return false;
        }
        self.cluster.queue().iter().any(|&vm| {
            !(0..self.cluster.num_hosts()).any(|i| self.cluster.can_place(HostId(i as u32), vm))
        })
    }

    // ----- fault handling ---------------------------------------------------

    /// Arms the failure timer for a freshly-up host.
    fn arm_failure(&mut self, h: HostId) {
        let rel = self.cluster.host(h).spec.reliability;
        if let Some(ttf) = self.faults.time_to_crash(h.raw() as usize, rel) {
            let handle = self.sim.schedule_after(ttf, Event::HostFailure(h));
            self.failure_timer.insert(h, handle);
        }
    }

    /// Arms the next slowdown-episode timer for a freshly-up host (or one
    /// whose episode just ended).
    fn arm_slowdown(&mut self, h: HostId) {
        if let Some(dt) = self.faults.time_to_slowdown(h.raw() as usize) {
            let handle = self.sim.schedule_after(dt, Event::SlowdownStart(h));
            self.slowdown_timer.insert(h, handle);
        }
    }

    /// Cancels every armed fault timer of a host and lifts an active
    /// slowdown. Runs on **every** path that takes the host out of `On`
    /// (crash, rack outage, planned shutdown): a stale crash timer firing
    /// on an already-off host would corrupt the power accounting.
    fn cancel_fault_timers(&mut self, h: HostId) {
        if let Some(handle) = self.failure_timer.remove(&h) {
            self.sim.cancel(handle);
        }
        if let Some(handle) = self.slowdown_timer.remove(&h) {
            self.sim.cancel(handle);
        }
        if self.cluster.host(h).cpu_factor != 1.0 {
            self.cluster.set_cpu_factor(h, 1.0);
        }
    }

    /// Crashes an `On` host: displaces its VMs back to the queue, counts
    /// it toward the flapping blacklist, and schedules the repair.
    fn crash_host(&mut self, h: HostId, now: SimTime, repair_after: SimDuration) {
        let _span = self.obs.span("crash_host", now);
        self.obs.record(
            now,
            ObsEvent::Fault {
                kind: FaultKind::Crash,
                host: h.raw(),
            },
        );
        self.cancel_fault_timers(h);
        let displaced = self.cluster.fail_host(h, now);
        self.note(
            now,
            AuditKind::HostFailed {
                host: h,
                displaced: displaced.len(),
            },
        );
        self.vms_displaced += displaced.len() as u64;
        for vm in displaced {
            if let Some(handle) = self.completion.remove(&vm) {
                self.sim.cancel(handle);
            }
            // A crash resets the retry ladder — the VM did nothing wrong —
            // but starts (or keeps) its recovery clock.
            self.retry.remove(&vm);
            self.displaced_at.entry(vm).or_insert(now);
        }
        self.host_failures += 1;
        let idx = h.raw() as usize;
        self.crash_counts[idx] += 1;
        let (after, penalty) = {
            let r = &self.faults.plan().recovery;
            (r.blacklist_after, r.blacklist_penalty)
        };
        if after > 0 && self.crash_counts[idx] == after && !self.cluster.is_blacklisted(h) {
            self.cluster.blacklist(h, penalty);
            self.fstats.hosts_blacklisted += 1;
            self.note(
                now,
                AuditKind::HostBlacklisted {
                    host: h,
                    crashes: self.crash_counts[idx],
                },
            );
        }
        self.sim
            .schedule_after(repair_after, Event::HostRepaired(h));
    }

    /// Bumps a VM's retry ladder after a failed creation/migration and
    /// schedules its release. The VM stays in the queue (respectively on
    /// its source host); [`Runner::schedule_round`] refuses to act on it
    /// until the backoff expires.
    ///
    /// In degrade mode the ladder is bounded: backoff growth caps at
    /// `cfg.park_after` attempts, and a still-queued VM past the cap is
    /// *parked* — removed from the backoff ladder entirely and held (still
    /// `Queued`, never lost) until [`Runner::try_release_parked`] lets it
    /// back into admission.
    fn apply_backoff(&mut self, vm: VmId, now: SimTime) {
        let entry = self.retry.entry(vm).or_insert(RetryState {
            attempts: 0,
            eligible: now,
        });
        entry.attempts += 1;
        let attempts = entry.attempts;
        if self.cfg.degrade
            && attempts > self.cfg.park_after
            && self.cluster.vm(vm).state == VmState::Queued
        {
            self.retry.remove(&vm);
            self.parked.insert(vm, now);
            self.vms_parked += 1;
            let ctr = self.obs.counter("vms_parked");
            self.obs.inc(ctr, 1);
            self.obs.record(
                now,
                ObsEvent::VmParked {
                    vm: vm.raw(),
                    attempts,
                },
            );
            self.note(now, AuditKind::VmParked { vm, attempts });
            return;
        }
        // Degrade mode caps backoff growth; legacy mode grows unbounded.
        let eff = if self.cfg.degrade {
            attempts.min(self.cfg.park_after)
        } else {
            attempts
        };
        let backoff = self.faults.plan().recovery.backoff(eff);
        entry.eligible = now + backoff;
        self.fstats.retries_delayed += 1;
        self.obs.observe(self.retry_hist, f64::from(attempts));
        self.sim.schedule_after(backoff, Event::RetryRelease(vm));
    }

    /// Releases every parked VM back into admission once no host is
    /// blacklisted (the flapping that caused the pile-up has cleared).
    /// Deterministic: the parked map is a BTreeMap, so release order is
    /// VM-id order. No-op unless degrade mode parked anything.
    fn try_release_parked(&mut self, now: SimTime) -> Option<ScheduleReason> {
        if self.parked.is_empty() {
            return None;
        }
        let any_blacklisted =
            (0..self.cluster.num_hosts()).any(|i| self.cluster.is_blacklisted(HostId(i as u32)));
        if any_blacklisted {
            return None;
        }
        let released = std::mem::take(&mut self.parked);
        for &vm in released.keys() {
            self.note(now, AuditKind::VmUnparked { vm });
        }
        Some(ScheduleReason::VmArrived)
    }

    /// Closes a VM's recovery interval if one is open (it was displaced or
    /// its creation failed, and it just came up).
    fn record_recovery(&mut self, vm: VmId, now: SimTime) {
        if let Some(t0) = self.displaced_at.remove(&vm) {
            let dt = now.saturating_since(t0).as_secs_f64();
            self.obs.record(
                now,
                ObsEvent::Recovery {
                    kind: RecoveryKind::VmRecovered,
                    id: vm.raw(),
                },
            );
            self.fstats.recoveries += 1;
            self.recovery_total_secs += dt;
            if dt > self.fstats.max_recovery_secs {
                self.fstats.max_recovery_secs = dt;
            }
        }
    }

    /// Runs the invariant auditor after an event batch, including the
    /// driver-side check that fault timers only target hosts that are up.
    fn audit_invariants(&mut self, now: SimTime) {
        if !self.auditor.enabled() {
            return;
        }
        let mut timer_violation: Option<String> = None;
        for (&h, _) in self.failure_timer.iter().chain(self.slowdown_timer.iter()) {
            if self.cluster.host(h).power != PowerState::On {
                timer_violation = Some(format!(
                    "fault timer armed on {h} in state {:?}",
                    self.cluster.host(h).power
                ));
                break;
            }
        }
        if let Some(msg) = timer_violation {
            self.auditor.report(now, msg);
        }
        // No VM is ever lost to backpressure: every parked VM is still
        // queued (so conservation holds) and off the retry ladder.
        let mut parked_violation: Option<String> = None;
        for &vm in self.parked.keys() {
            if self.cluster.vm(vm).state != VmState::Queued {
                parked_violation = Some(format!(
                    "parked {vm} in state {:?}, expected Queued",
                    self.cluster.vm(vm).state
                ));
                break;
            }
            if self.retry.contains_key(&vm) {
                parked_violation = Some(format!("parked {vm} still on the retry ladder"));
                break;
            }
        }
        if let Some(msg) = parked_violation {
            self.auditor.report(now, msg);
        }
        self.auditor
            .check(&self.cluster, self.jobs_done as u64, now);
    }

    // ----- execution bookkeeping --------------------------------------------

    /// Re-runs the credit scheduler on `host` and refreshes completion
    /// projections for its VMs.
    fn touch(&mut self, host: HostId, now: SimTime) {
        self.cluster.reallocate_host(host, now);
        let resident = self.cluster.host(host).resident.clone();
        for vm in resident {
            self.refresh_completion(vm, now);
        }
    }

    fn refresh_completion(&mut self, vm: VmId, now: SimTime) {
        if let Some(handle) = self.completion.remove(&vm) {
            self.sim.cancel(handle);
        }
        let v = self.cluster.vm(vm);
        if !v.state.is_executing() {
            return;
        }
        if let Some(eta) = v.eta_secs() {
            // +1 ms guards against the fixed-point floor leaving a sliver
            // of work at the projected instant.
            let at = now + SimDuration::from_secs_f64(eta) + SimDuration::from_millis(1);
            let handle = self.sim.schedule_at(at, Event::JobCompletion(vm));
            self.completion.insert(vm, handle);
        }
    }

    /// Completes the VM's job if its work is done. Returns true on
    /// completion.
    fn complete_if_done(&mut self, vm: VmId, now: SimTime) -> bool {
        let v = self.cluster.vm(vm);
        let VmState::Running { host } = v.state else {
            return false;
        };
        if !v.work_complete() {
            return false;
        }
        if let Some(handle) = self.completion.remove(&vm) {
            self.sim.cancel(handle);
        }
        self.cluster.finish_vm(vm, now);
        let outcome = self.outcome_of(vm, Some(now));
        self.note(
            now,
            AuditKind::JobCompleted {
                vm,
                satisfaction: outcome.satisfaction,
            },
        );
        self.sat_window.push(outcome.satisfaction);
        self.outcomes.push(outcome);
        self.jobs_done += 1;
        self.touch(host, now);
        true
    }

    fn outcome_of(&self, vm: VmId, completed: Option<SimTime>) -> JobOutcome {
        let v = self.cluster.vm(vm);
        let deadline = v.job.deadline();
        let end = completed.unwrap_or(self.sim.now());
        let exec = end.saturating_since(v.job.submit);
        // Requested-CPU residency: how long the VM held its share.
        let residency_start = v.started_at.unwrap_or(end);
        let residency = end.saturating_since(residency_start);
        JobOutcome {
            job_id: v.job.id.raw(),
            submitted: v.job.submit,
            completed,
            deadline,
            satisfaction: if completed.is_some() {
                satisfaction(exec, deadline)
            } else {
                0.0
            },
            delay_pct: delay_pct(exec, deadline),
            cpu_hours: v.job.cpu.as_f64() / 100.0 * residency.as_hours_f64(),
            work_cpu_hours: v.job.total_work() / 100.0 / 3600.0,
        }
    }

    // ----- metrics -----------------------------------------------------------

    fn record_metrics(&mut self) {
        let now = self.sim.now();
        let power = self.cluster.total_power(self.model.as_ref());
        self.power_tw.set(now, power);
        if self.cfg.record_power_series {
            self.power_series.record(now, power);
        }
        self.working_tw
            .set(now, self.cluster.working_count() as f64);
        self.online_tw.set(now, self.cluster.online_count() as f64);
    }

    fn finished(&self) -> bool {
        self.jobs_done == self.jobs.len()
    }

    fn finalize(mut self, end: SimTime) -> RunReport {
        // One last deep structural pass before the books close.
        if self.auditor.enabled() {
            if let Err(msg) = self.cluster.verify() {
                self.auditor.report(end, msg);
            }
        }
        // Jobs still in flight at the horizon count as unfinished, in id
        // order (the order `vms()` iterates).
        let unfinished: Vec<VmId> = self
            .cluster
            .vms()
            .filter(|v| v.state != VmState::Finished)
            .map(|v| v.id)
            .collect();
        for vm in unfinished {
            if let Some(host) = self.cluster.vm(vm).state.host() {
                self.cluster.touch_host(host, end);
            }
            let outcome = self.outcome_of(vm, None);
            self.outcomes.push(outcome);
        }

        let mut report = RunReport::empty(self.label.clone());
        report.avg_working_nodes = self.working_tw.mean(end);
        report.avg_online_nodes = self.online_tw.mean(end);
        report.energy_kwh = self.power_tw.integral(end) / 3600.0 / 1000.0;
        report.migrations = self.migrations;
        report.creations = self.creations;
        report.host_failures = self.host_failures;
        report.vms_displaced = self.vms_displaced;
        self.fstats.mean_recovery_secs =
            self.recovery_total_secs / self.fstats.recoveries.max(1) as f64;
        self.fstats.invariant_checks = self.auditor.checks();
        self.fstats.invariant_violations = self.auditor.violations();
        report.faults = self.fstats;
        report.power_watts = self.power_series;
        report.jobs = self.outcomes;
        report.finalize_jobs();
        report
    }
}

#[cfg(test)]
mod seq_guard_tests {
    use super::*;
    use eards_model::{Cpu, HostClass, JobId, Mem};
    use eards_policies::RandomPolicy;
    use eards_workload::Trace;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn runner_with_two_hosts() -> Runner {
        let hosts = vec![
            HostSpec::standard(HostId(0), HostClass::Medium),
            HostSpec::standard(HostId(1), HostClass::Medium),
        ];
        let job = Job::new(
            JobId(0),
            SimTime::ZERO,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        );
        let mut r = Runner::new(
            hosts,
            Trace::new(vec![job]),
            Box::new(RandomPolicy::new(1)),
            RunConfig::default(),
        );
        for h in [HostId(0), HostId(1)] {
            r.cluster.begin_power_on(h, SimTime::ZERO);
            r.cluster.complete_power_on(h);
        }
        r
    }

    /// The abort-and-done-same-tick collision: a creation on host 0 is
    /// killed by a host failure, the VM is re-created on host 1 with the
    /// *same* completion instant, and the stale abort of the first attempt
    /// then fires on the tick the second attempt completes. An end-time
    /// identity token cannot tell the two operations apart — the sequence
    /// number can.
    #[test]
    fn stale_abort_does_not_kill_reissued_creation() {
        let mut r = runner_with_two_hosts();
        let job = r.jobs[0].clone();
        let vm = r.cluster.submit_job(job);
        let seq1 = r.cluster.start_creation(vm, HostId(0), t(0), t(60));
        // Host 0 dies mid-creation; the VM is displaced back to the queue.
        r.cluster.fail_host(HostId(0), t(10));
        // Re-created on host 1 with an identical end time.
        let seq2 = r.cluster.start_creation(vm, HostId(1), t(10), t(60));
        assert_ne!(seq1, seq2);
        // The pre-seq identity token (vm, kind, ends) *does* collide with
        // the live operation — the exact ambiguity this guard closes:
        assert!(
            r.cluster
                .host(HostId(1))
                .ops
                .iter()
                .any(|o| o.vm == vm && o.kind == eards_model::OpKind::Create && o.ends == t(60)),
            "end-time token must collide for this regression to be meaningful"
        );
        // The stale abort lands on the live operation's completion tick
        // and must be ignored.
        assert!(r.handle(t(60), Event::CreationAborted(vm, seq1)).is_none());
        let on_1 = VmState::Creating { host: HostId(1) };
        assert_eq!(r.cluster.vm(vm).state, on_1);
        // A stale completion with the dead sequence number is equally inert.
        assert!(r.handle(t(60), Event::CreationDone(vm, seq1)).is_none());
        assert_eq!(r.cluster.vm(vm).state, on_1);
        // The live completion goes through.
        assert!(r.handle(t(60), Event::CreationDone(vm, seq2)).is_some());
        assert_eq!(r.cluster.vm(vm).state, VmState::Running { host: HostId(1) });
    }

    /// Same collision for migrations: the stale abort of a dead migration
    /// attempt must not tear down a re-issued migration that shares its
    /// end time.
    #[test]
    fn stale_migration_abort_is_ignored() {
        let mut r = runner_with_two_hosts();
        let job = r.jobs[0].clone();
        let vm = r.cluster.submit_job(job);
        let cseq = r.cluster.start_creation(vm, HostId(0), t(0), t(40));
        assert!(r.handle(t(40), Event::CreationDone(vm, cseq)).is_some());
        // First migration attempt to host 1, aborted cleanly at t = 50.
        let mseq1 = r.cluster.start_migration(vm, HostId(1), t(41), t(101));
        assert!(r
            .handle(t(50), Event::MigrationAborted(vm, mseq1))
            .is_some());
        assert_eq!(r.cluster.vm(vm).state, VmState::Running { host: HostId(0) });
        // Second attempt with the same end time as the first.
        let mseq2 = r.cluster.start_migration(vm, HostId(1), t(51), t(101));
        assert_ne!(mseq1, mseq2);
        // The first attempt's completion event is still in flight under an
        // end-time token; with seq it is inert.
        assert!(r.handle(t(101), Event::MigrationDone(vm, mseq1)).is_none());
        assert!(matches!(r.cluster.vm(vm).state, VmState::Migrating { .. }));
        assert!(r.handle(t(101), Event::MigrationDone(vm, mseq2)).is_some());
        assert_eq!(r.cluster.vm(vm).state, VmState::Running { host: HostId(1) });
    }
}
