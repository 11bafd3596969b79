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
//! for the whole simulation, so a `eards_core::ScoreScheduler`'s
//! evaluator allocations carry from one consolidation tick to the next,
//! and the power-adjustment candidate sets reuse one scratch vector
//! across rounds.

use std::collections::{BTreeMap, HashMap};

use eards_metrics::{
    delay_pct, satisfaction, FaultStats, JobOutcome, RunReport, TimeSeries, TimeWeighted,
};
use eards_model::{
    Action, CalibratedPowerModel, Cluster, FinishedVm, HostId, HostSpec, Policy, PowerModel,
    PowerState, ScheduleContext, ScheduleReason, VmId, VmState,
};
use eards_obs::{HistId, Obs};
use eards_sim::{
    read_header, write_header, EventHandle, EventQueue, IntBuildHasher, Persist, PersistError,
    Reader, SimDuration, SimRng, SimTime, Writer,
};
use eards_workload::Trace;

use crate::audit::{AuditEvent, AuditKind};
use crate::config::RunConfig;
use crate::faults::FaultEngine;
use crate::invariants::InvariantAuditor;

/// Snapshot buffer reserved beyond the finished column: room for the
/// hosts, live VMs, events and metrics of a paper-scale run.
const LIVE_SNAPSHOT_BYTES: usize = 64 * 1024;

/// Queued events of the datacenter simulation. Job arrivals are not
/// queued: the job table is the arrival schedule (see `Runner::seq0`).
#[derive(Debug, Clone, Copy)]
enum Event {
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
/// bumps [`eards_sim::SNAPSHOT_VERSION`] if an existing tag moves). Tag 0
/// is retired: it was the queued job arrival, and restore rejects it.
impl Persist for Event {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match *self {
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
    /// [`Trace::digest`] of the trace, whose jobs the cluster holds.
    trace_digest: u64,
    label: String,

    /// The instant of the batch being (or last) processed.
    now: SimTime,
    queue: EventQueue<Event>,
    /// The arrivals' place in the queue's `(time, handle)` order: the
    /// queue's next handle once [`Runner::start`] has armed the initial
    /// fault timers. The next job (`cluster.num_vms()`) sorts as
    /// `(submit, seq0)`, so a timer armed before it wins a tie with an
    /// arrival, and every later one loses it.
    seq0: EventHandle,
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
    /// `cfg.park_after` is set (degrade mode).
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

    /// Each host's draw under `model`, indexed by [`HostId`]. Refreshed
    /// only for the cluster's dirty hosts and summed in host order, the
    /// same f64 fold as [`Cluster::total_power`], so the total's bits
    /// match a full recompute.
    draws: Vec<f64>,
    power_series: TimeSeries,
    power_tw: TimeWeighted,
    working_tw: TimeWeighted,
    online_tw: TimeWeighted,
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
    /// power-on, `seq0`, periodic timers). Part of the snapshot:
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
        let auditor = InvariantAuditor::new(cfg.auditor);
        let crash_counts = vec![0; hosts.len()];
        let draws = vec![0.0; hosts.len()];
        let obs = cfg.obs.clone();
        let queue_hist = obs.histogram("queue_len", &[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]);
        let retry_hist = obs.histogram("retry_backoff_depth", &[1.0, 2.0, 3.0, 4.0, 6.0, 10.0]);
        let trace_digest = trace.digest();
        let queue = EventQueue::new();
        Runner {
            cluster: Cluster::with_jobs(hosts, PowerState::Off, trace.into_shared_jobs()),
            policy,
            cfg,
            model,
            trace_digest,
            label,
            now: SimTime::ZERO,
            seq0: queue.next_handle(),
            queue,
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
            draws,
            power_series: TimeSeries::new(),
            power_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            working_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            online_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
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

    /// Records one runner transition: its trace event (when obs is on and
    /// the kind has one, see [`AuditKind::trace_event`]) and its audit
    /// entry (when `cfg.audit` is set). The only place the runner records
    /// either.
    fn note(&mut self, at: SimTime, kind: AuditKind) {
        kind.trace(&self.obs, at);
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
        self.now
    }

    /// Progress of the run so far — a cheap read a driver can poll
    /// between batches (e.g. a sweep worker heartbeating its
    /// supervisor).
    pub fn progress(&self) -> RunProgress {
        RunProgress {
            now: self.now,
            horizon: self.hard_cap(),
            jobs_done: self.cluster.num_finished(),
            jobs_total: self.cluster.jobs().len(),
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
        let last_arrival = self
            .cluster
            .jobs()
            .last()
            .map_or(SimTime::ZERO, |j| j.submit);
        last_arrival + self.cfg.drain_limit
    }

    /// Arms the t = 0 world: initial power-on, the arrivals' place in the
    /// event order (`seq0`) and the periodic timers. Idempotent — a
    /// restored runner skips it.
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
                self.schedule_after(dt, Event::RackOutage(r));
            }
        }

        self.seq0 = self.queue.next_handle();
        self.schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
        if let Some(p) = self.cfg.consolidation_period {
            self.schedule_after(p, Event::ConsolidationTick);
        }
        self.lambda_min = self.cfg.lambda_min;
        if let Some(al) = &self.cfg.adaptive_lambda {
            self.lambda_min = self
                .lambda_min
                .clamp(al.lambda_min_bounds.0, al.lambda_min_bounds.1);
            self.schedule_after(al.adjust_period, Event::LambdaAdjust);
        }
        if let Some(p) = self.cfg.checkpoint_period {
            self.schedule_after(p, Event::CheckpointTick);
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
        let Some((now, mut dirty)) = self.fire_next(|at| at < hard_cap) else {
            return false;
        };
        // Batch all events of this instant before scheduling/metrics,
        // keeping the earliest scheduling reason of the batch.
        while let Some((_, reason)) = self.fire_next(|at| at == now) {
            dirty = dirty.or(reason);
        }
        if let Some(reason) = dirty {
            self.schedule_round(now, reason);
            self.adjust_power(now);
        }
        self.record_metrics();
        self.audit_invariants(now);
        self.cluster.clear_dirty();
        !self.finished()
    }

    /// Handles the next occurrence if `fires` accepts its instant, and
    /// returns that instant with the scheduling-round reason it raises.
    /// The occurrence is the trace's next job or the queue's top event,
    /// whichever sorts first on `(time, handle)`. The job sorts as
    /// `(submit, seq0)`, so the order is the one a queue holding every
    /// arrival from the start would pop.
    fn fire_next(
        &mut self,
        fires: impl Fn(SimTime) -> bool,
    ) -> Option<(SimTime, Option<ScheduleReason>)> {
        let arrival = self
            .cluster
            .jobs()
            .get(self.cluster.num_vms())
            .map(|job| (job.submit, self.seq0));
        let top = self.queue.peek();
        match (arrival, top) {
            (Some(key @ (at, _)), _) if top.is_none_or(|top| key <= top) => {
                if !fires(at) {
                    return None;
                }
                self.now = at;
                let vm = self.cluster.admit_next();
                self.note(at, AuditKind::JobArrived { vm });
                Some((at, Some(ScheduleReason::VmArrived)))
            }
            (_, Some((at, _))) if fires(at) => {
                let (at, _, event) = self.queue.pop()?;
                self.now = at;
                Some((at, self.handle(at, event)))
            }
            _ => None,
        }
    }

    /// Schedules `event` at `at`.
    ///
    /// # Panics
    /// Panics if `at` is before the current instant: a causality violation
    /// that would silently corrupt every time-integrated statistic.
    fn schedule_at(&mut self, at: SimTime, event: Event) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, requested = {at}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedules `event` `delay` after the current instant.
    fn schedule_after(&mut self, delay: SimDuration, event: Event) -> EventHandle {
        self.queue.schedule(self.now + delay, event)
    }

    /// Closes the books after the last [`Runner::step_batch`] and returns
    /// the report plus the audit log.
    pub fn finish(mut self) -> (RunReport, Vec<AuditEvent>) {
        let end = self.now;
        let audit = std::mem::take(&mut self.audit);
        (self.finalize(end), audit)
    }

    // ----- snapshot / restore ----------------------------------------------
    //
    // Canonical vs. rebuilt state. Serialized: the clock, the arrivals'
    // handle `seq0`, the event queue with live handles, the RNG, the
    // cluster without its job table (which is also the arrival schedule),
    // the fault engine's RNG stream positions, the retry/backoff and
    // blacklist bookkeeping, every accumulated metric, and a
    // policy-private block. The completion order is the cluster's finished
    // column. Rebuilt on restore from the constructor arguments: the power
    // model, the job table (the trace, checked by the header's digest),
    // the obs handle and its histogram registrations, the report label,
    // and the `power_scratch` and `sla_scratch` buffers. The drain horizon
    // (`hard_cap`) is derived from the trace. Job outcomes are never
    // stored: `finalize` derives them with `outcome_of`. The per-host draw
    // cache is refilled by the next `record_metrics`: a restored cluster
    // marks every host dirty.

    /// Serializes the full mid-flight run state. Call at a batch boundary
    /// (between [`Runner::step_batch`] calls); the driver loop never
    /// exposes a half-applied batch.
    ///
    /// Fails only if some sequence outgrew the codec's `u32` length
    /// prefix ([`PersistError::SequenceTooLong`]) — the writer refuses to
    /// hand out a malformed snapshot rather than panicking mid-run.
    pub fn snapshot(&self) -> Result<Vec<u8>, PersistError> {
        // Late in a run the finished column is most of the snapshot: size
        // the buffer for it and the live state up front.
        let finished = FinishedVm::ENCODED_LEN * self.cluster.num_finished();
        let mut w = Writer::with_capacity(finished + LIVE_SNAPSHOT_BYTES);
        write_header(&mut w);
        self.persist_body(&mut w);
        w.into_bytes()
    }

    /// Rebuilds a run from `bytes`, with the paper's Table-I power model.
    /// `hosts`, `trace`, `policy` and `cfg` must be the ones the
    /// snapshotted run was built with — the snapshot carries fingerprint
    /// fields (host count, trace digest, seed) and rejects mismatches.
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
        w.put_u64(self.trace_digest);
        w.put_u64(self.cfg.seed);

        self.now.persist(w);
        self.seq0.persist(w);
        self.queue.persist(w);
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
        let digest = r.get_u64()?;
        if digest != self.trace_digest {
            return Err(PersistError::Corrupt(format!(
                "snapshot taken over trace digest {digest:#x}, run built with {:#x}",
                self.trace_digest
            )));
        }
        let seed = r.get_u64()?;
        if seed != self.cfg.seed {
            return Err(PersistError::Corrupt(format!(
                "snapshot seed {seed:#x} does not match configured {:#x}",
                self.cfg.seed
            )));
        }

        self.now = SimTime::restore(r)?;
        self.seq0 = EventHandle::restore(r)?;
        self.queue = EventQueue::restore(r)?;
        if self.seq0 > self.queue.next_handle() {
            return Err(PersistError::Corrupt(format!(
                "arrival handle {:?} beyond the queue's next handle {:?}",
                self.seq0,
                self.queue.next_handle()
            )));
        }
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
        self.migrations = r.get_u64()?;
        self.creations = r.get_u64()?;
        self.host_failures = r.get_u64()?;
        self.vms_displaced = r.get_u64()?;
        self.lambda_min = r.get_f64()?;
        self.audit = Vec::restore(r)?;
        self.sat_window = eards_metrics::Summary::restore(r)?;
        self.parked = Vec::<(VmId, SimTime)>::restore(r)?.into_iter().collect();
        self.vms_parked = r.get_u64()?;
        self.cluster.restore_world(r)?;
        let mut block = r.get_block()?;
        self.policy.restore_state(&mut block)?;
        block.finish()?;
        Ok(())
    }

    // ----- event handling --------------------------------------------------

    /// Handles one event; returns the scheduling-round reason it raises.
    fn handle(&mut self, now: SimTime, event: Event) -> Option<ScheduleReason> {
        match event {
            Event::CreationDone(vm, seq) => {
                let VmState::Creating { host } = self.cluster.vm_state(vm) else {
                    return None; // host failed mid-creation; VM re-queued
                };
                // Guard against a *stale* event: if the original creation
                // was aborted by a host failure and the VM is now being
                // re-created elsewhere, only the event carrying the live
                // operation's sequence number may complete it.
                if !self.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.cluster.finish_creation(vm, now);
                self.note(now, AuditKind::VmStarted { vm, host });
                self.retry.remove(&vm);
                self.record_recovery(vm, now);
                self.touch(host, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::VmFinished)
            }
            Event::MigrationDone(vm, seq) => {
                let VmState::Migrating { from, to } = self.cluster.vm_state(vm) else {
                    return None; // an endpoint failed mid-migration
                };
                // Stale-event guard (see CreationDone).
                if !self.cluster.op_is_live(vm, seq) {
                    return None;
                }
                // Progress accrued on the source up to this instant.
                self.cluster.touch_host(from, now);
                self.cluster.finish_migration(vm, now);
                self.note(now, AuditKind::MigrationFinished { vm, from, to });
                self.retry.remove(&vm);
                self.touch(from, now);
                self.touch(to, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CheckpointDone(vm, seq) => {
                let VmState::Checkpointing { host } = self.cluster.vm_state(vm) else {
                    return None;
                };
                if !self.cluster.op_is_live(vm, seq) {
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
                let VmState::Running { host } = self.cluster.vm_state(vm) else {
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
                        let mttr = self.faults.plan().mttr;
                        self.fail_boot(h, now, mttr);
                    } else {
                        self.cluster.complete_power_on(h);
                        self.note(now, AuditKind::HostOn { host: h });
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
                    self.note(now, AuditKind::HostOff { host: h });
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
                // In degrade mode a repair wipes the host's flapping
                // record: the blacklist lifts and the crash count resets
                // (so renewed flapping can re-blacklist it), which in turn
                // may let parked VMs back in.
                if self.cfg.park_after.is_some() && self.cluster.is_blacklisted(h) {
                    self.cluster.blacklist(h, 0.0);
                    self.crash_counts[h.raw() as usize] = 0;
                    self.note(now, AuditKind::BlacklistCleared { host: h });
                }
                let _ = self.try_release_parked(now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CreationAborted(vm, seq) => {
                let VmState::Creating { host } = self.cluster.vm_state(vm) else {
                    return None; // the host failed first; already re-queued
                };
                // Stale-event guard: only the abort belonging to the live
                // operation (matching sequence number) may kill it.
                if !self.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.cluster.abort_creation(vm, now);
                self.note(now, AuditKind::CreationFailed { vm, host });
                self.fstats.creation_failures += 1;
                // The recovery clock starts at the first failure and runs
                // until the VM finally comes up somewhere.
                self.displaced_at.entry(vm).or_insert(now);
                self.apply_backoff(vm, now);
                self.touch(host, now);
                Some(ScheduleReason::VmArrived)
            }
            Event::MigrationAborted(vm, seq) => {
                let VmState::Migrating { from, to } = self.cluster.vm_state(vm) else {
                    return None; // an endpoint failed first
                };
                if !self.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.cluster.abort_migration(vm, now);
                self.note(now, AuditKind::MigrationAborted { vm, from, to });
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
                self.fstats.slowdown_episodes += 1;
                let handle = self.schedule_after(duration, Event::SlowdownEnd(h));
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
                for i in lo..hi {
                    let h = HostId(i as u32);
                    match self.cluster.host(h).power {
                        PowerState::On => self.crash_host(h, now, outage),
                        // The boot is struck down with the rack.
                        PowerState::Booting { .. } => self.fail_boot(h, now, outage),
                        _ => {} // unpowered hosts are unaffected
                    }
                }
                // Re-arm: the rack can fail again later.
                if let Some(dt) = self.faults.time_to_rack_outage(r) {
                    self.schedule_after(dt, Event::RackOutage(r));
                }
                (failed > 0).then_some(ScheduleReason::HostStateChanged)
            }
            Event::RetryRelease(vm) => {
                // The backoff expired; if the VM is still waiting, give the
                // policy a chance to place it again.
                (self.cluster.vm_state(vm) == VmState::Queued).then_some(ScheduleReason::VmArrived)
            }
            Event::SlaCheck => {
                // Walk the hosts' resident lists, not every VM ever
                // admitted (DESIGN.md §18). A host is touched once, and
                // only if it has a Running resident: touching any other
                // host would split the progress accrual of a VM migrating
                // away or checkpointing there, and move its f64 bits.
                // Without dynamic SLA only whether some VM is late
                // matters, so once one is the rest go unscored; every
                // such host is still touched.
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
                        if violated && !self.cfg.dynamic_sla {
                            break;
                        }
                        let (v, job) = (self.cluster.vm(vm), self.cluster.job(vm));
                        if v.sla_fulfillment(job, now) < 1.0 {
                            violated = true;
                            if self.cfg.dynamic_sla {
                                self.escalate_request(vm, host, now);
                            }
                        }
                    }
                }
                self.sla_scratch = running;
                if !self.finished() {
                    self.schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
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
                    self.schedule_after(p, Event::ConsolidationTick);
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
                    self.schedule_after(al.adjust_period, Event::LambdaAdjust);
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
                    self.schedule_at(ends, Event::CheckpointDone(vm, seq));
                    self.touch(host, now);
                }
                if let (Some(p), false) = (self.cfg.checkpoint_period, self.finished()) {
                    self.schedule_after(p, Event::CheckpointTick);
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
                    if self.cluster.vm_state(vm) != VmState::Queued
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
                            self.schedule_at(abort_at, Event::CreationAborted(vm, seq));
                        }
                        None => {
                            self.schedule_at(ends, Event::CreationDone(vm, seq));
                        }
                    }
                    self.touch(host, now);
                    self.creations += 1;
                }
                Action::Migrate { vm, to } => {
                    let VmState::Running { host: from } = self.cluster.vm_state(vm) else {
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
                            self.schedule_at(abort_at, Event::MigrationAborted(vm, seq));
                        }
                        None => {
                            self.schedule_at(ends, Event::MigrationDone(vm, seq));
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
        let (v, job) = (self.cluster.vm(vm), self.cluster.job(vm));
        if v.alloc + 1e-9 >= job.cpu.as_f64() {
            return; // not starved
        }
        let left = job.deadline_at().saturating_since(now).as_secs_f64();
        let needed = (v.remaining_work(job) / left.max(1.0)).ceil();
        let cap = self.cluster.host(host).spec.cpu;
        let job_cpu = job.cpu.points();
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
            self.schedule_at(ready_at, Event::BootDone(pick));
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
            self.schedule_at(off_at, Event::ShutdownDone(pick));
        }
        self.power_scratch = candidates;
    }

    /// True if a queued VM cannot be placed on any ready host and no help
    /// is on the way (nothing booting). A VM whose request does not fit in
    /// [`Cluster::max_free_on`] fits strictly on no `On` host, so it is
    /// stuck without a probe; debug builds probe anyway and check.
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
        let free = self.cluster.max_free_on();
        let placeable = |vm| {
            (0..self.cluster.num_hosts()).any(|i| self.cluster.can_place(HostId(i as u32), vm))
        };
        self.cluster.queue().iter().any(|&vm| {
            if !self.cluster.vm(vm).requested.fits_in(free) {
                debug_assert!(
                    !placeable(vm),
                    "{vm} exceeds the free bound but fits a host"
                );
                return true;
            }
            !placeable(vm)
        })
    }

    // ----- fault handling ---------------------------------------------------

    /// Arms the failure timer for a freshly-up host.
    fn arm_failure(&mut self, h: HostId) {
        let rel = self.cluster.host(h).spec.reliability;
        if let Some(ttf) = self.faults.time_to_crash(h.raw() as usize, rel) {
            let handle = self.schedule_after(ttf, Event::HostFailure(h));
            self.failure_timer.insert(h, handle);
        }
    }

    /// Arms the next slowdown-episode timer for a freshly-up host (or one
    /// whose episode just ended).
    fn arm_slowdown(&mut self, h: HostId) {
        if let Some(dt) = self.faults.time_to_slowdown(h.raw() as usize) {
            let handle = self.schedule_after(dt, Event::SlowdownStart(h));
            self.slowdown_timer.insert(h, handle);
        }
    }

    /// Cancels every armed fault timer of a host and lifts an active
    /// slowdown. Runs on **every** path that takes the host out of `On`
    /// (crash, rack outage, planned shutdown): a stale crash timer firing
    /// on an already-off host would corrupt the power accounting.
    fn cancel_fault_timers(&mut self, h: HostId) {
        if let Some(handle) = self.failure_timer.remove(&h) {
            self.queue.cancel(handle);
        }
        if let Some(handle) = self.slowdown_timer.remove(&h) {
            self.queue.cancel(handle);
        }
        if self.cluster.host(h).cpu_factor != 1.0 {
            self.cluster.set_cpu_factor(h, 1.0);
        }
    }

    /// Fails a `Booting` host's boot — a boot fault, or a rack outage
    /// striking the host mid-boot — and schedules its repair. A booting
    /// host has no fault timers to cancel: they are armed only while a
    /// host is `On` (the auditor checks this every batch).
    fn fail_boot(&mut self, h: HostId, now: SimTime, repair_after: SimDuration) {
        self.cluster.fail_boot(h);
        self.note(now, AuditKind::BootFailed { host: h });
        self.fstats.boot_failures += 1;
        self.schedule_after(repair_after, Event::HostRepaired(h));
    }

    /// Crashes an `On` host: displaces its VMs back to the queue, counts
    /// it toward the flapping blacklist, and schedules the repair.
    fn crash_host(&mut self, h: HostId, now: SimTime, repair_after: SimDuration) {
        let _span = self.obs.span("crash_host", now);
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
            self.cancel_completion(vm);
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
        self.schedule_after(repair_after, Event::HostRepaired(h));
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
        if self.cfg.park_after.is_some_and(|cap| attempts > cap)
            && self.cluster.vm(vm).state == VmState::Queued
        {
            self.retry.remove(&vm);
            self.parked.insert(vm, now);
            self.vms_parked += 1;
            let ctr = self.obs.counter("vms_parked");
            self.obs.inc(ctr, 1);
            self.note(now, AuditKind::VmParked { vm, attempts });
            return;
        }
        // Degrade mode caps backoff growth; legacy mode grows unbounded.
        let eff = attempts.min(self.cfg.park_after.unwrap_or(u32::MAX));
        let backoff = self.faults.plan().recovery.backoff(eff);
        entry.eligible = now + backoff;
        self.fstats.retries_delayed += 1;
        self.obs.observe(self.retry_hist, f64::from(attempts));
        self.schedule_after(backoff, Event::RetryRelease(vm));
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
            self.note(now, AuditKind::VmRecovered { vm });
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
        let finished = self.cluster.num_finished() as u64;
        let deep = self.auditor.check(&self.cluster, finished, now);
        if deep {
            if let Err(msg) = self.verify_draws() {
                self.auditor.report(now, msg);
            }
        }
    }

    /// Compares every cached host draw with a fresh call to the power
    /// model, bit for bit.
    fn verify_draws(&self) -> Result<(), String> {
        for (i, &cached) in self.draws.iter().enumerate() {
            let h = HostId(i as u32);
            let fresh = self.cluster.host_power(h, self.model.as_ref());
            if cached.to_bits() != fresh.to_bits() {
                return Err(format!(
                    "{h} cached draw {cached} W disagrees with the model's {fresh} W"
                ));
            }
        }
        Ok(())
    }

    // ----- execution bookkeeping --------------------------------------------

    /// Re-runs the credit scheduler on `host` and refreshes completion
    /// projections for its VMs.
    fn touch(&mut self, host: HostId, now: SimTime) {
        self.cluster.reallocate_host(host, now);
        // By index: refreshing a projection changes no residency, and the
        // list is not copied.
        let mut i = 0;
        while let Some(&vm) = self.cluster.host(host).resident.get(i) {
            self.refresh_completion(vm, now);
            i += 1;
        }
    }

    fn refresh_completion(&mut self, vm: VmId, now: SimTime) {
        self.cancel_completion(vm);
        let v = self.cluster.vm(vm);
        if !v.state.is_executing() {
            return;
        }
        if let Some(eta) = v.eta_secs(self.cluster.job(vm)) {
            // +1 ms guards against the fixed-point floor leaving a sliver
            // of work at the projected instant.
            let at = now + SimDuration::from_secs_f64(eta) + SimDuration::from_millis(1);
            let handle = self.schedule_at(at, Event::JobCompletion(vm));
            self.completion.insert(vm, handle);
        }
    }

    /// Cancels the VM's pending completion projection, if any.
    fn cancel_completion(&mut self, vm: VmId) {
        if let Some(handle) = self.completion.remove(&vm) {
            self.queue.cancel(handle);
        }
    }

    /// Completes the VM's job if its work is done. Returns true on
    /// completion.
    fn complete_if_done(&mut self, vm: VmId, now: SimTime) -> bool {
        let v = self.cluster.vm(vm);
        let VmState::Running { host } = v.state else {
            return false;
        };
        if !v.work_complete(self.cluster.job(vm)) {
            return false;
        }
        self.cancel_completion(vm);
        self.cluster.finish_vm(vm, now);
        let satisfaction = self.outcome_of(vm).satisfaction;
        self.note(now, AuditKind::JobCompleted { vm, satisfaction });
        self.sat_window.push(satisfaction);
        self.touch(host, now);
        true
    }

    /// The report row of `vm`'s job: finished at its record's completion
    /// instant, or unfinished as of the current instant. The only place
    /// an outcome is computed, so the satisfaction the audit log and
    /// `sat_window` see at completion is the report's, bit for bit.
    fn outcome_of(&self, vm: VmId) -> JobOutcome {
        let job = self.cluster.job(vm);
        let (started, completed) = match self.cluster.finished_vm(vm) {
            Some(f) => (Some(f.started_at), Some(f.completed_at)),
            None => (self.cluster.vm(vm).started_at, None),
        };
        let deadline = job.deadline();
        let end = completed.unwrap_or(self.now);
        let exec = end.saturating_since(job.submit);
        // Requested-CPU residency: how long the VM held its share.
        let residency_start = started.unwrap_or(end);
        let residency = end.saturating_since(residency_start);
        JobOutcome {
            job_id: job.id.raw(),
            submitted: job.submit,
            completed,
            deadline,
            satisfaction: if completed.is_some() {
                satisfaction(exec, deadline)
            } else {
                0.0
            },
            delay_pct: delay_pct(exec, deadline),
            cpu_hours: job.cpu.as_f64() / 100.0 * residency.as_hours_f64(),
            work_cpu_hours: job.total_work() / 100.0 / 3600.0,
        }
    }

    // ----- metrics -----------------------------------------------------------

    /// Samples power and host counts at the current instant. Only the
    /// hosts changed since the last batch closed are re-drawn.
    fn record_metrics(&mut self) {
        let now = self.now;
        for &h in self.cluster.dirty_hosts() {
            self.draws[h.raw() as usize] = self.cluster.host_power(h, self.model.as_ref());
        }
        let power: f64 = self.draws.iter().sum();
        debug_assert_eq!(
            power.to_bits(),
            self.cluster.total_power(self.model.as_ref()).to_bits(),
            "cached draws sum to {power} W, a full recompute differs"
        );
        debug_assert_eq!(self.cluster.verify_counts(), Ok(()));
        self.power_tw.set(now, power);
        if self.cfg.record_power_series {
            self.power_series.record(now, power);
        }
        self.working_tw
            .set(now, self.cluster.working_count() as f64);
        self.online_tw.set(now, self.cluster.online_count() as f64);
    }

    fn finished(&self) -> bool {
        self.cluster.num_finished() == self.cluster.jobs().len()
    }

    fn finalize(mut self, end: SimTime) -> RunReport {
        // One last deep structural pass before the books close.
        if self.auditor.enabled() {
            if let Err(msg) = self.cluster.verify() {
                self.auditor.report(end, msg);
            }
        }
        // Finished jobs in completion order, then the jobs still in
        // flight at the horizon, in id order.
        let finished = self.cluster.finished_vms().map(|f| f.id);
        let live = self.cluster.live_vms().map(|v| v.id);
        let jobs: Vec<JobOutcome> = finished.chain(live).map(|vm| self.outcome_of(vm)).collect();

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
        report.jobs = jobs;
        report.finalize_jobs();
        report
    }
}

#[cfg(test)]
mod seq_guard_tests {
    use super::*;
    use eards_model::{Cpu, HostClass, Job, JobId, Mem};
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

    /// Scheduling before the current instant is a causality violation and
    /// panics instead of corrupting the time-integrated statistics.
    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut r = runner_with_two_hosts();
        r.now = t(10);
        r.schedule_at(t(3), Event::SlaCheck);
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
        let vm = r.cluster.admit_next();
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
        let vm = r.cluster.admit_next();
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

#[cfg(test)]
mod host_tests {
    use super::*;
    use eards_model::{Cpu, HostClass, Job, JobId, Mem};
    use eards_policies::RandomPolicy;
    use eards_workload::Trace;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// One 4-way host running `n` jobs of 2 cores each, created at t = 0
    /// and started at t = 40: with `n > 2` every one is starved and, at
    /// the 1.5× deadline, projected late.
    fn crowded_host(n: u64, cfg: RunConfig) -> (Runner, Vec<VmId>) {
        let jobs = (0..n)
            .map(|j| {
                Job::new(
                    JobId(j),
                    SimTime::ZERO,
                    Cpu(200),
                    Mem::gib(1),
                    SimDuration::from_secs(600),
                    1.5,
                )
            })
            .collect();
        let hosts = vec![HostSpec::standard(HostId(0), HostClass::Medium)];
        let mut r = Runner::new(hosts, Trace::new(jobs), Box::new(RandomPolicy::new(1)), cfg);
        r.cluster.begin_power_on(HostId(0), SimTime::ZERO);
        r.cluster.complete_power_on(HostId(0));
        let vms: Vec<VmId> = (0..n).map(|_| r.cluster.admit_next()).collect();
        for &vm in &vms {
            r.cluster.start_creation(vm, HostId(0), t(0), t(40));
        }
        for &vm in &vms {
            r.cluster.finish_creation(vm, t(40));
        }
        r.now = t(40);
        r.touch(HostId(0), t(40));
        (r, vms)
    }

    /// The SLA check stops scoring once it knows the answer only when
    /// nothing else reads the scores: with dynamic SLA on, every late VM
    /// is still escalated; with it off, the round is raised all the same
    /// and no request moves.
    #[test]
    fn sla_check_escalates_every_violated_vm_under_dynamic_sla() {
        for dynamic_sla in [true, false] {
            let cfg = RunConfig {
                dynamic_sla,
                ..RunConfig::default()
            };
            // At t = 640 each has 600 s of its 120 000 cpu%·s left to do
            // at 100%, and 260 s to its deadline: escalation asks ~231%.
            let (mut r, vms) = crowded_host(4, cfg);
            let at = t(640);
            r.now = at;
            r.cluster.touch_host(HostId(0), at);
            for &vm in &vms {
                let (v, job) = (r.cluster.vm(vm), r.cluster.job(vm));
                assert!(v.sla_fulfillment(job, at) < 1.0, "{vm} must be late");
                assert!(v.alloc < job.cpu.as_f64(), "{vm} must be starved");
            }
            let reason = r.handle(at, Event::SlaCheck);
            assert_eq!(reason, Some(ScheduleReason::SlaViolation));
            for &vm in &vms {
                let escalated = r.cluster.vm(vm).requested.cpu > Cpu(200);
                assert_eq!(escalated, dynamic_sla, "{vm} (dynamic SLA {dynamic_sla})");
            }
        }
    }

    /// Counts heap allocations made by the current thread while enabled.
    mod counting {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
        }

        struct Counting;

        fn note() {
            let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
        }

        // SAFETY: every call forwards to `System` unchanged; counting
        // touches only a const-initialized thread-local `Cell`.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                note();
                unsafe { System.alloc(layout) }
            }
            unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
                note();
                unsafe { System.alloc_zeroed(layout) }
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
                note();
                unsafe { System.realloc(ptr, layout, size) }
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                unsafe { System.dealloc(ptr, layout) }
            }
        }

        #[global_allocator]
        static ALLOC: Counting = Counting;

        /// Heap allocations `f` makes on this thread.
        pub(super) fn allocations(f: impl FnOnce()) -> usize {
            COUNT.with(|c| c.set(Some(0)));
            f();
            COUNT.with(|c| c.replace(None)).unwrap_or(0)
        }
    }

    /// Once its buffers have grown, re-running the credit scheduler on a
    /// host and re-projecting its VMs' completions allocates nothing. The
    /// event heap keeps a cancelled projection as a tombstone until it
    /// pops, so the heap is drained (as pops drain it) before the
    /// measured touch.
    #[test]
    fn steady_state_touch_allocates_nothing() {
        let (mut r, _) = crowded_host(3, RunConfig::default());
        for s in 41..44 {
            r.touch(HostId(0), t(s));
        }
        while r.queue.pop().is_some() {}
        r.touch(HostId(0), t(44));
        let n = counting::allocations(|| r.touch(HostId(0), t(45)));
        assert_eq!(n, 0, "a steady-state touch allocated {n} times");
        let n = counting::allocations(|| r.cluster.reallocate_host(HostId(0), t(46)));
        assert_eq!(n, 0, "a steady-state reallocation allocated {n} times");
        // The counter sees this thread's allocations.
        assert_eq!(counting::allocations(|| drop(vec![0u8; 8])), 1);
    }
}
