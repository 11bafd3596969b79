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

use std::collections::BTreeMap;
use std::marker::PhantomData;

use eards_metrics::{
    delay_pct, satisfaction, FaultStats, JobOutcome, RunReport, TimeSeries, TimeWeighted,
};
use eards_model::{
    Action, CalibratedPowerModel, Cluster, FinishedVm, HostId, HostSpec, Policy, PowerModel,
    PowerState, ScheduleContext, ScheduleReason, VmId, VmState,
};
use eards_obs::{HistId, Obs};
use eards_sim::{
    read_header, write_header, EventHandle, EventQueue, Persist, PersistError, Reader, SimDuration,
    SimRng, SimTime, Writer,
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
/// queued: the job table is the arrival schedule (see `RunState::seq0`).
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
    /// The tag byte, then the payload's fields in order.
    #[inline]
    fn persist(&self, w: &mut Writer) {
        match *self {
            Event::CreationDone(vm, seq) => (1u8, (vm, seq)).persist(w),
            Event::MigrationDone(vm, seq) => (2u8, (vm, seq)).persist(w),
            Event::CheckpointDone(vm, seq) => (3u8, (vm, seq)).persist(w),
            Event::JobCompletion(vm) => (4u8, vm).persist(w),
            Event::BootDone(h) => (5u8, h).persist(w),
            Event::ShutdownDone(h) => (6u8, h).persist(w),
            Event::HostFailure(h) => (7u8, h).persist(w),
            Event::HostRepaired(h) => (8u8, h).persist(w),
            Event::CreationAborted(vm, seq) => (9u8, (vm, seq)).persist(w),
            Event::MigrationAborted(vm, seq) => (10u8, (vm, seq)).persist(w),
            Event::SlowdownStart(h) => (11u8, h).persist(w),
            Event::SlowdownEnd(h) => (12u8, h).persist(w),
            Event::RackOutage(r) => (13u8, r).persist(w),
            Event::RetryRelease(vm) => (14u8, vm).persist(w),
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

impl Event {
    /// Whether every id the event names lies inside a world of `vms`
    /// admitted VMs, `hosts` hosts and `racks` racks.
    fn in_range(self, vms: usize, hosts: usize, racks: usize) -> bool {
        match self {
            Event::CreationDone(vm, _)
            | Event::MigrationDone(vm, _)
            | Event::CheckpointDone(vm, _)
            | Event::JobCompletion(vm)
            | Event::CreationAborted(vm, _)
            | Event::MigrationAborted(vm, _)
            | Event::RetryRelease(vm) => vm.index() < vms,
            Event::BootDone(h)
            | Event::ShutdownDone(h)
            | Event::HostFailure(h)
            | Event::HostRepaired(h)
            | Event::SlowdownStart(h)
            | Event::SlowdownEnd(h) => h.index() < hosts,
            Event::RackOutage(r) => r < racks,
            Event::SlaCheck
            | Event::ConsolidationTick
            | Event::LambdaAdjust
            | Event::CheckpointTick => true,
        }
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

/// One configured simulation run: the `RunState` a snapshot carries,
/// and the wiring around it that none does.
pub struct Runner {
    state: RunState,
    policy: Box<dyn Policy>,
    cfg: RunConfig,
    model: Box<dyn PowerModel>,
    label: String,
    /// Each host's draw under `model`, indexed by [`HostId`]. Refreshed
    /// only for the cluster's dirty hosts and summed in host order, the
    /// same f64 fold as [`Cluster::total_power`], so the total's bits
    /// match a full recompute.
    draws: Vec<f64>,
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
}

/// The mid-flight state of a run: everything a snapshot carries, in wire
/// order. [`Runner::with_power_model`] builds it from the trace and
/// [`Runner::restore_with_power_model`] decodes it from bytes; neither
/// builds anything the other then overwrites.
///
/// Serialized: `started`, the fingerprint of the world it was built over
/// (host count, trace digest, seed), the clock, the arrivals' handle
/// `seq0`, the event queue with live handles, the RNG, the fault timers,
/// the fault engine's RNG stream positions, the retry/backoff, parking
/// and blacklist bookkeeping, every accumulated metric, and the cluster
/// without its job table (which is also the arrival schedule). The
/// completion order is the cluster's finished column. A policy-private
/// block follows the state in a snapshot. Rebuilt on restore from the
/// constructor arguments, in the [`Runner`] wiring: the power model, the
/// job table (the trace, checked by the digest), the obs handle and its
/// histogram registrations, the report label, and the `power_scratch`
/// and `sla_scratch` buffers. The drain horizon (`hard_cap`) is derived
/// from the trace. Job outcomes are never stored: `finish` derives them
/// with `outcome_of`. The per-host draw cache is refilled by the next
/// `record_metrics`: a restored cluster marks every host dirty.
struct RunState {
    /// True once [`Runner::start`] has armed the t = 0 world (initial
    /// power-on, `seq0`, periodic timers): a resumed run must not re-run
    /// the setup.
    started: bool,
    /// [`Trace::digest`] of the trace, whose jobs the cluster holds.
    trace_digest: u64,
    /// The driver seed the run was built with.
    seed: u64,
    /// The instant of the batch being (or last) processed.
    now: SimTime,
    /// The arrivals' place in the queue's `(time, handle)` order: the
    /// queue's next handle once [`Runner::start`] has armed the initial
    /// fault timers. The next job (`cluster.num_vms()`) sorts as
    /// `(submit, seq0)`, so a timer armed before it wins a tie with an
    /// arrival, and every later one loses it.
    seq0: EventHandle,
    queue: EventQueue<Event>,
    rng: SimRng,
    /// The pending completion projection of each executing VM.
    completion: Column<VmId, EventHandle>,
    /// The pending crash timer of each host that is up.
    failure_timer: Column<HostId, EventHandle>,
    /// The pending slowdown-start *or* slowdown-end timer of each host.
    slowdown_timer: Column<HostId, EventHandle>,
    /// Per-host, per-class fault streams (see [`FaultEngine`]): two runs
    /// that keep a host up for the same intervals see the same faults on
    /// it regardless of what else they randomize.
    faults: FaultEngine,
    /// Retry backoff state of VMs whose creation/migration failed.
    /// BTreeMap: sparse, and (in degrade mode) audited per-entry.
    retry: BTreeMap<VmId, RetryState>,
    /// Crashes accumulated per host (feeds the flapping blacklist).
    crash_counts: Vec<u32>,
    /// When each currently-unrecovered VM was displaced or failed
    /// (cleared on successful restart; feeds time-to-recover).
    displaced_at: Column<VmId, SimTime>,
    auditor: InvariantAuditor,
    fstats: FaultStats,
    recovery_total_secs: f64,
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
    /// Backpressure: VMs whose retry ladder passed `cfg.park_after`
    /// attempts, parked (still `Queued`) until the flapping blacklist
    /// clears. BTreeMap so release order is deterministic. Empty unless
    /// `cfg.park_after` is set (degrade mode).
    parked: BTreeMap<VmId, SimTime>,
    /// VMs ever parked by backpressure (monotone counter).
    vms_parked: u64,
    cluster: Cluster,
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

/// An id that indexes a dense table.
trait DenseId: Copy + Persist {
    fn index(self) -> usize;
    fn from_index(i: usize) -> Self;
}

macro_rules! dense_id {
    ($($id:ident($raw:ty)),*) => {$(
        impl DenseId for $id {
            fn index(self) -> usize { self.0 as usize }
            fn from_index(i: usize) -> Self { $id(i as $raw) }
        }
    )*};
}

dense_id!(VmId(u64), HostId(u32));

/// A map over a dense id space: one slot per id, grown on insert.
struct Column<K, V>(Vec<Option<V>>, PhantomData<K>);

impl<K: DenseId, V: Copy> Column<K, V> {
    const EMPTY: Self = Column(Vec::new(), PhantomData);

    /// Stores `v` under `k`, growing the column if it is shorter.
    #[inline]
    fn insert(&mut self, k: K, v: V) {
        let i = k.index();
        if i >= self.0.len() {
            self.0.resize(i + 1, None);
        }
        self.0[i] = Some(v);
    }

    /// Stores `v` under `k` unless `k` already holds a value.
    fn insert_if_absent(&mut self, k: K, v: V) {
        if self.0.get(k.index()).is_none_or(Option::is_none) {
            self.insert(k, v);
        }
    }

    #[inline]
    fn remove(&mut self, k: K) -> Option<V> {
        self.0.get_mut(k.index()).and_then(Option::take)
    }

    /// The occupied slots in id order.
    fn iter(&self) -> impl Iterator<Item = (K, V)> + '_ {
        let occupied = |(i, v): (usize, &Option<V>)| v.map(|v| (K::from_index(i), v));
        self.0.iter().enumerate().filter_map(occupied)
    }
}

/// The key-sorted pair list of the occupied slots, as a `Vec<(K, V)>`
/// writes it. Restore rejects keys that do not increase, and any key at
/// or past the bytes left to read: every id names a host or VM that the
/// cluster, later in the snapshot, spends at least one byte on. That
/// bounds the column's allocation; [`RunState::check_ids`] then checks
/// every key against the decoded cluster.
impl<K: DenseId, V: Persist + Copy> Persist for Column<K, V> {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.iter().collect::<Vec<_>>().persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let pairs = Vec::<(K, V)>::restore(r)?;
        let len = pairs
            .last()
            .map_or(0, |&(k, _)| k.index().saturating_add(1));
        let mut slots = vec![None; len.min(r.remaining())];
        let mut next = 0;
        for (k, v) in pairs {
            let i = k.index();
            if i < next || i >= slots.len() {
                let msg = format!("column key {i} out of order or past the snapshot's end");
                return Err(PersistError::Corrupt(msg));
            }
            slots[i] = Some(v);
            next = i + 1;
        }
        Ok(Column(slots, PhantomData))
    }
}

/// See [`RunState`] for what is serialized. Restore checks the state's
/// own consistency; [`Runner::restore_with_power_model`] checks it
/// against the world it is handed.
impl Persist for RunState {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_bool(self.started);
        w.put_u32(self.cluster.num_hosts() as u32);
        w.put_u64(self.trace_digest);
        w.put_u64(self.seed);
        self.now.persist(w);
        self.seq0.persist(w);
        self.queue.persist(w);
        self.rng.persist(w);
        self.completion.persist(w);
        self.failure_timer.persist(w);
        self.slowdown_timer.persist(w);
        self.faults.persist(w);
        self.retry.persist(w);
        self.crash_counts.persist(w);
        self.displaced_at.persist(w);
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
        self.parked.persist(w);
        w.put_u64(self.vms_parked);
        self.cluster.persist(w);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let started = r.get_bool()?;
        let hosts = r.get_u32()? as usize;
        let mut state = RunState {
            started,
            trace_digest: r.get_u64()?,
            seed: r.get_u64()?,
            now: SimTime::restore(r)?,
            seq0: EventHandle::restore(r)?,
            queue: EventQueue::restore(r)?,
            rng: SimRng::restore(r)?,
            completion: Column::restore(r)?,
            failure_timer: Column::restore(r)?,
            slowdown_timer: Column::restore(r)?,
            faults: FaultEngine::restore(r)?,
            retry: BTreeMap::restore(r)?,
            crash_counts: Vec::restore(r)?,
            displaced_at: Column::restore(r)?,
            auditor: InvariantAuditor::restore(r)?,
            fstats: FaultStats::restore(r)?,
            recovery_total_secs: r.get_f64()?,
            power_series: TimeSeries::restore(r)?,
            power_tw: TimeWeighted::restore(r)?,
            working_tw: TimeWeighted::restore(r)?,
            online_tw: TimeWeighted::restore(r)?,
            migrations: r.get_u64()?,
            creations: r.get_u64()?,
            host_failures: r.get_u64()?,
            vms_displaced: r.get_u64()?,
            lambda_min: r.get_f64()?,
            audit: Vec::restore(r)?,
            sat_window: eards_metrics::Summary::restore(r)?,
            parked: BTreeMap::restore(r)?,
            vms_parked: r.get_u64()?,
            cluster: Cluster::restore(r)?,
        };
        state.check_ids(hosts)?;
        Ok(state)
    }
}

impl RunState {
    /// The t = 0 state of a run of `trace` over `hosts`, before
    /// [`Runner::start`] arms it.
    fn new(hosts: Vec<HostSpec>, trace: Trace, cfg: &RunConfig) -> Self {
        let queue = EventQueue::new();
        RunState {
            started: false,
            trace_digest: trace.digest(),
            seed: cfg.seed,
            now: SimTime::ZERO,
            seq0: queue.next_handle(),
            queue,
            rng: SimRng::seed_from_u64(cfg.seed),
            completion: Column::EMPTY,
            failure_timer: Column::EMPTY,
            slowdown_timer: Column::EMPTY,
            faults: FaultEngine::new(cfg.faults.clone(), hosts.len(), cfg.seed),
            retry: BTreeMap::new(),
            crash_counts: vec![0; hosts.len()],
            displaced_at: Column::EMPTY,
            auditor: InvariantAuditor::new(cfg.auditor),
            fstats: FaultStats::default(),
            recovery_total_secs: 0.0,
            power_series: TimeSeries::new(),
            power_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            working_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            online_tw: TimeWeighted::new(SimTime::ZERO, 0.0),
            migrations: 0,
            creations: 0,
            host_failures: 0,
            vms_displaced: 0,
            lambda_min: 0.0, // set from cfg in start()
            audit: Vec::new(),
            sat_window: eards_metrics::Summary::new(),
            parked: BTreeMap::new(),
            vms_parked: 0,
            cluster: Cluster::with_jobs(hosts, PowerState::Off, trace.into_shared_jobs()),
        }
    }

    /// Checks, once the whole state is decoded, every id it holds: each
    /// `VmId` lies below the admitted count, each `HostId` below the host
    /// count (which the header, the cluster and the crash counts agree
    /// on) and each rack below the rack count, so no handler indexes past
    /// a table. A `VmId` of a finished VM stays legal: the stale-event
    /// guards answer it through `vm_state`. A run that has not started
    /// must also be the t = 0 world, and every instant must sit on its
    /// side of the clock.
    fn check_ids(&mut self, hosts: usize) -> Result<(), PersistError> {
        let vms = self.cluster.num_vms();
        let corrupt = |what: String| Err(PersistError::Corrupt(what));
        let (cluster, crashes) = (self.cluster.num_hosts(), self.crash_counts.len());
        if (cluster, crashes) != (hosts, hosts) {
            return corrupt(format!(
                "header names {hosts} hosts, the cluster {cluster}, the crash counts {crashes}"
            ));
        }
        if self.seq0 > self.queue.next_handle() {
            return corrupt(format!(
                "arrival handle {:?} beyond the queue's next handle {:?}",
                self.seq0,
                self.queue.next_handle()
            ));
        }
        let racks = self.faults.num_racks();
        if let Some(e) = self
            .queue
            .payloads()
            .find(|e| !e.in_range(vms, hosts, racks))
        {
            return corrupt(format!("pending {e:?} names an id out of range"));
        }
        let completion = self.completion.iter().map(|(vm, _)| vm);
        let mut vm_keys = completion
            .chain(self.displaced_at.iter().map(|(vm, _)| vm))
            .chain(self.retry.keys().copied())
            .chain(self.parked.keys().copied());
        if let Some(vm) = vm_keys.find(|vm| vm.index() >= vms) {
            return corrupt(format!("{vm} keyed, but only {vms} VMs admitted"));
        }
        let mut timers = self.failure_timer.iter().chain(self.slowdown_timer.iter());
        if let Some((h, _)) = timers.find(|(h, _)| h.index() >= hosts) {
            return corrupt(format!("fault timer on {h}, but only {hosts} hosts"));
        }
        // `Runner::start` arms a run that has not started, booting its
        // hosts and scheduling its timers, so that run must be the world
        // `RunState::new` builds: handle 0 is the first a queue hands out.
        if !self.started
            && (self.now != SimTime::ZERO
                || !self.queue.is_empty()
                || self.queue.next_handle() != EventQueue::<Event>::new().next_handle()
                || vms != 0
                || self
                    .cluster
                    .hosts()
                    .iter()
                    .any(|h| h.power != PowerState::Off))
        {
            return corrupt("a run that has not started holds a mid-run world".into());
        }
        // Handlers integrate from the instants the state was last brought
        // up to to the next event's, so no pending event may lie before
        // the clock and no stamp after it.
        let now = self.now;
        if let Some((at, _)) = self.queue.peek().filter(|&(at, _)| at < now) {
            return corrupt(format!("event pending at {at}, before the clock {now}"));
        }
        let tracked =
            [&self.power_tw, &self.working_tw, &self.online_tw].map(|tw| tw.last_change());
        let series = self.power_series.points().last().map(|p| p.at);
        let progress = self.cluster.live_vms().map(|v| v.last_update);
        let mut stamps = tracked.into_iter().chain(series).chain(progress);
        if let Some(at) = stamps.find(|&at| at > now) {
            return corrupt(format!("state stamped {at}, after the clock {now}"));
        }
        Ok(())
    }

    /// Checks the fingerprint against the world a restore is handed.
    fn check_world(&self, hosts: usize, trace_digest: u64, seed: u64) -> Result<(), PersistError> {
        let (n, digest) = (self.cluster.num_hosts(), self.trace_digest);
        if (n, digest, self.seed) == (hosts, trace_digest, seed) {
            return Ok(());
        }
        Err(PersistError::Corrupt(format!(
            "snapshot taken over {n} hosts, trace digest {digest:#x}, seed {:#x}; \
             run built with {hosts} hosts, trace digest {trace_digest:#x}, seed {seed:#x}",
            self.seed
        )))
    }

    // ----- execution bookkeeping --------------------------------------------

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
        if let Some(handle) = self.failure_timer.remove(h) {
            self.queue.cancel(handle);
        }
        if let Some(handle) = self.slowdown_timer.remove(h) {
            self.queue.cancel(handle);
        }
        if self.cluster.host(h).cpu_factor != 1.0 {
            self.cluster.set_cpu_factor(h, 1.0);
        }
    }

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
        if let Some(handle) = self.completion.remove(vm) {
            self.queue.cancel(handle);
        }
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

    fn finished(&self) -> bool {
        self.cluster.num_finished() == self.cluster.jobs().len()
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
        let state = RunState::new(hosts, trace, &cfg);
        Self::wire(state, policy, cfg, model)
    }

    /// Wires `state` to the policy, config and power model that drive it.
    fn wire(
        state: RunState,
        policy: Box<dyn Policy>,
        cfg: RunConfig,
        model: Box<dyn PowerModel>,
    ) -> Self {
        let obs = cfg.obs.clone();
        Runner {
            draws: vec![0.0; state.cluster.num_hosts()],
            state,
            label: policy.name(),
            policy,
            cfg,
            model,
            power_scratch: Vec::new(),
            sla_scratch: Vec::new(),
            queue_hist: obs.histogram("queue_len", &[1.0, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0]),
            retry_hist: obs.histogram("retry_backoff_depth", &[1.0, 2.0, 3.0, 4.0, 6.0, 10.0]),
            obs,
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
            self.state.audit.push(AuditEvent { at, kind });
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
        self.state.now
    }

    /// Progress of the run so far — a cheap read a driver can poll
    /// between batches (e.g. a sweep worker heartbeating its
    /// supervisor).
    pub fn progress(&self) -> RunProgress {
        RunProgress {
            now: self.state.now,
            horizon: self.hard_cap(),
            jobs_done: self.state.cluster.num_finished(),
            jobs_total: self.state.cluster.jobs().len(),
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
        self.state.vms_parked
    }

    /// The simulation horizon: the run drains for at most
    /// `cfg.drain_limit` past the last arrival. Derived state — recomputed
    /// from the trace on restore, never serialized.
    fn hard_cap(&self) -> SimTime {
        let last = self.state.cluster.jobs().last();
        last.map_or(SimTime::ZERO, |j| j.submit) + self.cfg.drain_limit
    }

    /// Arms the t = 0 world: initial power-on, the arrivals' place in the
    /// event order (`seq0`) and the periodic timers. Idempotent — a
    /// restored runner skips it.
    fn start(&mut self) {
        let s = &mut self.state;
        if s.started {
            return;
        }
        s.started = true;

        // Bring up the initial node set instantaneously at t = 0 — the
        // datacenter does not cold-boot in front of the workload. The
        // policy picks which nodes (§III-C: by reliability, boot time, …).
        let initial = self.cfg.initial_on.min(s.cluster.num_hosts());
        let all: Vec<HostId> = (0..s.cluster.num_hosts())
            .map(|i| HostId(i as u32))
            .collect();
        let ranked = self.policy.rank_power_on(&s.cluster, &all);
        for &h in ranked.iter().take(initial) {
            s.cluster.begin_power_on(h, SimTime::ZERO);
            s.cluster.complete_power_on(h);
            s.arm_failure(h);
            s.arm_slowdown(h);
        }
        // Rack-outage timers run for the whole simulation: an outage can
        // strike whatever happens to be powered when it fires.
        for r in 0..s.faults.num_racks() {
            if let Some(dt) = s.faults.time_to_rack_outage(r) {
                s.schedule_after(dt, Event::RackOutage(r));
            }
        }

        s.seq0 = s.queue.next_handle();
        s.schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
        if let Some(p) = self.cfg.consolidation_period {
            s.schedule_after(p, Event::ConsolidationTick);
        }
        s.lambda_min = self.cfg.lambda_min;
        if let Some(al) = &self.cfg.adaptive_lambda {
            let (lo, hi) = al.lambda_min_bounds;
            s.lambda_min = s.lambda_min.clamp(lo, hi);
            s.schedule_after(al.adjust_period, Event::LambdaAdjust);
        }
        if let Some(p) = self.cfg.checkpoint_period {
            s.schedule_after(p, Event::CheckpointTick);
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
        if self.state.started && self.state.finished() {
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
        self.state.cluster.clear_dirty();
        !self.state.finished()
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
        let s = &mut self.state;
        let next_job = s.cluster.jobs().get(s.cluster.num_vms());
        let arrival = next_job.map(|job| (job.submit, s.seq0));
        let top = s.queue.peek();
        match (arrival, top) {
            (Some(key @ (at, _)), _) if top.is_none_or(|top| key <= top) => {
                if !fires(at) {
                    return None;
                }
                s.now = at;
                let vm = s.cluster.admit_next();
                self.note(at, AuditKind::JobArrived { vm });
                Some((at, Some(ScheduleReason::VmArrived)))
            }
            (_, Some((at, _))) if fires(at) => {
                let (at, _, event) = s.queue.pop()?;
                s.now = at;
                Some((at, self.handle(at, event)))
            }
            _ => None,
        }
    }

    /// Closes the books after the last [`Runner::step_batch`] and returns
    /// the report plus the audit log.
    pub fn finish(self) -> (RunReport, Vec<AuditEvent>) {
        let mut s = self.state;
        let end = s.now;
        // One last deep structural pass before the books close.
        if s.auditor.enabled() {
            if let Err(msg) = s.cluster.verify() {
                s.auditor.report(end, msg);
            }
        }
        // Finished jobs in completion order, then the jobs still in
        // flight at the horizon, in id order.
        let finished = s.cluster.finished_vms().map(|f| f.id);
        let live = s.cluster.live_vms().map(|v| v.id);
        let jobs: Vec<JobOutcome> = finished.chain(live).map(|vm| s.outcome_of(vm)).collect();

        let mut report = RunReport::empty(self.label);
        report.avg_working_nodes = s.working_tw.mean(end);
        report.avg_online_nodes = s.online_tw.mean(end);
        report.energy_kwh = s.power_tw.integral(end) / 3600.0 / 1000.0;
        report.migrations = s.migrations;
        report.creations = s.creations;
        report.host_failures = s.host_failures;
        report.vms_displaced = s.vms_displaced;
        s.fstats.mean_recovery_secs = s.recovery_total_secs / s.fstats.recoveries.max(1) as f64;
        s.fstats.invariant_checks = s.auditor.checks();
        s.fstats.invariant_violations = s.auditor.violations();
        report.faults = s.fstats;
        report.power_watts = s.power_series;
        report.jobs = jobs;
        report.finalize_jobs();
        (report, s.audit)
    }

    // ----- snapshot / restore ----------------------------------------------

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
        let finished = FinishedVm::ENCODED_LEN * self.state.cluster.num_finished();
        let mut w = Writer::with_capacity(finished + LIVE_SNAPSHOT_BYTES);
        write_header(&mut w);
        self.state.persist(&mut w);
        // Policy-private state rides in a length-prefixed block so the
        // outer layout stays policy-agnostic.
        w.put_block(|w| self.policy.persist_state(w));
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

    /// As [`Runner::restore`] with an explicit power model. The state is
    /// decoded in place; only the host count of `hosts` is read.
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
        let mut state = RunState::restore(&mut r)?;
        state.check_world(hosts.len(), trace.digest(), cfg.seed)?;
        state.cluster.attach_jobs(trace.into_shared_jobs())?;
        let mut runner = Self::wire(state, policy, cfg, model);
        let mut block = r.get_block()?;
        runner.policy.restore_state(&mut block)?;
        block.finish()?;
        r.finish()?;
        Ok(runner)
    }

    // ----- event handling --------------------------------------------------

    /// Handles one event; returns the scheduling-round reason it raises.
    fn handle(&mut self, now: SimTime, event: Event) -> Option<ScheduleReason> {
        match event {
            Event::CreationDone(vm, seq) => {
                let VmState::Creating { host } = self.state.cluster.vm_state(vm) else {
                    return None; // host failed mid-creation; VM re-queued
                };
                // Guard against a *stale* event: if the original creation
                // was aborted by a host failure and the VM is now being
                // re-created elsewhere, only the event carrying the live
                // operation's sequence number may complete it.
                if !self.state.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.state.cluster.finish_creation(vm, now);
                self.note(now, AuditKind::VmStarted { vm, host });
                self.state.retry.remove(&vm);
                self.record_recovery(vm, now);
                self.state.touch(host, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::VmFinished)
            }
            Event::MigrationDone(vm, seq) => {
                let VmState::Migrating { from, to } = self.state.cluster.vm_state(vm) else {
                    return None; // an endpoint failed mid-migration
                };
                // Stale-event guard (see CreationDone).
                if !self.state.cluster.op_is_live(vm, seq) {
                    return None;
                }
                // Progress accrued on the source up to this instant.
                self.state.cluster.touch_host(from, now);
                self.state.cluster.finish_migration(vm, now);
                self.note(now, AuditKind::MigrationFinished { vm, from, to });
                self.state.retry.remove(&vm);
                self.state.touch(from, now);
                self.state.touch(to, now);
                self.complete_if_done(vm, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CheckpointDone(vm, seq) => {
                let VmState::Checkpointing { host } = self.state.cluster.vm_state(vm) else {
                    return None;
                };
                if !self.state.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.state.cluster.finish_checkpoint(vm, now);
                self.note(now, AuditKind::CheckpointTaken { vm });
                self.state.touch(host, now);
                self.complete_if_done(vm, now);
                None
            }
            Event::JobCompletion(vm) => {
                self.state.completion.remove(vm);
                let VmState::Running { host } = self.state.cluster.vm_state(vm) else {
                    // Migrating/checkpointing: their completion handlers
                    // re-check; a queued VM (failure) restarts later.
                    return None;
                };
                self.state.cluster.touch_host(host, now);
                if self.complete_if_done(vm, now) {
                    Some(ScheduleReason::VmFinished)
                } else {
                    // Allocation changed since this event was scheduled;
                    // refresh the projection.
                    self.state.refresh_completion(vm, now);
                    None
                }
            }
            Event::BootDone(h) => {
                if matches!(self.state.cluster.host(h).power, PowerState::Booting { .. }) {
                    if self.state.faults.boot_fails(h.raw() as usize) {
                        let mttr = self.state.faults.plan().mttr;
                        self.fail_boot(h, now, mttr);
                    } else {
                        self.state.cluster.complete_power_on(h);
                        self.note(now, AuditKind::HostOn { host: h });
                        self.state.arm_failure(h);
                        self.state.arm_slowdown(h);
                    }
                    Some(ScheduleReason::HostStateChanged)
                } else {
                    None
                }
            }
            Event::ShutdownDone(h) => {
                if matches!(
                    self.state.cluster.host(h).power,
                    PowerState::ShuttingDown { .. }
                ) {
                    self.state.cluster.complete_power_off(h);
                    self.note(now, AuditKind::HostOff { host: h });
                }
                None
            }
            Event::HostFailure(h) => {
                self.state.failure_timer.remove(h);
                if self.state.cluster.host(h).power != PowerState::On {
                    return None;
                }
                let mttr = self.state.faults.plan().mttr;
                self.crash_host(h, now, mttr);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::HostRepaired(h) => {
                self.state.cluster.repair_host(h);
                self.note(now, AuditKind::HostRepaired { host: h });
                // In degrade mode a repair wipes the host's flapping
                // record: the blacklist lifts and the crash count resets
                // (so renewed flapping can re-blacklist it), which in turn
                // may let parked VMs back in.
                if self.cfg.park_after.is_some() && self.state.cluster.is_blacklisted(h) {
                    self.state.cluster.blacklist(h, 0.0);
                    self.state.crash_counts[h.raw() as usize] = 0;
                    self.note(now, AuditKind::BlacklistCleared { host: h });
                }
                let _ = self.try_release_parked(now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::CreationAborted(vm, seq) => {
                let VmState::Creating { host } = self.state.cluster.vm_state(vm) else {
                    return None; // the host failed first; already re-queued
                };
                // Stale-event guard: only the abort belonging to the live
                // operation (matching sequence number) may kill it.
                if !self.state.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.state.cluster.abort_creation(vm, now);
                self.note(now, AuditKind::CreationFailed { vm, host });
                self.state.fstats.creation_failures += 1;
                // The recovery clock starts at the first failure and runs
                // until the VM finally comes up somewhere.
                self.state.displaced_at.insert_if_absent(vm, now);
                self.apply_backoff(vm, now);
                self.state.touch(host, now);
                Some(ScheduleReason::VmArrived)
            }
            Event::MigrationAborted(vm, seq) => {
                let VmState::Migrating { from, to } = self.state.cluster.vm_state(vm) else {
                    return None; // an endpoint failed first
                };
                if !self.state.cluster.op_is_live(vm, seq) {
                    return None;
                }
                self.state.cluster.abort_migration(vm, now);
                self.note(now, AuditKind::MigrationAborted { vm, from, to });
                self.state.fstats.migration_aborts += 1;
                self.apply_backoff(vm, now);
                self.state.touch(from, now);
                self.state.touch(to, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::SlowdownStart(h) => {
                self.state.slowdown_timer.remove(h);
                if self.state.cluster.host(h).power != PowerState::On {
                    return None; // episode cancelled with the host
                }
                // Only scheduled with a slowdown plan.
                let sp = self.state.faults.plan().slowdown.as_ref()?;
                let (factor, duration) = (sp.factor, sp.duration);
                self.state.cluster.set_cpu_factor(h, factor);
                self.note(now, AuditKind::SlowdownStarted { host: h, factor });
                self.state.fstats.slowdown_episodes += 1;
                let handle = self.state.schedule_after(duration, Event::SlowdownEnd(h));
                self.state.slowdown_timer.insert(h, handle);
                self.state.touch(h, now);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::SlowdownEnd(h) => {
                self.state.slowdown_timer.remove(h);
                if self.state.cluster.host(h).power != PowerState::On {
                    return None;
                }
                self.state.cluster.set_cpu_factor(h, 1.0);
                self.note(now, AuditKind::SlowdownEnded { host: h });
                self.state.touch(h, now);
                self.state.arm_slowdown(h);
                Some(ScheduleReason::HostStateChanged)
            }
            Event::RackOutage(r) => {
                // Only scheduled with a rack plan.
                let rp = self.state.faults.plan().rack.as_ref()?;
                let (size, outage) = (rp.rack_size, rp.outage);
                let lo = r * size;
                let hi = (lo + size).min(self.state.cluster.num_hosts());
                let failed = (lo..hi)
                    .filter(|&i| self.state.cluster.host(HostId(i as u32)).power.is_online())
                    .count();
                self.state.fstats.rack_outages += 1;
                self.note(now, AuditKind::RackOutage { rack: r, failed });
                for i in lo..hi {
                    let h = HostId(i as u32);
                    match self.state.cluster.host(h).power {
                        PowerState::On => self.crash_host(h, now, outage),
                        // The boot is struck down with the rack.
                        PowerState::Booting { .. } => self.fail_boot(h, now, outage),
                        _ => {} // unpowered hosts are unaffected
                    }
                }
                // Re-arm: the rack can fail again later.
                if let Some(dt) = self.state.faults.time_to_rack_outage(r) {
                    self.state.schedule_after(dt, Event::RackOutage(r));
                }
                (failed > 0).then_some(ScheduleReason::HostStateChanged)
            }
            Event::RetryRelease(vm) => {
                // The backoff expired; if the VM is still waiting, give the
                // policy a chance to place it again.
                (self.state.cluster.vm_state(vm) == VmState::Queued)
                    .then_some(ScheduleReason::VmArrived)
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
                let s = &mut self.state;
                let mut violated = false;
                let mut running = std::mem::take(&mut self.sla_scratch);
                for i in 0..s.cluster.num_hosts() {
                    let host = HostId(i as u32);
                    running.clear();
                    running.extend(
                        s.cluster.host(host).resident.iter().copied().filter(|&vm| {
                            matches!(s.cluster.vm(vm).state, VmState::Running { .. })
                        }),
                    );
                    if running.is_empty() {
                        continue;
                    }
                    s.cluster.touch_host(host, now);
                    for &vm in &running {
                        if violated && !self.cfg.dynamic_sla {
                            break;
                        }
                        let (v, job) = (s.cluster.vm(vm), s.cluster.job(vm));
                        if v.sla_fulfillment(job, now) < 1.0 {
                            violated = true;
                            if self.cfg.dynamic_sla {
                                s.escalate_request(vm, host, now);
                            }
                        }
                    }
                }
                self.sla_scratch = running;
                if !s.finished() {
                    s.schedule_after(self.cfg.sla_check_period, Event::SlaCheck);
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
                let s = &mut self.state;
                if let (Some(p), false) = (self.cfg.consolidation_period, s.finished()) {
                    s.schedule_after(p, Event::ConsolidationTick);
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
                let s = &mut self.state;
                if s.sat_window.count() >= al.min_window_jobs {
                    if s.sat_window.mean() < al.target_satisfaction {
                        // SLAs slipping: keep more nodes on (less eager off).
                        s.lambda_min -= al.step;
                    } else {
                        // Comfortably above target: turn off more eagerly.
                        s.lambda_min += al.step;
                    }
                    let (lo, hi) = al.lambda_min_bounds;
                    s.lambda_min = s.lambda_min.clamp(lo, hi).min(self.cfg.lambda_max - 0.05);
                    s.sat_window = eards_metrics::Summary::new();
                    let lambda_min = s.lambda_min;
                    self.note(now, AuditKind::LambdaAdjusted { lambda_min });
                }
                if !self.state.finished() {
                    self.state
                        .schedule_after(al.adjust_period, Event::LambdaAdjust);
                }
                None
            }
            Event::CheckpointTick => {
                // Id order: checkpoint op seqs and event seqs are handed
                // out in this loop.
                let s = &mut self.state;
                let mut eligible: Vec<(VmId, HostId)> = s
                    .cluster
                    .hosts()
                    .iter()
                    .flat_map(|h| h.resident.iter().map(move |&vm| (vm, h.spec.id)))
                    .filter(|&(vm, _)| matches!(s.cluster.vm(vm).state, VmState::Running { .. }))
                    .collect();
                eligible.sort_unstable_by_key(|&(vm, _)| vm);
                for (vm, host) in eligible {
                    let ends = now + self.cfg.checkpoint_duration;
                    let seq = s.cluster.start_checkpoint(vm, now, ends);
                    s.schedule_at(ends, Event::CheckpointDone(vm, seq));
                    s.touch(host, now);
                }
                if let (Some(p), false) = (self.cfg.checkpoint_period, s.finished()) {
                    s.schedule_after(p, Event::CheckpointTick);
                }
                None
            }
        }
    }

    // ----- scheduling ------------------------------------------------------

    fn schedule_round(&mut self, now: SimTime, reason: ScheduleReason) {
        let _span = self.obs.span("schedule_round", now);
        self.obs
            .observe(self.queue_hist, self.state.cluster.queue().len() as f64);
        let ctx = ScheduleContext { now, reason };
        let actions = self.policy.schedule(&self.state.cluster, &ctx);
        for action in actions {
            match action {
                Action::Create { vm, host } => {
                    if self.state.cluster.vm_state(vm) != VmState::Queued
                        || !self.state.cluster.can_place_overcommitted(host, vm)
                    {
                        continue; // stale decision; the VM stays queued
                    }
                    // Retry gate: a VM whose last attempt failed waits out
                    // its backoff in the queue.
                    if let Some(r) = self.state.retry.get(&vm) {
                        if r.eligible > now {
                            continue;
                        }
                    }
                    // Parked VMs sit out admission entirely until the
                    // flapping blacklist clears (backpressure).
                    if self.state.parked.contains_key(&vm) {
                        continue;
                    }
                    let mean = self.state.cluster.host(host).spec.class.creation_cost();
                    let dur = self.state.op_duration(mean, self.cfg.creation_jitter_std);
                    let ends = now + dur;
                    // Doomed operations are drawn at start: they schedule
                    // their abort instead of their completion.
                    let doomed = self.state.faults.creation_fails(host.raw() as usize);
                    let seq = self.state.cluster.start_creation(vm, host, now, ends);
                    self.note(now, AuditKind::CreationStarted { vm, host });
                    let (at, event) = match doomed {
                        Some(frac) => (now + dur.mul_f64(frac), Event::CreationAborted(vm, seq)),
                        None => (ends, Event::CreationDone(vm, seq)),
                    };
                    self.state.schedule_at(at, event);
                    self.state.touch(host, now);
                    self.state.creations += 1;
                }
                Action::Migrate { vm, to } => {
                    let VmState::Running { host: from } = self.state.cluster.vm_state(vm) else {
                        continue;
                    };
                    if !self.policy.uses_migration()
                        || from == to
                        || !self.state.cluster.can_place_overcommitted(to, vm)
                    {
                        continue;
                    }
                    if let Some(r) = self.state.retry.get(&vm) {
                        if r.eligible > now {
                            continue; // backing off after an aborted attempt
                        }
                    }
                    // Migration cost is the destination's (§V: C_m by class).
                    let mean = self.state.cluster.host(to).spec.class.migration_cost();
                    let dur = self.state.op_duration(mean, self.cfg.migration_jitter_std);
                    let ends = now + dur;
                    let doomed = self.state.faults.migration_aborts(to.raw() as usize);
                    let seq = self.state.cluster.start_migration(vm, to, now, ends);
                    self.note(now, AuditKind::MigrationStarted { vm, from, to });
                    let (at, event) = match doomed {
                        Some(frac) => (now + dur.mul_f64(frac), Event::MigrationAborted(vm, seq)),
                        None => (ends, Event::MigrationDone(vm, seq)),
                    };
                    self.state.schedule_at(at, event);
                    self.state.touch(from, now);
                    self.state.touch(to, now);
                    self.state.migrations += 1;
                }
            }
        }
    }

    // ----- power management (§III-C) ----------------------------------------

    fn adjust_power(&mut self, now: SimTime) {
        let _span = self.obs.span("adjust_power", now);
        let mut candidates = std::mem::take(&mut self.power_scratch);
        // Turn on: working/online above λ_max, or unplaceable queue.
        loop {
            let online = self.state.cluster.online_count();
            let working = self.state.cluster.working_count();
            let ratio = if online == 0 {
                f64::INFINITY
            } else {
                working as f64 / online as f64
            };
            let queue_stuck = self.state.queue_stuck();
            if ratio <= self.cfg.lambda_max && !queue_stuck {
                break;
            }
            candidates.clear();
            candidates.extend(
                self.state
                    .cluster
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
                .rank_power_on(&self.state.cluster, &candidates)
                .first()
            else {
                break;
            };
            let ready_at = self.state.cluster.begin_power_on(pick, now);
            self.note(now, AuditKind::HostPoweringOn { host: pick });
            self.state.schedule_at(ready_at, Event::BootDone(pick));
            // A booting host counts as online, so the ratio falls and the
            // loop converges; the stuck-queue rule boots at most one.
            if queue_stuck && ratio <= self.cfg.lambda_max {
                break;
            }
        }

        // Turn off: working/online below λ_min (never below minexec).
        loop {
            let online = self.state.cluster.online_count();
            if online <= self.cfg.min_exec {
                break;
            }
            let working = self.state.cluster.working_count();
            let ratio = if online == 0 {
                break;
            } else {
                working as f64 / online as f64
            };
            if ratio >= self.state.lambda_min {
                break;
            }
            candidates.clear();
            candidates.extend(
                self.state
                    .cluster
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
                .rank_power_off(&self.state.cluster, now, &candidates)
                .first()
            else {
                break;
            };
            // Disarm crash/slowdown timers with the host: a failure must
            // never fire on a host that is no longer up.
            self.state.cancel_fault_timers(pick);
            let off_at = self.state.cluster.begin_power_off(pick, now);
            self.note(now, AuditKind::HostPoweringOff { host: pick });
            self.state.schedule_at(off_at, Event::ShutdownDone(pick));
        }
        self.power_scratch = candidates;
    }

    // ----- fault handling ---------------------------------------------------

    /// Fails a `Booting` host's boot — a boot fault, or a rack outage
    /// striking the host mid-boot — and schedules its repair. A booting
    /// host has no fault timers to cancel: they are armed only while a
    /// host is `On` (the auditor checks this every batch).
    fn fail_boot(&mut self, h: HostId, now: SimTime, repair_after: SimDuration) {
        self.state.cluster.fail_boot(h);
        self.note(now, AuditKind::BootFailed { host: h });
        self.state.fstats.boot_failures += 1;
        self.state
            .schedule_after(repair_after, Event::HostRepaired(h));
    }

    /// Crashes an `On` host: displaces its VMs back to the queue, counts
    /// it toward the flapping blacklist, and schedules the repair.
    fn crash_host(&mut self, h: HostId, now: SimTime, repair_after: SimDuration) {
        let _span = self.obs.span("crash_host", now);
        self.state.cancel_fault_timers(h);
        let displaced = self.state.cluster.fail_host(h, now);
        self.note(
            now,
            AuditKind::HostFailed {
                host: h,
                displaced: displaced.len(),
            },
        );
        self.state.vms_displaced += displaced.len() as u64;
        for vm in displaced {
            self.state.cancel_completion(vm);
            // A crash resets the retry ladder — the VM did nothing wrong —
            // but starts (or keeps) its recovery clock.
            self.state.retry.remove(&vm);
            self.state.displaced_at.insert_if_absent(vm, now);
        }
        self.state.host_failures += 1;
        let idx = h.raw() as usize;
        self.state.crash_counts[idx] += 1;
        let (after, penalty) = {
            let r = &self.state.faults.plan().recovery;
            (r.blacklist_after, r.blacklist_penalty)
        };
        if after > 0
            && self.state.crash_counts[idx] == after
            && !self.state.cluster.is_blacklisted(h)
        {
            self.state.cluster.blacklist(h, penalty);
            self.state.fstats.hosts_blacklisted += 1;
            self.note(
                now,
                AuditKind::HostBlacklisted {
                    host: h,
                    crashes: self.state.crash_counts[idx],
                },
            );
        }
        self.state
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
        let entry = self.state.retry.entry(vm).or_insert(RetryState {
            attempts: 0,
            eligible: now,
        });
        entry.attempts += 1;
        let attempts = entry.attempts;
        if self.cfg.park_after.is_some_and(|cap| attempts > cap)
            && self.state.cluster.vm(vm).state == VmState::Queued
        {
            self.state.retry.remove(&vm);
            self.state.parked.insert(vm, now);
            self.state.vms_parked += 1;
            let ctr = self.obs.counter("vms_parked");
            self.obs.inc(ctr, 1);
            self.note(now, AuditKind::VmParked { vm, attempts });
            return;
        }
        // Degrade mode caps backoff growth; legacy mode grows unbounded.
        let eff = attempts.min(self.cfg.park_after.unwrap_or(u32::MAX));
        let backoff = self.state.faults.plan().recovery.backoff(eff);
        entry.eligible = now + backoff;
        self.state.fstats.retries_delayed += 1;
        self.obs.observe(self.retry_hist, f64::from(attempts));
        self.state.schedule_after(backoff, Event::RetryRelease(vm));
    }

    /// Releases every parked VM back into admission once no host is
    /// blacklisted (the flapping that caused the pile-up has cleared).
    /// Deterministic: the parked map is a BTreeMap, so release order is
    /// VM-id order. No-op unless degrade mode parked anything.
    fn try_release_parked(&mut self, now: SimTime) -> Option<ScheduleReason> {
        if self.state.parked.is_empty() {
            return None;
        }
        let any_blacklisted = (0..self.state.cluster.num_hosts())
            .any(|i| self.state.cluster.is_blacklisted(HostId(i as u32)));
        if any_blacklisted {
            return None;
        }
        let released = std::mem::take(&mut self.state.parked);
        for &vm in released.keys() {
            self.note(now, AuditKind::VmUnparked { vm });
        }
        Some(ScheduleReason::VmArrived)
    }

    /// Closes a VM's recovery interval if one is open (it was displaced or
    /// its creation failed, and it just came up).
    fn record_recovery(&mut self, vm: VmId, now: SimTime) {
        if let Some(t0) = self.state.displaced_at.remove(vm) {
            let dt = now.saturating_since(t0).as_secs_f64();
            self.note(now, AuditKind::VmRecovered { vm });
            self.state.fstats.recoveries += 1;
            self.state.recovery_total_secs += dt;
            if dt > self.state.fstats.max_recovery_secs {
                self.state.fstats.max_recovery_secs = dt;
            }
        }
    }

    /// Runs the invariant auditor after an event batch, including the
    /// driver-side check that fault timers only target hosts that are up.
    fn audit_invariants(&mut self, now: SimTime) {
        let s = &mut self.state;
        if !s.auditor.enabled() {
            return;
        }
        let armed = s.failure_timer.iter().chain(s.slowdown_timer.iter());
        let down = armed
            .map(|(h, _)| h)
            .find(|&h| s.cluster.host(h).power != PowerState::On);
        if let Some(h) = down {
            let power = s.cluster.host(h).power;
            s.auditor
                .report(now, format!("fault timer armed on {h} in state {power:?}"));
        }
        // No VM is ever lost to backpressure: every parked VM is still
        // queued (so conservation holds) and off the retry ladder.
        let stray = s
            .parked
            .keys()
            .copied()
            .find(|&vm| s.cluster.vm(vm).state != VmState::Queued || s.retry.contains_key(&vm));
        if let Some(vm) = stray {
            let msg = match s.cluster.vm(vm).state {
                VmState::Queued => format!("parked {vm} still on the retry ladder"),
                state => format!("parked {vm} in state {state:?}, expected Queued"),
            };
            s.auditor.report(now, msg);
        }
        let finished = s.cluster.num_finished() as u64;
        if s.auditor.check(&s.cluster, finished, now) {
            if let Err(msg) = self.verify_draws() {
                self.state.auditor.report(now, msg);
            }
        }
    }

    /// Compares every cached host draw with a fresh call to the power
    /// model, bit for bit.
    fn verify_draws(&self) -> Result<(), String> {
        for (i, &cached) in self.draws.iter().enumerate() {
            let h = HostId(i as u32);
            let fresh = self.state.cluster.host_power(h, self.model.as_ref());
            if cached.to_bits() != fresh.to_bits() {
                return Err(format!(
                    "{h} cached draw {cached} W disagrees with the model's {fresh} W"
                ));
            }
        }
        Ok(())
    }

    // ----- execution bookkeeping --------------------------------------------

    /// Completes the VM's job if its work is done. Returns true on
    /// completion.
    fn complete_if_done(&mut self, vm: VmId, now: SimTime) -> bool {
        let v = self.state.cluster.vm(vm);
        let VmState::Running { host } = v.state else {
            return false;
        };
        if !v.work_complete(self.state.cluster.job(vm)) {
            return false;
        }
        self.state.cancel_completion(vm);
        self.state.cluster.finish_vm(vm, now);
        let satisfaction = self.state.outcome_of(vm).satisfaction;
        self.note(now, AuditKind::JobCompleted { vm, satisfaction });
        self.state.sat_window.push(satisfaction);
        self.state.touch(host, now);
        true
    }

    // ----- metrics -----------------------------------------------------------

    /// Samples power and host counts at the current instant. Only the
    /// hosts changed since the last batch closed are re-drawn.
    fn record_metrics(&mut self) {
        let s = &mut self.state;
        let now = s.now;
        for &h in s.cluster.dirty_hosts() {
            self.draws[h.raw() as usize] = s.cluster.host_power(h, self.model.as_ref());
        }
        let power: f64 = self.draws.iter().sum();
        debug_assert_eq!(
            power.to_bits(),
            s.cluster.total_power(self.model.as_ref()).to_bits(),
            "cached draws sum to {power} W, a full recompute differs"
        );
        debug_assert_eq!(s.cluster.verify_counts(), Ok(()));
        s.power_tw.set(now, power);
        if self.cfg.record_power_series {
            s.power_series.record(now, power);
        }
        s.working_tw.set(now, s.cluster.working_count() as f64);
        s.online_tw.set(now, s.cluster.online_count() as f64);
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
            r.state.cluster.begin_power_on(h, SimTime::ZERO);
            r.state.cluster.complete_power_on(h);
        }
        r
    }

    /// Scheduling before the current instant is a causality violation and
    /// panics instead of corrupting the time-integrated statistics.
    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut r = runner_with_two_hosts();
        r.state.now = t(10);
        r.state.schedule_at(t(3), Event::SlaCheck);
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
        let vm = r.state.cluster.admit_next();
        let seq1 = r.state.cluster.start_creation(vm, HostId(0), t(0), t(60));
        // Host 0 dies mid-creation; the VM is displaced back to the queue.
        r.state.cluster.fail_host(HostId(0), t(10));
        // Re-created on host 1 with an identical end time.
        let seq2 = r.state.cluster.start_creation(vm, HostId(1), t(10), t(60));
        assert_ne!(seq1, seq2);
        // The pre-seq identity token (vm, kind, ends) *does* collide with
        // the live operation — the exact ambiguity this guard closes:
        assert!(
            r.state
                .cluster
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
        assert_eq!(r.state.cluster.vm(vm).state, on_1);
        // A stale completion with the dead sequence number is equally inert.
        assert!(r.handle(t(60), Event::CreationDone(vm, seq1)).is_none());
        assert_eq!(r.state.cluster.vm(vm).state, on_1);
        // The live completion goes through.
        assert!(r.handle(t(60), Event::CreationDone(vm, seq2)).is_some());
        assert_eq!(
            r.state.cluster.vm(vm).state,
            VmState::Running { host: HostId(1) }
        );
    }

    /// Same collision for migrations: the stale abort of a dead migration
    /// attempt must not tear down a re-issued migration that shares its
    /// end time.
    #[test]
    fn stale_migration_abort_is_ignored() {
        let mut r = runner_with_two_hosts();
        let vm = r.state.cluster.admit_next();
        let cseq = r.state.cluster.start_creation(vm, HostId(0), t(0), t(40));
        assert!(r.handle(t(40), Event::CreationDone(vm, cseq)).is_some());
        // First migration attempt to host 1, aborted cleanly at t = 50.
        let mseq1 = r
            .state
            .cluster
            .start_migration(vm, HostId(1), t(41), t(101));
        assert!(r
            .handle(t(50), Event::MigrationAborted(vm, mseq1))
            .is_some());
        assert_eq!(
            r.state.cluster.vm(vm).state,
            VmState::Running { host: HostId(0) }
        );
        // Second attempt with the same end time as the first.
        let mseq2 = r
            .state
            .cluster
            .start_migration(vm, HostId(1), t(51), t(101));
        assert_ne!(mseq1, mseq2);
        // The first attempt's completion event is still in flight under an
        // end-time token; with seq it is inert.
        assert!(r.handle(t(101), Event::MigrationDone(vm, mseq1)).is_none());
        assert!(matches!(
            r.state.cluster.vm(vm).state,
            VmState::Migrating { .. }
        ));
        assert!(r.handle(t(101), Event::MigrationDone(vm, mseq2)).is_some());
        assert_eq!(
            r.state.cluster.vm(vm).state,
            VmState::Running { host: HostId(1) }
        );
    }
}

/// Restore range-checks every id the decoded state holds: a pending
/// event, timer, retry, parking or displacement entry naming a VM, host or
/// rack past its table is `Corrupt`, not a later index panic.
#[cfg(test)]
mod restored_id_tests {
    use super::*;
    use eards_model::{Cpu, HostClass, Job, JobId, Mem};
    use eards_policies::RandomPolicy;

    fn world() -> (Vec<HostSpec>, Trace) {
        let hosts = (0..2)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect();
        let job = |id| {
            let len = SimDuration::from_secs(600);
            Job::new(JobId(id), SimTime::ZERO, Cpu(100), Mem::gib(1), len, 1.5)
        };
        (hosts, Trace::new(vec![job(0), job(1)]))
    }

    /// A started run with one of its two jobs admitted (so `VmId(0)` is in
    /// range and `VmId(1)` is not), armed by `arm`, snapshotted and
    /// restored.
    fn restored_after(arm: impl FnOnce(&mut RunState)) -> Result<Runner, PersistError> {
        let (hosts, trace) = world();
        let policy = || Box::new(RandomPolicy::new(1));
        let mut r = Runner::new(hosts, trace, policy(), RunConfig::default());
        r.state.started = true;
        r.state.cluster.admit_next();
        arm(&mut r.state);
        let bytes = r.snapshot().unwrap();
        let (hosts, trace) = world();
        Runner::restore(hosts, trace, policy(), RunConfig::default(), &bytes)
    }

    fn assert_corrupt(arm: impl FnOnce(&mut RunState), what: &str) {
        match restored_after(arm) {
            Err(PersistError::Corrupt(_)) => {}
            Err(e) => panic!("{what}: expected a Corrupt error, got {e:?}"),
            Ok(_) => panic!("{what}: restored with an id out of range"),
        }
    }

    /// A column writes the key-sorted pair list a `Vec` of its entries
    /// writes and restores from it; keys out of order are corrupt.
    #[test]
    fn column_persists_as_sorted_pairs() {
        let mut c: Column<VmId, u64> = Column::EMPTY;
        c.insert(VmId(5), 50);
        c.insert(VmId(2), 20);
        c.insert(VmId(9), 90);
        c.insert_if_absent(VmId(2), 21);
        assert_eq!(c.remove(VmId(9)), Some(90));
        assert_eq!(c.remove(VmId(12)), None);
        let pairs: Vec<(VmId, u64)> = c.iter().collect();
        assert_eq!(pairs, [(VmId(2), 20), (VmId(5), 50)]);
        let bytes = |p: &dyn Fn(&mut Writer)| {
            let mut w = Writer::new();
            p(&mut w);
            w.put_u64(0); // room for the keys
            w.into_bytes().unwrap()
        };
        let column = bytes(&|w| c.persist(w));
        assert_eq!(column, bytes(&|w| pairs.persist(w)));
        let back = Column::<VmId, u64>::restore(&mut Reader::new(&column)).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), pairs);
        let backwards = bytes(&|w| vec![(VmId(5), 1u64), (VmId(2), 2)].persist(w));
        let err = Column::<VmId, u64>::restore(&mut Reader::new(&backwards)).err();
        assert!(matches!(err, Some(PersistError::Corrupt(_))), "{err:?}");
    }

    #[test]
    fn in_range_ids_restore() {
        let arm = |s: &mut RunState| {
            s.queue
                .schedule(SimTime::ZERO, Event::JobCompletion(VmId(0)));
            s.queue
                .schedule(SimTime::ZERO, Event::HostFailure(HostId(1)));
            s.completion.insert(VmId(0), s.queue.next_handle());
            s.slowdown_timer.insert(HostId(1), s.queue.next_handle());
        };
        assert!(restored_after(arm).is_ok());
    }

    #[test]
    fn pending_events_naming_absent_vms_hosts_or_racks_are_corrupt() {
        let events = [
            Event::CreationDone(VmId(1), 0),
            Event::JobCompletion(VmId(1)),
            Event::MigrationAborted(VmId(u64::MAX), 0),
            Event::RetryRelease(VmId(1)),
            Event::BootDone(HostId(2)),
            Event::HostRepaired(HostId(u32::MAX)),
            Event::SlowdownEnd(HostId(2)),
            // Faults are off, so the run has no racks at all.
            Event::RackOutage(0),
        ];
        for event in events {
            let arm = |s: &mut RunState| {
                s.queue.schedule(SimTime::ZERO, event);
            };
            assert_corrupt(arm, &format!("{event:?}"));
        }
    }

    #[test]
    fn column_and_map_entries_naming_absent_vms_or_hosts_are_corrupt() {
        let at = SimTime::ZERO;
        let h = |s: &RunState| s.queue.next_handle();
        assert_corrupt(|s| s.completion.insert(VmId(1), h(s)), "completion");
        assert_corrupt(|s| s.displaced_at.insert(VmId(1), at), "displaced_at");
        let backoff = RetryState {
            attempts: 1,
            eligible: at,
        };
        assert_corrupt(|s| _ = s.retry.insert(VmId(1), backoff), "retry");
        assert_corrupt(|s| _ = s.parked.insert(VmId(1), at), "parked");
        assert_corrupt(|s| s.failure_timer.insert(HostId(2), h(s)), "failure");
        assert_corrupt(|s| s.slowdown_timer.insert(HostId(2), h(s)), "slowdown");
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
        r.state.cluster.begin_power_on(HostId(0), SimTime::ZERO);
        r.state.cluster.complete_power_on(HostId(0));
        let vms: Vec<VmId> = (0..n).map(|_| r.state.cluster.admit_next()).collect();
        for &vm in &vms {
            r.state.cluster.start_creation(vm, HostId(0), t(0), t(40));
        }
        for &vm in &vms {
            r.state.cluster.finish_creation(vm, t(40));
        }
        r.state.now = t(40);
        r.state.touch(HostId(0), t(40));
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
            r.state.now = at;
            r.state.cluster.touch_host(HostId(0), at);
            for &vm in &vms {
                let (v, job) = (r.state.cluster.vm(vm), r.state.cluster.job(vm));
                assert!(v.sla_fulfillment(job, at) < 1.0, "{vm} must be late");
                assert!(v.alloc < job.cpu.as_f64(), "{vm} must be starved");
            }
            let reason = r.handle(at, Event::SlaCheck);
            assert_eq!(reason, Some(ScheduleReason::SlaViolation));
            for &vm in &vms {
                let escalated = r.state.cluster.vm(vm).requested.cpu > Cpu(200);
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
            r.state.touch(HostId(0), t(s));
        }
        while r.state.queue.pop().is_some() {}
        r.state.touch(HostId(0), t(44));
        let n = counting::allocations(|| r.state.touch(HostId(0), t(45)));
        assert_eq!(n, 0, "a steady-state touch allocated {n} times");
        let n = counting::allocations(|| r.state.cluster.reallocate_host(HostId(0), t(46)));
        assert_eq!(n, 0, "a steady-state reallocation allocated {n} times");
        // The counter sees this thread's allocations.
        assert_eq!(counting::allocations(|| drop(vec![0u8; 8])), 1);
    }
}
