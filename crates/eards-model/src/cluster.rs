//! The datacenter world state: hosts, VMs, placements, in-flight
//! operations, and the CPU/power accounting over them.
//!
//! `Cluster` is the single source of truth the driver mutates and the
//! scheduling policies read. All state transitions assert their
//! preconditions — an illegal transition is a simulator bug, not a
//! recoverable condition.

use std::sync::Arc;

use eards_sim::{Persist, PersistError, Reader, SimTime, Writer};

use crate::host::{HostSpec, InFlightOp, OpKind, PowerState};
use crate::ids::{HostId, VmId};
use crate::job::Job;
use crate::power::PowerModel;
use crate::units::{Cpu, Mem, Resources};
use crate::vm::{FinishedVm, Vm, VmState};
use crate::vm_table::VmTable;
use crate::xen::{self, CpuContender};

/// CPU consumed on a host by one in-flight VM creation (dom0 image
/// unpacking and domain construction), in percent points.
pub const CREATION_CPU_OVERHEAD: Cpu = Cpu(50);
/// CPU consumed on *each* endpoint by one in-flight live migration
/// (iterative page copying saturates a core on both sides), in percent
/// points.
pub const MIGRATION_CPU_OVERHEAD: Cpu = Cpu(100);
/// CPU consumed by a checkpoint write.
pub const CHECKPOINT_CPU_OVERHEAD: Cpu = Cpu(25);

/// Runtime state of one physical host.
#[derive(Debug, Clone)]
pub struct Host {
    /// Static description.
    pub spec: HostSpec,
    /// Current power state.
    pub power: PowerState,
    /// VMs whose resources this host accounts and whose execution it
    /// carries (includes VMs migrating *out*, which still run here).
    pub resident: Vec<VmId>,
    /// VMs migrating *in*: their resources are reserved here but they
    /// still execute on the source.
    pub incoming: Vec<VmId>,
    /// In-flight virtualization operations touching this host.
    pub ops: Vec<InFlightOp>,
    /// Effective-capacity multiplier in `(0, 1]`; below 1 during a
    /// transient slowdown episode (thermal throttling, noisy dom0).
    pub cpu_factor: f64,
    /// Reliability penalty applied on top of the spec reliability while
    /// the host is blacklisted as flapping; 0 otherwise.
    pub reliability_penalty: f64,
}

impl Host {
    fn new(spec: HostSpec, power: PowerState) -> Self {
        Host {
            spec,
            power,
            resident: Vec::new(),
            incoming: Vec::new(),
            ops: Vec::new(),
            cpu_factor: 1.0,
            reliability_penalty: 0.0,
        }
    }

    /// Total CPU burned by in-flight operations on this host.
    pub fn op_cpu_overhead(&self) -> Cpu {
        self.ops.iter().map(|o| o.cpu_overhead).sum()
    }

    /// True if the host carries no VMs at all (candidates for power-off).
    pub fn is_idle(&self) -> bool {
        self.resident.is_empty() && self.incoming.is_empty() && self.ops.is_empty()
    }

    /// True if the host is *working* in the paper's sense (§V): executing
    /// at least one VM (or committed to one via an in-flight operation).
    pub fn is_working(&self) -> bool {
        !self.resident.is_empty() || !self.incoming.is_empty()
    }
}

/// The mutable datacenter state.
///
/// ```
/// use eards_model::*;
/// use eards_sim::{SimDuration, SimTime};
///
/// // Two 4-way nodes; a job arrives, is created on host 0, runs, finishes.
/// let specs = vec![
///     HostSpec::standard(HostId(0), HostClass::Medium),
///     HostSpec::standard(HostId(1), HostClass::Fast),
/// ];
/// let mut cluster = Cluster::new(specs, PowerState::On);
/// let job = Job::new(
///     JobId(0), SimTime::ZERO, Cpu(200), Mem::gib(2),
///     SimDuration::from_secs(600), 1.5,
/// );
/// let vm = cluster.submit_job(job);
/// assert_eq!(cluster.queue(), &[vm]);
///
/// cluster.start_creation(vm, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
/// cluster.finish_creation(vm, SimTime::from_secs(40));
/// cluster.reallocate_host(HostId(0), SimTime::from_secs(40));
/// assert_eq!(cluster.vm(vm).alloc, 200.0);
/// assert_eq!(cluster.occupation(HostId(0)), 0.5);
///
/// cluster.finish_vm(vm, SimTime::from_secs(640));
/// assert!(cluster.host(HostId(0)).is_idle());
/// ```
pub struct Cluster {
    hosts: Vec<Host>,
    /// The job table: job `n` is the one `VmId(n)` runs. It holds the
    /// whole trace from the start, ahead of the admitted VMs (see
    /// [`Cluster::admit_next`]). Shared with the trace it came from, so
    /// building a cluster, or a runner restoring onto it, copies no job.
    // lint:allow(SNAP001): trace data; the runner hands it back on restore (Cluster::attach_jobs)
    jobs: Arc<Vec<Job>>,
    /// Every VM ever admitted, indexed by [`VmId`]: the live ones in
    /// full, the finished ones as records in completion order. The next
    /// id is `vms.len()`.
    vms: VmTable,
    /// Per-host committed resources (the requested bundles of resident
    /// plus incoming VMs), indexed by [`HostId`]. Every transition that
    /// changes residency or a request updates it; [`Cluster::verify`]
    /// recomputes it from the residency lists.
    // lint:allow(SNAP001): derived from the residency lists; rebuilt on restore
    committed: Vec<Resources>,
    /// The paper's *virtual host* (§III-A): VMs awaiting allocation, in
    /// arrival order. Holds new arrivals and VMs displaced by failures.
    queue: Vec<VmId>,
    /// Monotonic identity for in-flight operations. Timestamps cannot
    /// serve as identity: an abort scheduled for the same tick as a later
    /// operation's completion would collide on `ends`.
    next_op_seq: u64,
    /// Hosts changed since the last [`Cluster::clear_dirty`], each once,
    /// in the order they were first touched (see [`Cluster::touched`]).
    // lint:allow(SNAP001): per-batch change set; restore marks every host dirty
    dirty: Vec<HostId>,
    /// Per-host flags behind `dirty` and the two cached counts, indexed
    /// by [`HostId`].
    // lint:allow(SNAP001): derived from the hosts; rebuilt on restore
    marks: Vec<HostMarks>,
    /// Hosts that are [`Host::is_working`]; [`Cluster::verify`] recounts.
    // lint:allow(SNAP001): derived from the hosts; rebuilt on restore
    working: usize,
    /// Hosts whose power state is online; [`Cluster::verify`] recounts.
    // lint:allow(SNAP001): derived from the hosts; rebuilt on restore
    online: usize,
    /// Working space of [`Cluster::reallocate_host`], kept so a
    /// reallocation allocates nothing once it has grown.
    // lint:allow(SNAP001): scratch buffers, emptied by every use; nothing carries over
    xen_scratch: XenScratch,
}

/// The buffers [`Cluster::reallocate_host`] hands the credit scheduler.
#[derive(Debug, Default)]
struct XenScratch {
    contenders: Vec<CpuContender>,
    alloc: Vec<f64>,
    active: Vec<usize>,
}

/// What [`Cluster::touched`] last recorded about one host.
#[derive(Debug, Clone, Copy, Default)]
struct HostMarks {
    dirty: bool,
    working: bool,
    online: bool,
}

impl Cluster {
    /// Builds a cluster with an empty job table ([`Cluster::submit_job`]
    /// fills it); every host starts in `initial_power`.
    pub fn new(specs: Vec<HostSpec>, initial_power: PowerState) -> Self {
        Self::with_jobs(specs, initial_power, Vec::new())
    }

    /// Builds a cluster over a whole job table, none of it admitted yet:
    /// [`Cluster::admit_next`] admits the jobs in table order. A shared
    /// table (`Arc`) is kept as it is, not copied.
    pub fn with_jobs(
        specs: Vec<HostSpec>,
        initial_power: PowerState,
        jobs: impl Into<Arc<Vec<Job>>>,
    ) -> Self {
        let jobs = jobs.into();
        for (i, s) in specs.iter().enumerate() {
            assert_eq!(
                s.id.raw() as usize,
                i,
                "host specs must be supplied in id order"
            );
        }
        let mut c = Cluster {
            committed: vec![Resources::ZERO; specs.len()],
            hosts: specs
                .into_iter()
                .map(|s| Host::new(s, initial_power))
                .collect(),
            jobs,
            vms: VmTable::default(),
            queue: Vec::new(),
            next_op_seq: 0,
            dirty: Vec::new(),
            marks: Vec::new(),
            working: 0,
            online: 0,
            xen_scratch: XenScratch::default(),
        };
        c.touch_all();
        c
    }

    /// Marks `host` dirty and refreshes its working and online flags and
    /// the cached counts. Every mutator ends by calling it for each host
    /// whose power state, residency, ops, committed resources, capacity
    /// factor or resident VMs' states and allocations it changed, so a
    /// host outside [`Cluster::dirty_hosts`] is exactly as it was at the
    /// last [`Cluster::clear_dirty`] (progress accrual aside).
    fn touched(&mut self, host: HostId) {
        let h = &self.hosts[host.raw() as usize];
        let (working, online) = (h.is_working(), h.power.is_online());
        let m = &mut self.marks[host.raw() as usize];
        if !m.dirty {
            m.dirty = true;
            self.dirty.push(host);
        }
        if m.working != working {
            m.working = working;
            if working {
                self.working += 1;
            } else {
                self.working -= 1;
            }
        }
        if m.online != online {
            m.online = online;
            if online {
                self.online += 1;
            } else {
                self.online -= 1;
            }
        }
    }

    /// Rebuilds the marks and counts from scratch, leaving every host
    /// dirty (construction and restore).
    fn touch_all(&mut self) {
        self.dirty.clear();
        self.marks = vec![HostMarks::default(); self.hosts.len()];
        (self.working, self.online) = (0, 0);
        for i in 0..self.hosts.len() {
            self.touched(HostId(i as u32));
        }
    }

    /// Hands out the next operation sequence number.
    fn alloc_op_seq(&mut self) -> u64 {
        let seq = self.next_op_seq;
        self.next_op_seq += 1;
        seq
    }

    /// Adds `r` to the committed cache of `host`.
    fn charge(&mut self, host: HostId, r: Resources) {
        let c = &mut self.committed[host.raw() as usize];
        *c = c.plus(r);
    }

    /// Removes `r` from the committed cache of `host`.
    fn release(&mut self, host: HostId, r: Resources) {
        let c = &mut self.committed[host.raw() as usize];
        c.cpu -= r.cpu;
        c.mem -= r.mem;
    }

    /// Committed resources of `host` recomputed from its residency lists —
    /// the value the cache must hold. Ids missing from the VM table count
    /// nothing ([`Cluster::verify`] reports them separately).
    fn fold_committed(&self, host: &Host) -> Resources {
        host.resident
            .iter()
            .chain(&host.incoming)
            .filter_map(|&id| self.vms.get(id))
            .fold(Resources::ZERO, |acc, v| acc.plus(v.requested))
    }

    // ----- read access ---------------------------------------------------

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// A host by id.
    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.raw() as usize]
    }

    /// All hosts in id order.
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// A live VM by id. Panics on a finished or unknown id: a finished
    /// VM is only a record ([`Cluster::finished_vm`]); ask
    /// [`Cluster::vm_state`] when the VM may have finished.
    #[inline]
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id]
    }

    /// The state of any admitted VM, [`VmState::Finished`] included: what
    /// a stale event asks of the VM it names. Panics on unknown ids.
    #[inline]
    pub fn vm_state(&self, id: VmId) -> VmState {
        self.vms.state(id)
    }

    /// The record of a finished VM; `None` while it is live.
    pub fn finished_vm(&self, id: VmId) -> Option<FinishedVm> {
        self.vms.finished_record(id)
    }

    /// The job `vm` runs. Panics on ids outside the job table.
    pub fn job(&self, vm: VmId) -> &Job {
        &self.jobs[vm.raw() as usize]
    }

    /// The job table, admitted or not, in table order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The live VMs (every admitted VM not yet finished), in id order.
    pub fn live_vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.iter_live()
    }

    /// The finished VMs, in completion order: the order a report lists
    /// their jobs in.
    pub fn finished_vms(&self) -> impl ExactSizeIterator<Item = FinishedVm> + '_ {
        self.vms.finished()
    }

    /// Number of finished VMs.
    pub fn num_finished(&self) -> usize {
        self.vms.finished().len()
    }

    /// Total VMs ever admitted (including finished ones).
    pub fn num_vms(&self) -> usize {
        self.vms.len()
    }

    /// The virtual-host queue, in arrival order.
    pub fn queue(&self) -> &[VmId] {
        &self.queue
    }

    /// True if `seq` names an in-flight operation of `vm`: the guard that
    /// keeps a stale completion or abort event (one whose operation was
    /// killed, maybe re-issued with the same end time) from acting on the
    /// VM's live operation. Sequence numbers are unique cluster-wide, so
    /// the number alone names the operation; the VM's state names the
    /// host holding it (a migration's destination).
    pub fn op_is_live(&self, vm: VmId, seq: u64) -> bool {
        let host = match self.vms.state(vm) {
            VmState::Creating { host }
            | VmState::Checkpointing { host }
            | VmState::Migrating { to: host, .. } => host,
            VmState::Queued | VmState::Running { .. } | VmState::Finished => return false,
        };
        self.hosts[host.raw() as usize]
            .ops
            .iter()
            .any(|o| o.vm == vm && o.seq == seq)
    }

    /// Number of hosts currently *working* (executing ≥ 1 VM). Cached,
    /// O(1).
    pub fn working_count(&self) -> usize {
        self.working
    }

    /// Number of hosts currently online (on or booting). Cached, O(1).
    pub fn online_count(&self) -> usize {
        self.online
    }

    /// The hosts changed since the last [`Cluster::clear_dirty`] (or since
    /// construction or restore, which mark every host), each once, in the
    /// order they were first changed.
    pub fn dirty_hosts(&self) -> &[HostId] {
        &self.dirty
    }

    /// Empties the dirty set. The driver calls it once per event batch,
    /// after everything that reads the set has run.
    pub fn clear_dirty(&mut self) {
        for h in self.dirty.drain(..) {
            self.marks[h.raw() as usize].dirty = false;
        }
    }

    /// Checks the cached working and online flags and counts against a
    /// recount over the hosts. O(hosts); part of [`Cluster::verify`].
    pub fn verify_counts(&self) -> Result<(), String> {
        for (h, m) in self.hosts.iter().zip(&self.marks) {
            if (m.working, m.online) != (h.is_working(), h.power.is_online()) {
                return Err(format!(
                    "{} cached working/online flags ({}, {}) are stale",
                    h.spec.id, m.working, m.online
                ));
            }
        }
        let working = self.hosts.iter().filter(|h| h.is_working()).count();
        let online = self.hosts.iter().filter(|h| h.power.is_online()).count();
        if (self.working, self.online) != (working, online) {
            return Err(format!(
                "cached counts {} working / {} online disagree with the hosts' \
                 {working} / {online}",
                self.working, self.online
            ));
        }
        Ok(())
    }

    /// Reliability of a host as the score engine should see it: the spec
    /// reliability minus any flapping-blacklist penalty. Equal to the raw
    /// spec value (bit-exact: `r − 0.0`) while the host is not
    /// blacklisted.
    pub fn effective_reliability(&self, host: HostId) -> f64 {
        let h = self.host(host);
        (h.spec.reliability - h.reliability_penalty).max(0.0)
    }

    /// True if the host currently carries a flapping-blacklist penalty.
    pub fn is_blacklisted(&self, host: HostId) -> bool {
        self.host(host).reliability_penalty > 0.0
    }

    // ----- resource accounting -------------------------------------------

    /// Resources committed on a host: requested bundles of resident plus
    /// incoming VMs. Read from the cache, O(1).
    pub fn committed(&self, host: HostId) -> Resources {
        self.committed[host.raw() as usize]
    }

    /// [`Cluster::committed`] for every host, indexed by [`HostId`].
    pub fn committed_by_host(&self) -> &[Resources] {
        &self.committed
    }

    /// Component-wise maximum free capacity (capacity minus committed,
    /// clamped at zero) over the hosts that are [`PowerState::On`], read
    /// from the committed cache. A request that does not fit inside it
    /// fits strictly (occupation ≤ 1) on no powered-on host: on each of
    /// them some component of committed plus request exceeds capacity.
    pub fn max_free_on(&self) -> Resources {
        self.hosts
            .iter()
            .zip(&self.committed)
            .filter(|(h, _)| h.power.is_ready())
            .fold(Resources::ZERO, |acc, (h, &c)| {
                acc.max(h.spec.capacity().saturating_sub(c))
            })
    }

    /// The paper's host occupation `O(h)`: utilization of the most used
    /// resource (§III-A.2).
    pub fn occupation(&self, host: HostId) -> f64 {
        self.committed(host)
            .occupation_in(self.host(host).spec.capacity())
    }

    /// Occupation the host would have after additionally hosting `vm`
    /// (`O(h, vm)`). If the VM is already accounted there, this is just the
    /// current occupation.
    pub fn occupation_with(&self, host: HostId, vm: VmId) -> f64 {
        let h = self.host(host);
        let already = h.resident.contains(&vm) || h.incoming.contains(&vm);
        let mut used = self.committed(host);
        if !already {
            used = used.plus(self.vm(vm).requested);
        }
        used.occupation_in(h.spec.capacity())
    }

    /// Strict placement feasibility: host ready, hardware/software
    /// requirements satisfied, and occupation after placement ≤ 1. This is
    /// the condition the paper's `P_res` penalty enforces (§III-A.2);
    /// consolidation-aware policies use it.
    pub fn can_place(&self, host: HostId, vm: VmId) -> bool {
        self.can_place_overcommitted(host, vm) && self.occupation_with(host, vm) <= 1.0
    }

    /// Relaxed placement feasibility: host ready, requirements satisfied,
    /// and *memory* fits. CPU may be overcommitted — Xen then time-shares
    /// it, slowing every VM on the host. The paper's naive baselines
    /// (Random, Round-Robin) place like this, which is precisely why they
    /// post 300–475% delays in Table II.
    pub fn can_place_overcommitted(&self, host: HostId, vm: VmId) -> bool {
        let h = self.host(host);
        h.power.is_ready()
            && h.spec.satisfies(&self.job(vm).requirements)
            && self.committed(host).mem + self.vm(vm).requested.mem <= h.spec.capacity().mem
    }

    /// CPU in use on a host: current VM allocations plus operation
    /// overheads. This is what the power model sees.
    pub fn cpu_used(&self, host: HostId) -> f64 {
        let h = self.host(host);
        let vm_cpu: f64 = h.resident.iter().map(|&id| self.vm(id).alloc).sum();
        vm_cpu + h.op_cpu_overhead().as_f64()
    }

    /// Instantaneous power draw of one host under `model`, in Watts.
    pub fn host_power(&self, host: HostId, model: &dyn PowerModel) -> f64 {
        let h = self.host(host);
        if !h.power.draws_power() {
            return 0.0;
        }
        model.power_watts(self.cpu_used(host), h.spec.cpu)
    }

    /// Instantaneous power draw of the whole datacenter, in Watts.
    pub fn total_power(&self, model: &dyn PowerModel) -> f64 {
        (0..self.hosts.len())
            .map(|i| self.host_power(HostId(i as u32), model))
            .sum()
    }

    // ----- job / VM lifecycle ---------------------------------------------

    /// Appends `job` to the job table and admits it. The table must hold
    /// no job still waiting for [`Cluster::admit_next`]. A table shared
    /// with another owner is copied first.
    pub fn submit_job(&mut self, job: Job) -> VmId {
        assert_eq!(self.jobs.len(), self.vms.len(), "unadmitted jobs");
        Arc::make_mut(&mut self.jobs).push(job);
        self.admit_next()
    }

    /// Admits the next job of the table: wraps job `n` in the queued
    /// `VmId(n)` on the virtual host.
    pub fn admit_next(&mut self) -> VmId {
        let id = VmId(self.vms.len() as u64);
        self.vms.push(Vm::queued(id, self.job(id)));
        self.queue.push(id);
        id
    }

    /// Raises a VM's requested CPU to `cpu` (the dynamic-SLA escalation of
    /// §III-A.5) and charges the increase to every host accounting the
    /// VM. Requests only grow: a `cpu` at or below the current request
    /// changes nothing.
    pub fn escalate_requested_cpu(&mut self, vm: VmId, cpu: Cpu) {
        let v = &mut self.vms[vm];
        let grown = cpu.saturating_sub(v.requested.cpu);
        v.requested.cpu += grown;
        let incoming_on = match v.state {
            VmState::Migrating { to, .. } => Some(to),
            _ => None,
        };
        let delta = Resources::new(grown, Mem::ZERO);
        for h in v.state.host().into_iter().chain(incoming_on) {
            self.charge(h, delta);
            self.touched(h);
        }
    }

    /// Starts creating `vm` on `host`. The VM leaves the queue; its
    /// resources are committed; a creation op burns CPU until `ends`.
    /// Returns the operation's sequence number, the token completion and
    /// abort events must present to prove they refer to *this* operation.
    pub fn start_creation(&mut self, vm: VmId, host: HostId, now: SimTime, ends: SimTime) -> u64 {
        assert!(
            self.can_place_overcommitted(host, vm),
            "start_creation on infeasible host (off, unsatisfied requirements, or out of memory)"
        );
        let seq = self.alloc_op_seq();
        let v = &mut self.vms[vm];
        assert_eq!(v.state, VmState::Queued, "only queued VMs can be created");
        v.state = VmState::Creating { host };
        v.last_update = now;
        let requested = v.requested;
        self.charge(host, requested);
        self.queue.retain(|&q| q != vm);
        let h = &mut self.hosts[host.raw() as usize];
        h.resident.push(vm);
        h.ops.push(InFlightOp {
            vm,
            kind: OpKind::Create,
            started: now,
            ends,
            cpu_overhead: CREATION_CPU_OVERHEAD,
            seq,
        });
        self.touched(host);
        seq
    }

    /// Completes a creation: the VM starts executing its job.
    pub fn finish_creation(&mut self, vm: VmId, now: SimTime) {
        let v = &mut self.vms[vm];
        let host = match v.state {
            VmState::Creating { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("finish_creation on VM in state {s:?}"),
        };
        v.state = VmState::Running { host };
        v.started_at = Some(now);
        v.last_update = now;
        self.hosts[host.raw() as usize]
            .ops
            .retain(|o| !(o.vm == vm && o.kind == OpKind::Create));
        self.touched(host);
    }

    /// Aborts an in-flight creation (dom0 failure): the VM returns to the
    /// virtual-host queue as if never placed, ready to be retried.
    pub fn abort_creation(&mut self, vm: VmId, now: SimTime) {
        let v = &mut self.vms[vm];
        let host = match v.state {
            VmState::Creating { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("abort_creation on VM in state {s:?}"),
        };
        v.state = VmState::Queued;
        v.alloc = 0.0;
        v.last_update = now;
        let requested = v.requested;
        self.release(host, requested);
        let h = &mut self.hosts[host.raw() as usize];
        h.resident.retain(|&r| r != vm);
        h.ops.retain(|o| !(o.vm == vm && o.kind == OpKind::Create));
        self.queue.push(vm);
        self.touched(host);
    }

    /// Starts a live migration of `vm` to `to`. Resources are reserved on
    /// the destination; the VM keeps running on the source; both endpoints
    /// pay a CPU overhead until `ends`. Returns the operation's sequence
    /// number (shared by the `MigrateIn`/`MigrateOut` pair — one logical
    /// operation, two bookkeeping entries).
    pub fn start_migration(&mut self, vm: VmId, to: HostId, now: SimTime, ends: SimTime) -> u64 {
        assert!(
            self.can_place_overcommitted(to, vm),
            "migration target must be on, satisfy requirements, and have memory"
        );
        let seq = self.alloc_op_seq();
        let v = &mut self.vms[vm];
        let from = match v.state {
            VmState::Running { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("start_migration on VM in state {s:?}"),
        };
        assert_ne!(from, to, "migration to the current host");
        v.state = VmState::Migrating { from, to };
        let requested = v.requested;
        self.charge(to, requested);
        self.hosts[to.raw() as usize].incoming.push(vm);
        self.hosts[to.raw() as usize].ops.push(InFlightOp {
            vm,
            kind: OpKind::MigrateIn { from },
            started: now,
            ends,
            cpu_overhead: MIGRATION_CPU_OVERHEAD,
            seq,
        });
        self.hosts[from.raw() as usize].ops.push(InFlightOp {
            vm,
            kind: OpKind::MigrateOut { to },
            started: now,
            ends,
            cpu_overhead: MIGRATION_CPU_OVERHEAD,
            seq,
        });
        self.touched(from);
        self.touched(to);
        seq
    }

    /// Completes a migration: the VM now runs on the destination.
    pub fn finish_migration(&mut self, vm: VmId, now: SimTime) {
        let v = &mut self.vms[vm];
        let (from, to) = match v.state {
            VmState::Migrating { from, to } => (from, to),
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("finish_migration on VM in state {s:?}"),
        };
        v.state = VmState::Running { host: to };
        v.migrations += 1;
        v.last_update = now;
        // The destination already holds the reservation.
        let requested = v.requested;
        self.release(from, requested);
        let fh = &mut self.hosts[from.raw() as usize];
        fh.resident.retain(|&r| r != vm);
        fh.ops
            .retain(|o| !(o.vm == vm && matches!(o.kind, OpKind::MigrateOut { .. })));
        let th = &mut self.hosts[to.raw() as usize];
        th.incoming.retain(|&r| r != vm);
        th.resident.push(vm);
        th.ops
            .retain(|o| !(o.vm == vm && matches!(o.kind, OpKind::MigrateIn { .. })));
        self.touched(from);
        self.touched(to);
    }

    /// Aborts an in-flight migration (page-copy failure): the reservation
    /// on the destination is released and the VM keeps running on the
    /// source, where it executed all along.
    pub fn abort_migration(&mut self, vm: VmId, now: SimTime) {
        let v = &mut self.vms[vm];
        let (from, to) = match v.state {
            VmState::Migrating { from, to } => (from, to),
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("abort_migration on VM in state {s:?}"),
        };
        // The VM executed on the source throughout: bank that progress.
        v.advance_progress(&self.jobs[vm.raw() as usize], now);
        v.state = VmState::Running { host: from };
        let requested = v.requested;
        self.release(to, requested);
        let th = &mut self.hosts[to.raw() as usize];
        th.incoming.retain(|&r| r != vm);
        th.ops
            .retain(|o| !(o.vm == vm && matches!(o.kind, OpKind::MigrateIn { .. })));
        let fh = &mut self.hosts[from.raw() as usize];
        fh.ops
            .retain(|o| !(o.vm == vm && matches!(o.kind, OpKind::MigrateOut { .. })));
        self.touched(from);
        self.touched(to);
    }

    /// Starts a checkpoint of a running VM. Returns the operation's
    /// sequence number.
    pub fn start_checkpoint(&mut self, vm: VmId, now: SimTime, ends: SimTime) -> u64 {
        let seq = self.alloc_op_seq();
        let v = &mut self.vms[vm];
        let host = match v.state {
            VmState::Running { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("start_checkpoint on VM in state {s:?}"),
        };
        v.state = VmState::Checkpointing { host };
        self.hosts[host.raw() as usize].ops.push(InFlightOp {
            vm,
            kind: OpKind::Checkpoint,
            started: now,
            ends,
            cpu_overhead: CHECKPOINT_CPU_OVERHEAD,
            seq,
        });
        self.touched(host);
        seq
    }

    /// Completes a checkpoint, storing the VM's progress at `now`.
    pub fn finish_checkpoint(&mut self, vm: VmId, now: SimTime) {
        let v = &mut self.vms[vm];
        let host = match v.state {
            VmState::Checkpointing { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("finish_checkpoint on VM in state {s:?}"),
        };
        v.advance_progress(&self.jobs[vm.raw() as usize], now);
        v.checkpoint = Some(v.progress);
        v.state = VmState::Running { host };
        self.hosts[host.raw() as usize]
            .ops
            .retain(|o| !(o.vm == vm && o.kind == OpKind::Checkpoint));
        self.touched(host);
    }

    /// Completes a job: the VM is destroyed and its resources released.
    /// What remains of it is a [`FinishedVm`] record at the end of
    /// [`Cluster::finished_vms`].
    pub fn finish_vm(&mut self, vm: VmId, now: SimTime) {
        let v = &self.vms[vm];
        let host = match v.state {
            VmState::Running { host } => host,
            // lint:allow(P001): state-machine misuse is a caller bug; failing loud beats silently corrupting placement
            s => panic!("finish_vm on VM in state {s:?}"),
        };
        let requested = v.requested;
        self.vms.finish(vm, now);
        self.release(host, requested);
        self.hosts[host.raw() as usize]
            .resident
            .retain(|&r| r != vm);
        self.touched(host);
    }

    // ----- power transitions ----------------------------------------------

    /// Begins booting an off host; ready at the returned instant.
    pub fn begin_power_on(&mut self, host: HostId, now: SimTime) -> SimTime {
        let h = &mut self.hosts[host.raw() as usize];
        assert_eq!(h.power, PowerState::Off, "can only boot an off host");
        let ready_at = now + h.spec.class.boot_time();
        h.power = PowerState::Booting { ready_at };
        self.touched(host);
        ready_at
    }

    /// Marks a booting host as up.
    pub fn complete_power_on(&mut self, host: HostId) {
        let h = &mut self.hosts[host.raw() as usize];
        assert!(
            matches!(h.power, PowerState::Booting { .. }),
            "complete_power_on on non-booting host"
        );
        h.power = PowerState::On;
        self.touched(host);
    }

    /// Begins a graceful shutdown of an idle host; off at the returned
    /// instant.
    pub fn begin_power_off(&mut self, host: HostId, now: SimTime) -> SimTime {
        let h = &mut self.hosts[host.raw() as usize];
        assert_eq!(h.power, PowerState::On, "can only shut down an on host");
        assert!(h.is_idle(), "cannot shut down a host with VMs or ops");
        let off_at = now + h.spec.class.shutdown_time();
        h.power = PowerState::ShuttingDown { off_at };
        self.touched(host);
        off_at
    }

    /// Marks a shutting-down host as off.
    pub fn complete_power_off(&mut self, host: HostId) {
        let h = &mut self.hosts[host.raw() as usize];
        assert!(
            matches!(h.power, PowerState::ShuttingDown { .. }),
            "complete_power_off on non-shutting-down host"
        );
        h.power = PowerState::Off;
        self.touched(host);
    }

    /// Crashes a host: every VM touching it is torn down and re-queued on
    /// the virtual host (§III-C), restored from its last checkpoint if one
    /// exists. Returns the displaced VMs.
    pub fn fail_host(&mut self, host: HostId, now: SimTime) -> Vec<VmId> {
        let h = &mut self.hosts[host.raw() as usize];
        let displaced: Vec<VmId> = h.resident.drain(..).chain(h.incoming.drain(..)).collect();
        let ops: Vec<InFlightOp> = h.ops.drain(..).collect();
        h.power = PowerState::Failed;
        self.committed[host.raw() as usize] = Resources::ZERO;

        // Migrations in flight also leave residue on the peer host.
        for op in ops {
            let peer = match op.kind {
                OpKind::MigrateIn { from } => Some(from),
                OpKind::MigrateOut { to } => Some(to),
                _ => None,
            };
            if let Some(p) = peer {
                let ph = &mut self.hosts[p.raw() as usize];
                ph.resident.retain(|&r| r != op.vm);
                ph.incoming.retain(|&r| r != op.vm);
                ph.ops.retain(|o| o.vm != op.vm);
                self.committed[p.raw() as usize] = self.fold_committed(self.host(p));
                self.touched(p);
            }
        }
        self.touched(host);

        let mut requeued = Vec::new();
        for vm in displaced {
            if requeued.contains(&vm) {
                continue; // migrating VM appears on both endpoints
            }
            let v = &mut self.vms[vm];
            v.advance_progress(&self.jobs[vm.raw() as usize], now);
            // Lose uncheckpointed work.
            v.progress = v.checkpoint.unwrap_or(0.0);
            v.state = VmState::Queued;
            v.alloc = 0.0;
            v.last_update = now;
            self.queue.push(vm);
            requeued.push(vm);
        }
        requeued
    }

    /// Fails a boot in progress: the host lands in the failed state (it
    /// must be repaired before the next boot attempt). Booting hosts carry
    /// no VMs, so nothing is displaced.
    pub fn fail_boot(&mut self, host: HostId) {
        let h = &mut self.hosts[host.raw() as usize];
        assert!(
            matches!(h.power, PowerState::Booting { .. }),
            "fail_boot on non-booting host"
        );
        assert!(h.is_idle(), "booting host cannot carry VMs");
        h.power = PowerState::Failed;
        self.touched(host);
    }

    /// Repairs a failed host back to the off state.
    pub fn repair_host(&mut self, host: HostId) {
        let h = &mut self.hosts[host.raw() as usize];
        assert_eq!(h.power, PowerState::Failed, "repair of a non-failed host");
        h.power = PowerState::Off;
        self.touched(host);
    }

    /// Applies (or clears, with `0.0`) the flapping-blacklist reliability
    /// penalty on a host. Read back through [`Cluster::effective_reliability`].
    pub fn blacklist(&mut self, host: HostId, penalty: f64) {
        assert!((0.0..=1.0).contains(&penalty), "penalty must be in [0, 1]");
        self.hosts[host.raw() as usize].reliability_penalty = penalty;
        self.touched(host);
    }

    /// Sets the host's effective-capacity multiplier (1.0 = nominal).
    /// Callers must re-run [`Cluster::reallocate_host`] afterwards.
    pub fn set_cpu_factor(&mut self, host: HostId, factor: f64) {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "cpu factor must be in (0, 1]"
        );
        self.hosts[host.raw() as usize].cpu_factor = factor;
        self.touched(host);
    }

    // ----- CPU sharing -----------------------------------------------------

    /// Re-runs the Xen credit scheduler on one host: advances every
    /// resident VM's progress to `now` under the old allocations, then
    /// grants new ones. Must be called whenever the host's VM set or op
    /// set changes.
    pub fn reallocate_host(&mut self, host: HostId, now: SimTime) {
        // Progress first — under the allocations that held until `now`.
        self.touch_host(host, now);
        let Cluster {
            hosts,
            jobs,
            vms,
            xen_scratch: x,
            ..
        } = self;
        let h = &hosts[host.raw() as usize];
        // `cpu_factor` is exactly 1.0 outside slowdown episodes, and
        // `x * 1.0 == x` bit-for-bit, so the fault layer costs nothing here
        // when disabled.
        let capacity = (h.spec.cpu.as_f64() * h.cpu_factor - h.op_cpu_overhead().as_f64()).max(0.0);
        x.contenders.clear();
        x.contenders.extend(h.resident.iter().map(|&id| {
            let v = &vms[id];
            if v.state.is_executing() {
                CpuContender {
                    demand: jobs[id.raw() as usize].cpu.as_f64(),
                    weight: 256.0,
                    cap: v.req_cpu().as_f64(),
                }
            } else {
                // Creating VMs reserve resources but consume none yet.
                CpuContender {
                    demand: 0.0,
                    weight: 256.0,
                    cap: 0.0,
                }
            }
        }));
        xen::allocate_into(capacity, &x.contenders, &mut x.alloc, &mut x.active);
        for (&id, &alloc) in h.resident.iter().zip(&x.alloc) {
            vms[id].alloc = alloc;
        }
        self.touched(host);
    }

    /// Advances progress of every VM on a host without changing
    /// allocations (used before reading progress-sensitive state).
    pub fn touch_host(&mut self, host: HostId, now: SimTime) {
        for &id in &self.hosts[host.raw() as usize].resident {
            self.vms[id].advance_progress(&self.jobs[id.raw() as usize], now);
        }
    }

    // ----- snapshot ---------------------------------------------------------

    /// Hands a cluster decoded by [`Cluster`]'s `Persist` impl, which
    /// holds no job table, the table it runs. Fails as
    /// [`PersistError::Corrupt`] if the snapshot admitted more VMs than
    /// the table has jobs.
    pub fn attach_jobs(&mut self, jobs: impl Into<Arc<Vec<Job>>>) -> Result<(), PersistError> {
        let jobs = jobs.into();
        let (vms, n) = (self.vms.len(), jobs.len());
        if vms > n {
            let msg = format!("snapshot admitted {vms} VMs, the job table holds {n} jobs");
            return Err(PersistError::Corrupt(msg));
        }
        self.jobs = jobs;
        Ok(())
    }

    // ----- invariants -------------------------------------------------------

    /// Structural invariant check for tests: delegates to
    /// [`Cluster::verify`] and panics on the first violation.
    pub fn check_invariants(&self) {
        if let Err(msg) = self.verify() {
            // lint:allow(P001): the whole point of this helper is to abort the test run on a violated invariant
            panic!("cluster invariant violated: {msg}");
        }
    }

    /// Deep structural verification, the auditor's workhorse: the VM
    /// table's live and finished ids are a permutation of the admitted
    /// ones and no finished VM completed before it started; every live
    /// VM's state (and the host it names) agrees with the hosts'
    /// resident/incoming lists, no finished VM is resident, incoming or
    /// queued, no VM is accounted twice, queued VMs are exactly the
    /// queue, every host's committed cache equals the fold over its VMs'
    /// requests, committed memory never exceeds capacity, non-ready hosts
    /// carry no VMs, and the cached working and online counts equal a
    /// recount ([`Cluster::verify_counts`]). Returns the first violation
    /// found. A finished VM costs O(1): one slot check, one instant
    /// comparison and one byte of the flag table.
    ///
    /// Every id is range-checked before it is looked up: `verify` also
    /// gates snapshot restore, where corrupt bytes can name VMs absent
    /// from the table — that must be a reported violation, not a panic.
    pub fn verify(&self) -> Result<(), String> {
        self.vms.verify()?;
        self.verify_placement()
    }

    /// [`Cluster::verify`] past the VM table's own checks, which restore
    /// makes while it decodes the table.
    fn verify_placement(&self) -> Result<(), String> {
        // Where each VM is accounted, gathered from the hosts and queue:
        // one byte of flags per VM.
        const RESIDENT: u8 = 1;
        const INCOMING: u8 = 2;
        const QUEUED: u8 = 4;

        let mut seen = vec![0u8; self.vms.len()];
        for (h, &cached) in self.hosts.iter().zip(&self.committed) {
            let id = h.spec.id;
            for &vm in &h.resident {
                let Some(s) = seen.get_mut(vm.raw() as usize) else {
                    return Err(format!("{vm} resident on {id} but not in the VM table"));
                };
                if *s & RESIDENT != 0 {
                    return Err(format!("{vm} resident on two hosts"));
                }
                *s |= RESIDENT;
                let state = self.vms.state(vm);
                if state == VmState::Finished {
                    return Err(format!("finished {vm} resident on {id}"));
                }
                if state.host() != Some(id) {
                    return Err(format!("{vm} state's host disagrees with {id} residency"));
                }
            }
            for &vm in &h.incoming {
                let Some(s) = seen.get_mut(vm.raw() as usize) else {
                    return Err(format!("incoming {vm} on {id} not in the VM table"));
                };
                if *s & INCOMING != 0 {
                    return Err(format!("{vm} incoming on two hosts"));
                }
                *s |= INCOMING;
                let state = self.vms.state(vm);
                if state == VmState::Finished {
                    return Err(format!("finished {vm} incoming on {id}"));
                }
                if !matches!(state, VmState::Migrating { to, .. } if to == id) {
                    return Err(format!(
                        "incoming {vm} on {id} not migrating there (state {state:?})"
                    ));
                }
            }
            match h.power {
                PowerState::On => {}
                PowerState::ShuttingDown { .. }
                | PowerState::Off
                | PowerState::Failed
                | PowerState::Booting { .. } => {
                    if !h.is_idle() {
                        return Err(format!("{id} carries VMs/ops in state {:?}", h.power));
                    }
                }
            }
            let folded = self.fold_committed(h);
            if cached != folded {
                return Err(format!(
                    "{id} committed cache {cached} disagrees with its VMs' requests {folded}"
                ));
            }
            if folded.mem > h.spec.capacity().mem {
                return Err(format!(
                    "{id} memory oversubscribed: {:?} committed on {:?}",
                    folded.mem,
                    h.spec.capacity().mem
                ));
            }
            if !(h.cpu_factor > 0.0 && h.cpu_factor <= 1.0) {
                return Err(format!("{id} cpu factor {} out of (0, 1]", h.cpu_factor));
            }
        }
        self.verify_counts()?;
        for &vm in &self.queue {
            let Some(s) = seen.get_mut(vm.raw() as usize) else {
                return Err(format!("queued {vm} not in the VM table"));
            };
            if *s & QUEUED != 0 {
                return Err(format!("{vm} queued twice"));
            }
            *s |= QUEUED;
            let state = self.vms.state(vm);
            if state == VmState::Finished {
                return Err(format!("finished {vm} queued"));
            }
            if state != VmState::Queued {
                return Err(format!("{vm} in queue but in state {state:?}"));
            }
        }
        // Finished VMs were rejected above wherever they were listed, and
        // `VmTable::verify` keeps every live id inside the flag table.
        for v in self.vms.live() {
            let s = seen[v.id.raw() as usize];
            match v.state {
                VmState::Queued => {
                    if s & QUEUED == 0 {
                        return Err(format!("{} Queued but missing from the queue", v.id));
                    }
                }
                VmState::Finished => {}
                _ => {
                    if s & RESIDENT == 0 {
                        return Err(format!("{} active but not resident anywhere", v.id));
                    }
                }
            }
            // Incoming entries were checked to name the destination above.
            let migrating = matches!(v.state, VmState::Migrating { .. });
            if migrating != (s & INCOMING != 0) {
                return Err(format!(
                    "{} in state {:?} but {}incoming anywhere",
                    v.id,
                    v.state,
                    if migrating { "not " } else { "" }
                ));
            }
        }
        Ok(())
    }
}

/// Canonical state: spec, power state, residency lists (order matters —
/// allocation math iterates them), in-flight ops, and the fault-layer
/// multipliers. Everything a host owns is canonical; nothing is rebuilt.
impl Persist for Host {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.spec.persist(w);
        self.power.persist(w);
        self.resident.persist(w);
        self.incoming.persist(w);
        self.ops.persist(w);
        w.put_f64(self.cpu_factor);
        w.put_f64(self.reliability_penalty);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Host {
            spec: HostSpec::restore(r)?,
            power: PowerState::restore(r)?,
            resident: Vec::restore(r)?,
            incoming: Vec::restore(r)?,
            ops: Vec::restore(r)?,
            cpu_factor: r.get_f64()?,
            reliability_penalty: r.get_f64()?,
        })
    }
}

/// The hosts, then the VM table (its admitted count, the live VMs in id
/// order, then the finished column as one run of fixed-width records in
/// completion order), the queue and the next operation sequence number.
/// Restore rejects a table whose ids are not a permutation of the
/// admitted ones, rebuilds the committed cache, the working and online
/// counts and an all-hosts dirty set from the hosts, and then runs the
/// rest of the structural [`Cluster::verify`] pass, so a corrupt or
/// hand-edited snapshot cannot smuggle in an inconsistent world state.
///
/// The job table is trace data and is not written: `restore` yields an
/// empty one, and [`Cluster::attach_jobs`] hands it the trace's.
impl Persist for Cluster {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.hosts.persist(w);
        self.vms.persist(w);
        self.queue.persist(w);
        w.put_u64(self.next_op_seq);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let hosts: Vec<Host> = Vec::restore(r)?;
        for (i, h) in hosts.iter().enumerate() {
            if h.spec.id.raw() as usize != i {
                return Err(PersistError::Corrupt(format!(
                    "host {} out of id order (slot {i})",
                    h.spec.id
                )));
            }
        }
        let vms = VmTable::restore(r)?;
        let queue: Vec<VmId> = Vec::restore(r)?;
        let next_op_seq = r.get_u64()?;
        let mut c = Cluster {
            hosts,
            jobs: Arc::default(),
            vms,
            committed: Vec::new(),
            queue,
            next_op_seq,
            dirty: Vec::new(),
            marks: Vec::new(),
            working: 0,
            online: 0,
            xen_scratch: XenScratch::default(),
        };
        c.committed = c.hosts.iter().map(|h| c.fold_committed(h)).collect();
        c.touch_all();
        c.verify_placement().map_err(PersistError::Corrupt)?;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::HostClass;
    use crate::ids::JobId;
    use eards_sim::SimDuration;

    fn cluster(n: u32) -> Cluster {
        let specs = (0..n)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect();
        Cluster::new(specs, PowerState::On)
    }

    fn job(id: u64, cpu: u32, secs: u64) -> Job {
        Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(secs),
            1.5,
        )
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn persist_round_trip_mid_lifecycle() {
        use eards_sim::{Reader, Writer};

        // Build a cluster with every kind of in-flight state: a running VM,
        // a migrating VM, a creating VM, a queued VM, a finished VM, a
        // booting host, and fault-layer multipliers.
        let mut c = cluster(4);
        let done = c.submit_job(job(1, 100, 10));
        c.start_creation(done, HostId(0), t(0), t(40));
        c.finish_creation(done, t(40));
        c.reallocate_host(HostId(0), t(40));
        c.finish_vm(done, t(60));

        let running = c.submit_job(job(2, 200, 1000));
        c.start_creation(running, HostId(0), t(60), t(100));
        c.finish_creation(running, t(100));
        c.reallocate_host(HostId(0), t(100));

        let migrating = c.submit_job(job(3, 100, 1000));
        c.start_creation(migrating, HostId(1), t(60), t(100));
        c.finish_creation(migrating, t(100));
        c.reallocate_host(HostId(1), t(100));
        c.start_migration(migrating, HostId(2), t(120), t(180));

        let creating = c.submit_job(job(4, 100, 500));
        c.start_creation(creating, HostId(2), t(120), t(160));
        let _queued = c.submit_job(job(5, 100, 500));

        c.begin_power_off(HostId(3), t(120));
        c.complete_power_off(HostId(3));
        c.begin_power_on(HostId(3), t(130));
        c.set_cpu_factor(HostId(1), 0.5);
        c.blacklist(HostId(2), 0.05);
        c.check_invariants();

        let mut w = Writer::new();
        c.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let mut restored = Cluster::restore(&mut r).unwrap();
        restored.attach_jobs(c.jobs().to_vec()).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.jobs(), c.jobs());

        // The restored world re-serializes to the identical byte stream —
        // the snapshot is a fixed point.
        let mut w2 = Writer::new();
        restored.persist(&mut w2);
        assert_eq!(bytes, w2.into_bytes().unwrap());

        // Spot checks: placements, queue order, counters, fault multipliers.
        assert_eq!(restored.queue(), c.queue());
        assert_eq!(restored.num_vms(), c.num_vms());
        assert_eq!(restored.vm(running).alloc, c.vm(running).alloc);
        assert_eq!(
            restored.vm(migrating).state,
            VmState::Migrating {
                from: HostId(1),
                to: HostId(2)
            }
        );
        assert_eq!(restored.host(HostId(1)).cpu_factor, 0.5);
        assert!(restored.is_blacklisted(HostId(2)));
        assert!(matches!(
            restored.host(HostId(3)).power,
            PowerState::Booting { .. }
        ));

        // And the restored cluster keeps functioning: next op/vm ids
        // continue where the original left off.
        let next = restored.submit_job(job(6, 100, 100));
        assert_eq!(next, VmId(c.num_vms() as u64));
        let seq = restored.start_creation(next, HostId(0), t(200), t(240));
        let next2 = c.submit_job(job(6, 100, 100));
        let seq2 = c.start_creation(next2, HostId(0), t(200), t(240));
        assert_eq!((next, seq), (next2, seq2));
    }

    #[test]
    fn attach_jobs_rejects_more_vms_than_jobs() {
        use eards_sim::{Reader, Writer};

        let mut c = cluster(1);
        c.submit_job(job(1, 100, 100));
        c.submit_job(job(2, 100, 100));
        let mut w = Writer::new();
        c.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut short = Cluster::restore(&mut Reader::new(&bytes)).unwrap();
        let err = short.attach_jobs(c.jobs()[..1].to_vec()).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(ref m) if m.contains("2 VMs")),
            "{err:?}"
        );
        let mut exact = Cluster::restore(&mut Reader::new(&bytes)).unwrap();
        assert!(exact.attach_jobs(c.jobs().to_vec()).is_ok());
    }

    #[test]
    fn restore_rejects_inconsistent_worlds() {
        use eards_sim::{Reader, Writer};

        let mut c = cluster(1);
        let vm = c.submit_job(job(1, 100, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        let mut w = Writer::new();
        c.persist(&mut w);
        let good = w.into_bytes().unwrap();
        assert!(Cluster::restore(&mut Reader::new(&good)).is_ok());

        // Truncation is an error, not a partial world.
        let mut r = Reader::new(&good[..good.len() - 4]);
        assert!(Cluster::restore(&mut r).is_err());
    }

    #[test]
    fn submit_queues_on_virtual_host() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 100, 100));
        assert_eq!(c.queue(), &[vm]);
        assert_eq!(c.vm(vm).state, VmState::Queued);
        assert_eq!(c.working_count(), 0);
        assert_eq!(c.online_count(), 2);
        c.check_invariants();
    }

    #[test]
    fn creation_lifecycle() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 200, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        assert!(c.queue().is_empty());
        assert_eq!(c.vm(vm).state, VmState::Creating { host: HostId(0) });
        assert_eq!(c.host(HostId(0)).op_cpu_overhead(), CREATION_CPU_OVERHEAD);
        assert!(c.host(HostId(0)).is_working());
        c.reallocate_host(HostId(0), t(0));
        assert_eq!(c.vm(vm).alloc, 0.0, "creating VM consumes no CPU");
        // Host still draws op-overhead power.
        assert_eq!(c.cpu_used(HostId(0)), 50.0);
        c.check_invariants();

        c.finish_creation(vm, t(40));
        c.reallocate_host(HostId(0), t(40));
        assert_eq!(c.vm(vm).state, VmState::Running { host: HostId(0) });
        assert_eq!(c.vm(vm).alloc, 200.0);
        assert_eq!(c.host(HostId(0)).op_cpu_overhead(), Cpu::ZERO);
        assert_eq!(c.cpu_used(HostId(0)), 200.0);
        c.check_invariants();
    }

    #[test]
    fn occupation_accounts_committed_vms() {
        let mut c = cluster(1);
        let a = c.submit_job(job(1, 200, 100));
        let b = c.submit_job(job(2, 100, 100));
        c.start_creation(a, HostId(0), t(0), t(40));
        assert!((c.occupation(HostId(0)) - 0.5).abs() < 1e-12);
        assert!((c.occupation_with(HostId(0), b) - 0.75).abs() < 1e-12);
        // occupation_with of an already-resident VM is idempotent.
        assert!((c.occupation_with(HostId(0), a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn can_place_rejects_overflow_and_off_hosts() {
        let mut c = cluster(2);
        let a = c.submit_job(job(1, 300, 100));
        let b = c.submit_job(job(2, 200, 100));
        c.start_creation(a, HostId(0), t(0), t(40));
        assert!(!c.can_place(HostId(0), b), "300+200 > 400 cpu");
        assert!(
            c.can_place_overcommitted(HostId(0), b),
            "relaxed check allows CPU overcommit"
        );
        assert!(c.can_place(HostId(1), b));
        // Turn host 1 off (via its legal transition chain).
        let mut c2 = cluster(1);
        let v = c2.submit_job(job(3, 100, 100));
        c2.begin_power_off(HostId(0), t(0));
        assert!(!c2.can_place(HostId(0), v));
        assert!(!c2.can_place_overcommitted(HostId(0), v));
    }

    #[test]
    fn memory_is_never_overcommitted() {
        let mut c = cluster(1);
        // Two 9-GiB VMs on a 16-GiB host: the second must be rejected even
        // by the relaxed check.
        let mk = |c: &mut Cluster, id: u64| {
            c.submit_job(Job::new(
                JobId(id),
                SimTime::ZERO,
                Cpu(100),
                Mem::gib(9),
                SimDuration::from_secs(100),
                1.5,
            ))
        };
        let a = mk(&mut c, 1);
        let b = mk(&mut c, 2);
        c.start_creation(a, HostId(0), t(0), t(40));
        assert!(!c.can_place_overcommitted(HostId(0), b));
        assert!(!c.can_place(HostId(0), b));
    }

    #[test]
    fn overcommitted_placement_shares_cpu() {
        let mut c = cluster(1);
        let a = c.submit_job(job(1, 300, 1000));
        let b = c.submit_job(job(2, 300, 1000));
        let h = HostId(0);
        c.start_creation(a, h, t(0), t(40));
        c.finish_creation(a, t(40));
        // A naive policy stacks b on the same node: 600% demand on 400%.
        c.start_creation(b, h, t(40), t(80));
        c.finish_creation(b, t(80));
        c.reallocate_host(h, t(80));
        assert!((c.occupation(h) - 1.5).abs() < 1e-12);
        assert_eq!(c.vm(a).alloc, 200.0, "fair share under contention");
        assert_eq!(c.vm(b).alloc, 200.0);
        c.check_invariants();
    }

    #[test]
    fn migration_reserves_on_destination() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 300, 1000));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(HostId(0), t(40));

        c.start_migration(vm, HostId(1), t(100), t(160));
        assert_eq!(
            c.vm(vm).state,
            VmState::Migrating {
                from: HostId(0),
                to: HostId(1)
            }
        );
        // Reserved on both ends.
        assert!((c.occupation(HostId(0)) - 0.75).abs() < 1e-12);
        assert!((c.occupation(HostId(1)) - 0.75).abs() < 1e-12);
        // Both endpoints burn migration CPU.
        assert_eq!(c.host(HostId(0)).op_cpu_overhead(), MIGRATION_CPU_OVERHEAD);
        assert_eq!(c.host(HostId(1)).op_cpu_overhead(), MIGRATION_CPU_OVERHEAD);
        // The VM still executes on the source.
        c.reallocate_host(HostId(0), t(100));
        assert!(c.vm(vm).alloc > 0.0);
        c.check_invariants();

        c.finish_migration(vm, t(160));
        assert_eq!(c.vm(vm).state, VmState::Running { host: HostId(1) });
        assert_eq!(c.vm(vm).migrations, 1);
        assert!(c.host(HostId(0)).is_idle());
        assert_eq!(c.host(HostId(0)).op_cpu_overhead(), Cpu::ZERO);
        assert_eq!(c.host(HostId(1)).op_cpu_overhead(), Cpu::ZERO);
        c.check_invariants();
    }

    #[test]
    fn migration_target_memory_enforced() {
        let mut c = cluster(2);
        let mk = |c: &mut Cluster, id: u64| {
            c.submit_job(Job::new(
                JobId(id),
                SimTime::ZERO,
                Cpu(100),
                Mem::gib(9),
                SimDuration::from_secs(1000),
                1.5,
            ))
        };
        let a = mk(&mut c, 1);
        let b = mk(&mut c, 2);
        c.start_creation(a, HostId(0), t(0), t(40));
        c.finish_creation(a, t(40));
        c.start_creation(b, HostId(1), t(0), t(40));
        c.finish_creation(b, t(40));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            c.start_migration(a, HostId(1), t(50), t(110));
        }));
        assert!(r.is_err(), "migration must respect destination memory");
    }

    #[test]
    fn finish_vm_releases_resources() {
        let mut c = cluster(1);
        let vm = c.submit_job(job(1, 400, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(HostId(0), t(40));
        // A finished VM keeps no progress: read it at the finishing instant.
        c.touch_host(HostId(0), t(140));
        assert_eq!(c.vm(vm).progress, 40_000.0, "100 s at 400 cpu");
        c.finish_vm(vm, t(140));
        assert_eq!(c.vm_state(vm), VmState::Finished);
        let done = c.finished_vm(vm).unwrap();
        assert_eq!((done.started_at, done.completed_at), (t(40), t(140)));
        assert!(c.finished_vms().eq([done]));
        assert!(c.host(HostId(0)).is_idle());
        assert_eq!(c.occupation(HostId(0)), 0.0);
        c.check_invariants();
    }

    #[test]
    fn contention_shares_cpu() {
        let mut c = cluster(1);
        let a = c.submit_job(job(1, 300, 1000));
        let b = c.submit_job(job(2, 200, 1000));
        // Force-place by escalating in two steps within capacity: 300+200
        // exceeds 400, so place b first, then a cannot... use two smaller.
        let h = HostId(0);
        c.start_creation(b, h, t(0), t(40));
        c.finish_creation(b, t(40));
        // a (300) no longer fits (200+300=500>400): capacity check works.
        assert!(!c.can_place(h, a));
        // Add a 200-cpu job instead: 200+200 = 400 exactly.
        let d = c.submit_job(job(3, 200, 1000));
        c.start_creation(d, h, t(40), t(80));
        c.finish_creation(d, t(80));
        c.reallocate_host(h, t(80));
        assert_eq!(c.vm(b).alloc, 200.0);
        assert_eq!(c.vm(d).alloc, 200.0);
        assert_eq!(c.cpu_used(h), 400.0);
    }

    #[test]
    fn ops_steal_cpu_from_vms() {
        let mut c = cluster(1);
        let a = c.submit_job(job(1, 400, 1000));
        let h = HostId(0);
        c.start_creation(a, h, t(0), t(40));
        c.finish_creation(a, t(40));
        // While a second VM is being created, dom0 overhead shrinks a's share.
        let b = c.submit_job(job(2, 50, 100)); // occupation fits? 400+50 > 400
        assert!(!c.can_place(h, b));
        // Instead start a checkpoint to create overhead.
        c.reallocate_host(h, t(40));
        assert_eq!(c.vm(a).alloc, 400.0);
        c.start_checkpoint(a, t(50), t(60));
        c.reallocate_host(h, t(50));
        assert_eq!(c.vm(a).alloc, 375.0, "capacity 400 - 25 checkpoint");
        c.finish_checkpoint(a, t(60));
        c.reallocate_host(h, t(60));
        assert_eq!(c.vm(a).alloc, 400.0);
        assert_eq!(c.vm(a).checkpoint, Some(c.vm(a).progress));
    }

    #[test]
    fn power_transitions() {
        let mut c = cluster(1);
        let h = HostId(0);
        let off_at = c.begin_power_off(h, t(0));
        assert_eq!(off_at, t(10));
        assert!(c.host(h).power.draws_power());
        c.complete_power_off(h);
        assert_eq!(c.host(h).power, PowerState::Off);
        assert_eq!(c.online_count(), 0);
        let ready = c.begin_power_on(h, t(100));
        assert_eq!(ready, t(190), "medium boot = 90 s");
        assert_eq!(c.online_count(), 1, "booting counts as online");
        c.complete_power_on(h);
        assert!(c.host(h).power.is_ready());
    }

    #[test]
    #[should_panic(expected = "cannot shut down a host with VMs")]
    fn power_off_busy_host_panics() {
        let mut c = cluster(1);
        let vm = c.submit_job(job(1, 100, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.begin_power_off(HostId(0), t(1));
    }

    #[test]
    fn host_failure_requeues_vms_with_checkpoint() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 100, 1000));
        let h = HostId(0);
        c.start_creation(vm, h, t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(h, t(40));
        c.start_checkpoint(vm, t(140), t(150));
        c.finish_checkpoint(vm, t(150));
        let ckpt = c.vm(vm).checkpoint.unwrap();
        assert!(ckpt > 0.0);

        // Run on, then crash at t=500: progress since the checkpoint is lost.
        c.touch_host(h, t(500));
        assert!(c.vm(vm).progress > ckpt);
        let displaced = c.fail_host(h, t(500));
        assert_eq!(displaced, vec![vm]);
        assert_eq!(c.vm(vm).state, VmState::Queued);
        assert_eq!(c.vm(vm).progress, ckpt);
        assert_eq!(c.host(h).power, PowerState::Failed);
        assert!(!c.host(h).power.draws_power());
        assert_eq!(c.queue(), &[vm]);
        c.check_invariants();

        c.repair_host(h);
        assert_eq!(c.host(h).power, PowerState::Off);
    }

    #[test]
    fn failure_during_migration_cleans_both_ends() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 200, 1000));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.start_migration(vm, HostId(1), t(100), t(160));
        // Destination dies mid-migration.
        let displaced = c.fail_host(HostId(1), t(130));
        assert_eq!(displaced, vec![vm]);
        assert_eq!(c.vm(vm).state, VmState::Queued);
        assert!(c.host(HostId(0)).is_idle(), "source residue cleaned");
        assert!(c.host(HostId(0)).ops.is_empty());
        c.check_invariants();
    }

    #[test]
    fn abort_creation_requeues_vm() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 200, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.abort_creation(vm, t(20));
        assert_eq!(c.vm(vm).state, VmState::Queued);
        assert_eq!(c.queue(), &[vm]);
        assert!(c.host(HostId(0)).is_idle(), "creation residue cleaned");
        c.check_invariants();
        // The VM can be retried on another host.
        c.start_creation(vm, HostId(1), t(30), t(70));
        c.finish_creation(vm, t(70));
        assert_eq!(c.vm(vm).state, VmState::Running { host: HostId(1) });
        c.check_invariants();
    }

    #[test]
    fn abort_migration_keeps_vm_on_source() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 300, 1000));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(HostId(0), t(40));
        c.start_migration(vm, HostId(1), t(100), t(160));
        c.abort_migration(vm, t(130));
        assert_eq!(c.vm(vm).state, VmState::Running { host: HostId(0) });
        assert_eq!(c.vm(vm).migrations, 0, "aborted migration doesn't count");
        assert!(c.host(HostId(1)).is_idle(), "destination residue cleaned");
        assert_eq!(c.host(HostId(0)).op_cpu_overhead(), Cpu::ZERO);
        assert!(
            c.vm(vm).progress > 0.0,
            "progress banked for the time on the source"
        );
        c.check_invariants();
    }

    #[test]
    fn fail_boot_lands_in_failed_state() {
        let mut c = cluster(1);
        let h = HostId(0);
        c.begin_power_off(h, t(0));
        c.complete_power_off(h);
        c.begin_power_on(h, t(100));
        c.fail_boot(h);
        assert_eq!(c.host(h).power, PowerState::Failed);
        assert_eq!(c.online_count(), 0);
        c.repair_host(h);
        assert_eq!(c.host(h).power, PowerState::Off);
    }

    #[test]
    fn blacklist_lowers_effective_reliability() {
        let mut c = cluster(1);
        let h = HostId(0);
        assert_eq!(c.effective_reliability(h), 1.0);
        assert!(!c.is_blacklisted(h));
        c.blacklist(h, 0.05);
        assert!(c.is_blacklisted(h));
        assert!((c.effective_reliability(h) - 0.95).abs() < 1e-12);
        c.blacklist(h, 0.0);
        assert_eq!(c.effective_reliability(h), 1.0);
    }

    #[test]
    fn slowdown_factor_shrinks_capacity() {
        let mut c = cluster(1);
        let vm = c.submit_job(job(1, 400, 1000));
        let h = HostId(0);
        c.start_creation(vm, h, t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(h, t(40));
        assert_eq!(c.vm(vm).alloc, 400.0);
        c.set_cpu_factor(h, 0.5);
        c.reallocate_host(h, t(50));
        assert_eq!(c.vm(vm).alloc, 200.0, "half capacity during slowdown");
        c.set_cpu_factor(h, 1.0);
        c.reallocate_host(h, t(60));
        assert_eq!(c.vm(vm).alloc, 400.0);
        c.check_invariants();
    }

    #[test]
    fn verify_reports_corruption() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 100, 100));
        c.start_creation(vm, HostId(0), t(0), t(40));
        assert!(c.verify().is_ok());
        // Corrupt the state directly: duplicate residency.
        c.hosts[1].resident.push(vm);
        let err = c.verify().unwrap_err();
        assert!(err.contains("two hosts"), "got: {err}");
    }

    #[test]
    fn verify_reports_a_corrupted_committed_cache() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 100, 100));
        c.start_creation(vm, HostId(1), t(0), t(40));
        assert!(c.verify().is_ok());
        c.committed[1].cpu += Cpu(1);
        let err = c.verify().unwrap_err();
        assert!(err.contains("h1 committed cache"), "got: {err}");
    }

    #[test]
    fn max_free_on_is_the_componentwise_maximum_over_on_hosts() {
        let mut c = cluster(3);
        let gib2 = |id: u64, cpu: u32| {
            Job::new(
                JobId(id),
                SimTime::ZERO,
                Cpu(cpu),
                Mem::gib(2),
                SimDuration::from_secs(100),
                1.5,
            )
        };
        let a = c.submit_job(gib2(1, 300));
        let b = c.submit_job(gib2(2, 200));
        c.start_creation(a, HostId(0), t(0), t(40));
        // Host 2 is empty but shutting down: only On hosts count.
        c.begin_power_off(HostId(2), t(0));
        assert_eq!(c.max_free_on(), Resources::new(Cpu(400), Mem::gib(16)));
        // Host 1 takes b: 200 CPU left there, 14 GiB left on both.
        c.start_creation(b, HostId(1), t(0), t(40));
        assert_eq!(c.max_free_on(), Resources::new(Cpu(200), Mem::gib(14)));
        // An escalated request overcommits host 0's CPU; its free CPU
        // clamps at zero. With host 1 failed, host 0 alone is the bound.
        c.finish_creation(a, t(40));
        c.escalate_requested_cpu(a, Cpu(500));
        let _ = c.fail_host(HostId(1), t(50));
        assert_eq!(c.max_free_on(), Resources::new(Cpu(0), Mem::gib(14)));
        c.check_invariants();
        // No host On: nothing fits.
        let off = Cluster::new(
            vec![HostSpec::standard(HostId(0), HostClass::Fast)],
            PowerState::Off,
        );
        assert_eq!(off.max_free_on(), Resources::ZERO);
    }

    #[test]
    fn escalation_charges_both_ends_of_a_migration() {
        let mut c = cluster(2);
        let vm = c.submit_job(job(1, 100, 1000));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.start_migration(vm, HostId(1), t(50), t(110));
        c.escalate_requested_cpu(vm, Cpu(150));
        assert_eq!(c.vm(vm).req_cpu(), Cpu(150));
        assert_eq!(c.committed(HostId(0)).cpu, Cpu(150));
        assert_eq!(c.committed(HostId(1)).cpu, Cpu(150));
        // Requests only grow.
        c.escalate_requested_cpu(vm, Cpu(120));
        assert_eq!(c.vm(vm).req_cpu(), Cpu(150));
        c.check_invariants();
        c.finish_migration(vm, t(110));
        assert_eq!(c.committed(HostId(0)), Resources::ZERO);
        assert_eq!(c.committed(HostId(1)).cpu, Cpu(150));
        c.check_invariants();
    }

    #[test]
    fn total_power_sums_draws() {
        use crate::power::CalibratedPowerModel;
        let mut c = cluster(2);
        let model = CalibratedPowerModel::paper_4way();
        assert_eq!(c.total_power(&model), 460.0, "two idle hosts");
        let vm = c.submit_job(job(1, 100, 1000));
        c.start_creation(vm, HostId(0), t(0), t(40));
        c.finish_creation(vm, t(40));
        c.reallocate_host(HostId(0), t(40));
        assert_eq!(c.total_power(&model), 259.0 + 230.0);
        // Off host draws nothing.
        c.begin_power_off(HostId(1), t(50));
        c.complete_power_off(HostId(1));
        assert_eq!(c.total_power(&model), 259.0);
    }
}
