//! The always-on invariant auditor.
//!
//! Fault injection multiplies the state-transition paths through the
//! driver — crashes during migrations, aborts during repairs, shutdowns
//! racing armed timers. The auditor re-validates conservation properties
//! after **every** event batch so a bookkeeping bug surfaces at the event
//! that introduced it, not as a mysteriously wrong table three simulated
//! days later:
//!
//! * no VM is lost or duplicated (queued + placed + finished = admitted);
//! * only ready hosts carry VMs or operations;
//! * CPU allocations never exceed a host's effective capacity, and
//!   committed memory never exceeds its physical memory;
//! * power accounting agrees with host state (an unpowered host burns
//!   no CPU);
//! * fault timers only target hosts that are actually up (reported by the
//!   driver, which owns the timers).
//!
//! The light pass walks a host list: the hosts the batch changed
//! ([`Cluster::dirty_hosts`]) in [`AuditorMode::On`], every host in
//! [`AuditorMode::Strict`] and on an auditor's first pass. It costs
//! `O(dirty hosts + their residents)` per batch and hashes nothing. A
//! host outside the list is unchanged since the pass before, which found
//! it clean or reported it, so walking it again could report nothing new
//! (DESIGN.md §18). A deep structural pass ([`Cluster::verify`], which
//! also recomputes every host's cached committed resources and the
//! working and online counts) runs periodically — or after every batch
//! in [`AuditorMode::Strict`], which also panics on the first violation
//! (used by the CI chaos smoke run).

use eards_model::{Cluster, HostId};
use eards_sim::{Persist, PersistError, Reader, SimTime, Writer};

use crate::config::AuditorMode;

/// Batches between deep [`Cluster::verify`] passes in [`AuditorMode::On`].
const DEEP_PERIOD: u64 = 256;

/// Maximum violation messages retained (the counter keeps counting).
const MAX_MESSAGES: usize = 8;

/// Validates cluster-wide conservation invariants as the run progresses.
pub struct InvariantAuditor {
    mode: AuditorMode,
    checks: u64,
    violations: u64,
    messages: Vec<String>,
    /// Resident-list length of each host as of the last pass that walked
    /// it, indexed by [`HostId`]; empty until the first pass, which walks
    /// every host.
    // lint:allow(SNAP001): rebuilt by the first pass after restore, which walks every host
    resident_len: Vec<u32>,
    /// Sum of `resident_len`: the placed-VM term of VM conservation.
    // lint:allow(SNAP001): derived from `resident_len`
    placed: u64,
}

impl InvariantAuditor {
    /// Builds an auditor in the given mode.
    pub fn new(mode: AuditorMode) -> Self {
        InvariantAuditor {
            mode,
            checks: 0,
            violations: 0,
            messages: Vec::new(),
            resident_len: Vec::new(),
            placed: 0,
        }
    }

    /// True unless the auditor is [`AuditorMode::Off`].
    pub fn enabled(&self) -> bool {
        self.mode != AuditorMode::Off
    }

    /// Audit passes executed so far.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations detected so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The first few violation messages, for reports and debugging.
    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// Records a violation detected outside the cluster checks (e.g. the
    /// driver's own timer bookkeeping). Panics in strict mode.
    pub fn report(&mut self, at: SimTime, msg: String) {
        let msg = format!("[{at}] {msg}");
        if self.mode == AuditorMode::Strict {
            // lint:allow(P001): strict mode exists to abort on the first violation; counting mode is the panic-free path
            panic!("invariant violated: {msg}");
        }
        self.violations += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(msg);
        }
    }

    /// Runs one audit pass after an event batch, before the driver clears
    /// the cluster's dirty set. `finished` is the number of VMs the driver
    /// has completed (the cluster keeps them as finished records, resident
    /// nowhere). Returns true if the pass was deep, so the driver can
    /// check its own caches at the same cadence.
    pub fn check(&mut self, cluster: &Cluster, finished: u64, at: SimTime) -> bool {
        if !self.enabled() {
            return false;
        }
        self.checks += 1;
        let verdict = self.light_pass(cluster, finished);
        // Oracle: while every earlier pass was clean, the incremental
        // verdict equals that of a fresh auditor, which walks every host.
        #[cfg(debug_assertions)]
        if self.violations == 0 {
            let full = InvariantAuditor::new(self.mode).light_pass(cluster, finished);
            assert_eq!(
                verdict.is_ok(),
                full.is_ok(),
                "incremental light pass {verdict:?}, full pass {full:?}"
            );
        }
        if let Err(msg) = verdict {
            self.report(at, msg);
        }
        let deep = self.mode == AuditorMode::Strict || self.checks.is_multiple_of(DEEP_PERIOD);
        if deep {
            if let Err(msg) = cluster.verify() {
                self.report(at, msg);
            }
        }
        deep
    }

    /// The light pass: walks every host on the first pass and in strict
    /// mode, and the cluster's dirty hosts otherwise.
    fn light_pass(&mut self, cluster: &Cluster, finished: u64) -> Result<(), String> {
        let first = self.resident_len.len() != cluster.num_hosts();
        if first {
            self.resident_len = vec![0; cluster.num_hosts()];
            self.placed = 0;
        }
        if first || self.mode == AuditorMode::Strict {
            self.walk(cluster, all_hosts(cluster), finished)
        } else {
            self.walk(cluster, cluster.dirty_hosts().iter().copied(), finished)
        }
    }

    /// Walks `hosts`: first refreshes their resident lengths, then runs
    /// the per-host checks up to the first violation, then checks VM
    /// conservation over the whole length table.
    fn walk(
        &mut self,
        cluster: &Cluster,
        hosts: impl Iterator<Item = HostId> + Clone,
        finished: u64,
    ) -> Result<(), String> {
        for id in hosts.clone() {
            let len = cluster.host(id).resident.len() as u32;
            let slot = &mut self.resident_len[id.raw() as usize];
            self.placed = self.placed - u64::from(*slot) + u64::from(len);
            *slot = len;
        }
        for id in hosts {
            check_host(cluster, id)?;
        }
        let admitted = cluster.num_vms() as u64;
        let accounted = cluster.queue().len() as u64 + self.placed + finished;
        if accounted != admitted {
            return Err(format!(
                "VM conservation broken: {} queued + {} placed + {finished} finished \
                 != {admitted} admitted",
                cluster.queue().len(),
                self.placed
            ));
        }
        Ok(())
    }
}

/// Every host id, in order.
fn all_hosts(cluster: &Cluster) -> impl Iterator<Item = HostId> + Clone {
    (0..cluster.num_hosts()).map(|i| HostId(i as u32))
}

/// The light pass's checks of one host. A resident VM must name this host
/// in its state, so no VM passes on two hosts.
fn check_host(cluster: &Cluster, id: HostId) -> Result<(), String> {
    let h = cluster.host(id);
    for &vm in &h.resident {
        if vm.raw() >= cluster.num_vms() as u64 {
            return Err(format!("{id} hosts {vm}, beyond the VM table"));
        }
        let state = cluster.vm_state(vm);
        if state.host() != Some(id) {
            return Err(format!("{vm} resident on {id} in state {state:?}"));
        }
    }
    if !h.power.is_ready() && !h.is_idle() {
        return Err(format!("{id} carries VMs/ops in state {:?}", h.power));
    }
    if !h.power.draws_power() && cluster.cpu_used(id) != 0.0 {
        return Err(format!("unpowered {id} accounts nonzero CPU"));
    }
    let alloc: f64 = h.resident.iter().map(|&vm| cluster.vm(vm).alloc).sum();
    let capacity = h.spec.cpu.as_f64() * h.cpu_factor;
    if alloc > capacity + 1e-6 {
        return Err(format!(
            "{id} CPU oversubscribed: {alloc:.3} allocated on {capacity:.3}"
        ));
    }
    if cluster.committed(id).mem > h.spec.capacity().mem {
        return Err(format!("{id} memory oversubscribed"));
    }
    Ok(())
}

/// Canonical state: mode and counters. The resident-length table is
/// rebuilt by the first pass after restore, which walks every host.
impl Persist for InvariantAuditor {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.mode.persist(w);
        w.put_u64(self.checks);
        w.put_u64(self.violations);
        self.messages.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(InvariantAuditor {
            mode: AuditorMode::restore(r)?,
            checks: r.get_u64()?,
            violations: r.get_u64()?,
            messages: Vec::restore(r)?,
            resident_len: Vec::new(),
            placed: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cluster, Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, VmId};
    use eards_sim::SimDuration;

    fn cluster(n: u32) -> Cluster {
        let specs = (0..n)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect();
        Cluster::new(specs, PowerState::On)
    }

    fn submit(c: &mut Cluster, id: u64) -> VmId {
        c.submit_job(Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(100),
            1.5,
        ))
    }

    #[test]
    fn clean_cluster_passes() {
        let mut c = cluster(2);
        let vm = submit(&mut c, 1);
        c.start_creation(vm, HostId(0), SimTime::ZERO, SimTime::from_secs(40));
        let mut a = InvariantAuditor::new(AuditorMode::On);
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.checks(), 1);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn off_mode_does_nothing() {
        let c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::Off);
        assert!(!a.enabled());
        a.check(&c, 5, SimTime::ZERO); // wrong `finished` would trip a check
        assert_eq!(a.checks(), 0);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn lost_vm_is_detected() {
        let mut c = cluster(1);
        submit(&mut c, 1);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        // Claim one VM finished while it still sits in the queue: the
        // conservation count comes out wrong.
        a.check(&c, 1, SimTime::ZERO);
        assert_eq!(a.violations(), 1);
        assert!(
            a.messages()[0].contains("conservation"),
            "{:?}",
            a.messages()
        );
    }

    #[test]
    fn strict_mode_panics() {
        let c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::Strict);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.check(&c, 3, SimTime::ZERO)
        }));
        assert!(r.is_err());
    }

    /// Places `n` fresh VMs round-robin on the cluster's hosts.
    fn place(c: &mut Cluster, first_id: u64, n: u64) {
        for id in first_id..first_id + n {
            let vm = submit(c, id);
            let host = HostId((id % c.num_hosts() as u64) as u32);
            c.start_creation(vm, host, SimTime::ZERO, SimTime::from_secs(40));
        }
    }

    #[test]
    fn wrong_finished_count_is_reported_with_no_dirty_host() {
        let mut c = cluster(2);
        place(&mut c, 0, 2);
        submit(&mut c, 2);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.violations(), 0, "{:?}", a.messages());
        // Nothing changed, so the next pass walks no host; conservation
        // is still checked over the length table.
        c.clear_dirty();
        assert!(c.dirty_hosts().is_empty());
        a.check(&c, 1, SimTime::ZERO);
        assert_eq!(a.violations(), 1);
        assert!(
            a.messages()[0].contains("1 queued + 2 placed + 1 finished != 3 admitted"),
            "{:?}",
            a.messages()
        );
    }

    #[test]
    fn restored_auditor_rebuilds_its_length_table_on_the_first_pass() {
        let mut c = cluster(3);
        place(&mut c, 0, 4);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        a.check(&c, 0, SimTime::ZERO);
        let mut w = Writer::new();
        a.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut restored = InvariantAuditor::restore(&mut Reader::new(&bytes)).unwrap();
        assert!(restored.resident_len.is_empty());
        // Even with no host dirty, the first pass walks all of them.
        c.clear_dirty();
        restored.check(&c, 0, SimTime::ZERO);
        assert_eq!(restored.violations(), 0, "{:?}", restored.messages());
        assert_eq!(restored.resident_len, vec![2, 1, 1]);
        assert_eq!(restored.placed, 4);
        assert_eq!(restored.checks(), 2);
    }

    #[test]
    fn strict_mode_walks_every_host() {
        let mut c = cluster(3);
        place(&mut c, 0, 1);
        let mut a = InvariantAuditor::new(AuditorMode::Strict);
        a.check(&c, 0, SimTime::ZERO);
        // Two more placements, then the dirty set is dropped unread: only
        // a walk over every host sees them.
        place(&mut c, 1, 2);
        c.clear_dirty();
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.resident_len, vec![1, 1, 1]);
        assert_eq!(a.placed, 3);
        assert_eq!(a.violations(), 0);
    }

    #[test]
    fn strict_auditing_of_a_clean_run_finds_nothing() {
        use crate::{small_datacenter, RunConfig, Runner};
        use eards_policies::BackfillingPolicy;
        use eards_workload::{generate, SynthConfig};

        let trace = generate(
            &SynthConfig {
                span: SimDuration::from_hours(3),
                ..SynthConfig::grid5000_week()
            },
            7,
        );
        let cfg = RunConfig::default().with_auditor(AuditorMode::Strict);
        let report = Runner::new(
            small_datacenter(4, HostClass::Medium),
            trace,
            Box::new(BackfillingPolicy::new()),
            cfg,
        )
        .run();
        assert!(report.faults.invariant_checks > 0);
        assert_eq!(report.faults.invariant_violations, 0);
    }

    #[test]
    fn message_cap_holds_while_counter_counts() {
        let c = cluster(1);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        for _ in 0..20 {
            a.check(&c, 1, SimTime::ZERO);
        }
        assert_eq!(a.violations(), 20);
        assert_eq!(a.messages().len(), MAX_MESSAGES);
    }
}
