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
//! The light pass is `O(hosts + placed VMs)` per batch and hashes
//! nothing; a deep structural pass
//! ([`Cluster::verify`], which also recomputes every host's cached
//! committed resources and compares) runs periodically — or after every
//! batch in [`AuditorMode::Strict`], which also panics on the first
//! violation (used by the CI chaos smoke run).

use eards_model::Cluster;
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
    /// Duplicate detection without hashing: `stamps[vm]` holds the epoch
    /// of the last light pass that saw `vm` resident, so a VM whose stamp
    /// already equals the current epoch is resident on two hosts. Grown
    /// to the VM table on every pass.
    // lint:allow(SNAP001): per-pass scratch; a restored auditor starts a fresh table
    stamps: Vec<u32>,
    /// The current pass's stamp; bumped every light pass, and the table
    /// is zeroed when it wraps so no stale stamp can match.
    // lint:allow(SNAP001): per-pass scratch, meaningful only together with `stamps`
    epoch: u32,
}

impl InvariantAuditor {
    /// Builds an auditor in the given mode.
    pub fn new(mode: AuditorMode) -> Self {
        InvariantAuditor {
            mode,
            checks: 0,
            violations: 0,
            messages: Vec::new(),
            stamps: Vec::new(),
            epoch: 0,
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

    /// Runs one audit pass after an event batch. `finished` is the number
    /// of VMs the driver has completed (they stay in the cluster's VM
    /// table but reside nowhere).
    pub fn check(&mut self, cluster: &Cluster, finished: u64, at: SimTime) {
        if !self.enabled() {
            return;
        }
        self.checks += 1;
        if let Err(msg) = self.light_pass(cluster, finished) {
            self.report(at, msg);
        }
        let deep = self.mode == AuditorMode::Strict || self.checks.is_multiple_of(DEEP_PERIOD);
        if deep {
            if let Err(msg) = cluster.verify() {
                self.report(at, msg);
            }
        }
    }

    fn light_pass(&mut self, cluster: &Cluster, finished: u64) -> Result<(), String> {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
        }
        if self.stamps.len() < cluster.num_vms() {
            self.stamps.resize(cluster.num_vms(), 0);
        }
        let mut placed = 0u64;
        for h in cluster.hosts() {
            let id = h.spec.id;
            for &vm in &h.resident {
                let Some(stamp) = self.stamps.get_mut(vm.raw() as usize) else {
                    return Err(format!("{id} hosts {vm}, beyond the VM table"));
                };
                if *stamp == self.epoch {
                    return Err(format!("{vm} resident on two hosts"));
                }
                *stamp = self.epoch;
                placed += 1;
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
        }
        let admitted = cluster.num_vms() as u64;
        let accounted = cluster.queue().len() as u64 + placed + finished;
        if accounted != admitted {
            return Err(format!(
                "VM conservation broken: {} queued + {placed} placed + {finished} finished \
                 != {admitted} admitted",
                cluster.queue().len()
            ));
        }
        Ok(())
    }
}

/// Canonical state: mode and counters. The duplicate-detection stamps
/// are per-pass scratch and are rebuilt empty.
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
            stamps: Vec::new(),
            epoch: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{
        Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, VmId,
    };
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
    fn epoch_wrap_reports_no_false_duplicates() {
        let mut c = cluster(2);
        place(&mut c, 0, 2);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        // A first pass stamps both VMs with epoch 1; a third VM then
        // arrives with a zero stamp.
        a.check(&c, 0, SimTime::ZERO);
        place(&mut c, 2, 1);
        // The next pass wraps the epoch: neither the stale stamp 1 nor
        // the fresh zero may read as "seen this pass".
        a.epoch = u32::MAX;
        a.check(&c, 0, SimTime::ZERO);
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.violations(), 0, "{:?}", a.messages());
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn stamp_table_grows_with_admissions() {
        let mut c = cluster(3);
        place(&mut c, 0, 1);
        let mut a = InvariantAuditor::new(AuditorMode::On);
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.stamps.len(), 1);
        place(&mut c, 1, 5);
        a.check(&c, 0, SimTime::ZERO);
        assert_eq!(a.stamps.len(), 6);
        assert_eq!(a.violations(), 0, "{:?}", a.messages());
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
