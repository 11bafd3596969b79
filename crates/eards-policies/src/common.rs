//! Shared machinery for scheduling policies.
//!
//! Within one scheduling round a policy places several queued VMs; each
//! tentative placement consumes capacity the next one must see. [`Planner`]
//! overlays those in-round reservations on the immutable [`Cluster`] view.

use eards_model::{Cluster, HostId, Resources, VmId};

/// A cluster view that accumulates tentative placements made during the
/// current scheduling round.
pub struct Planner<'a> {
    cluster: &'a Cluster,
    /// Committed plus planned resources per host, indexed by [`HostId`]:
    /// seeded from the cluster's committed cache once per round, then
    /// grown by every [`Planner::commit`].
    committed: Vec<Resources>,
}

impl<'a> Planner<'a> {
    /// Starts an empty plan over `cluster`.
    pub fn new(cluster: &'a Cluster) -> Self {
        Planner {
            cluster,
            committed: cluster.committed_by_host().to_vec(),
        }
    }

    /// The underlying cluster.
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// Committed + planned resources on a host.
    pub fn effective_committed(&self, host: HostId) -> Resources {
        self.committed[host.raw() as usize]
    }

    /// Occupation a host would have after also hosting `vm`, counting the
    /// plan so far.
    pub fn occupation_with(&self, host: HostId, vm: VmId) -> f64 {
        let spec_cap = self.cluster.host(host).spec.capacity();
        let mut used = self.effective_committed(host);
        let v = self.cluster.vm(vm);
        let already = v.state.host() == Some(host);
        if !already {
            used = used.plus(v.requested);
        }
        used.occupation_in(spec_cap)
    }

    /// Strict feasibility including the plan (occupation ≤ 1).
    pub fn can_place(&self, host: HostId, vm: VmId) -> bool {
        self.can_place_overcommitted(host, vm) && self.occupation_with(host, vm) <= 1.0
    }

    /// Relaxed feasibility including the plan (memory only).
    pub fn can_place_overcommitted(&self, host: HostId, vm: VmId) -> bool {
        let h = self.cluster.host(host);
        if !h.power.is_ready() || !h.spec.satisfies(&self.cluster.job(vm).requirements) {
            return false;
        }
        self.effective_committed(host).mem + self.cluster.vm(vm).requested.mem
            <= h.spec.capacity().mem
    }

    /// Records a tentative placement of `vm` onto `host`.
    pub fn commit(&mut self, host: HostId, vm: VmId) {
        let c = &mut self.committed[host.raw() as usize];
        *c = c.plus(self.cluster.vm(vm).requested);
    }
}

/// Hosts currently able to accept work (powered on), in id order.
pub fn ready_hosts(cluster: &Cluster) -> Vec<HostId> {
    cluster
        .hosts()
        .iter()
        .filter(|h| h.power.is_ready())
        .map(|h| h.spec.id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState};
    use eards_sim::{SimDuration, SimTime};

    fn setup() -> (Cluster, VmId, VmId) {
        let mut c = Cluster::new(
            vec![
                HostSpec::standard(HostId(0), HostClass::Medium),
                HostSpec::standard(HostId(1), HostClass::Medium),
            ],
            PowerState::On,
        );
        let a = c.submit_job(Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(300),
            Mem::gib(2),
            SimDuration::from_secs(100),
            1.5,
        ));
        let b = c.submit_job(Job::new(
            JobId(2),
            SimTime::ZERO,
            Cpu(200),
            Mem::gib(2),
            SimDuration::from_secs(100),
            1.5,
        ));
        (c, a, b)
    }

    #[test]
    fn planner_tracks_tentative_placements() {
        let (c, a, b) = setup();
        let mut p = Planner::new(&c);
        assert!(p.can_place(HostId(0), a));
        p.commit(HostId(0), a);
        // 300 planned + 200 = 500 > 400: strict fails, relaxed passes.
        assert!(!p.can_place(HostId(0), b));
        assert!(p.can_place_overcommitted(HostId(0), b));
        assert!(p.can_place(HostId(1), b));
        // The real cluster is untouched.
        assert!(c.can_place(HostId(0), b));
    }

    #[test]
    fn planner_memory_accumulates() {
        let mut c = Cluster::new(
            vec![HostSpec::standard(HostId(0), HostClass::Fast)],
            PowerState::On,
        );
        let ids: Vec<VmId> = (0..3)
            .map(|i| {
                c.submit_job(Job::new(
                    JobId(i),
                    SimTime::ZERO,
                    Cpu(100),
                    Mem::gib(7),
                    SimDuration::from_secs(10),
                    1.5,
                ))
            })
            .collect();
        let mut p = Planner::new(&c);
        assert!(p.can_place_overcommitted(HostId(0), ids[0]));
        p.commit(HostId(0), ids[0]);
        assert!(p.can_place_overcommitted(HostId(0), ids[1]));
        p.commit(HostId(0), ids[1]);
        // 7+7+7 = 21 GiB > 16 GiB.
        assert!(!p.can_place_overcommitted(HostId(0), ids[2]));
    }

    #[test]
    fn ready_hosts_excludes_off() {
        let (mut c, _, _) = setup();
        c.begin_power_off(HostId(1), SimTime::ZERO);
        assert_eq!(ready_hosts(&c), vec![HostId(0)]);
    }
}
