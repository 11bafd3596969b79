//! Shared machinery for scheduling policies.
//!
//! Within one scheduling round a policy places several queued VMs; each
//! tentative placement consumes capacity the next one must see. [`Planner`]
//! overlays those in-round reservations on the immutable [`Cluster`] view.

use eards_model::{Cluster, HostId, Requirements, Resources, VmId};

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

    /// Resolves what placing `vm` needs to know about it, once for a whole
    /// scan over hosts.
    pub fn probe(&self, vm: VmId) -> Probe<'a> {
        let v = self.cluster.vm(vm);
        Probe {
            requested: v.requested,
            host: v.state.host(),
            requirements: &self.cluster.job(vm).requirements,
        }
    }

    /// Relaxed feasibility of the probed VM on `host`, counting the plan so
    /// far: the host is ready, meets the job's requirements and has the
    /// memory (CPU may be overcommitted).
    pub fn fits_overcommitted(&self, host: HostId, probe: &Probe<'_>) -> bool {
        let h = self.cluster.host(host);
        h.power.is_ready()
            && h.spec.satisfies(probe.requirements)
            && self.effective_committed(host).mem + probe.requested.mem <= h.spec.capacity().mem
    }

    /// The occupation `host` would have after also hosting the probed VM,
    /// counting the plan so far, if the VM fits there strictly: it fits
    /// overcommitted and the occupation is at most 1.
    pub fn fit(&self, host: HostId, probe: &Probe<'_>) -> Option<f64> {
        if !self.fits_overcommitted(host, probe) {
            return None;
        }
        // A VM already on the host is counted in its committed load.
        let committed = self.effective_committed(host);
        let used = if probe.host == Some(host) {
            committed
        } else {
            committed.plus(probe.requested)
        };
        let occupation = used.occupation_in(self.cluster.host(host).spec.capacity());
        (occupation <= 1.0).then_some(occupation)
    }

    /// Records a tentative placement of `vm` onto `host`.
    pub fn commit(&mut self, host: HostId, vm: VmId) {
        let c = &mut self.committed[host.raw() as usize];
        *c = c.plus(self.cluster.vm(vm).requested);
    }
}

/// One VM as a placement scan sees it: its request, its current host and
/// its job's requirements (see [`Planner::probe`]).
pub struct Probe<'a> {
    requested: Resources,
    host: Option<HostId>,
    requirements: &'a Requirements,
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
        assert_eq!(p.fit(HostId(0), &p.probe(a)), Some(0.75));
        p.commit(HostId(0), a);
        // 300 planned + 200 = 500 > 400: strict fails, relaxed passes.
        assert_eq!(p.fit(HostId(0), &p.probe(b)), None);
        assert!(p.fits_overcommitted(HostId(0), &p.probe(b)));
        assert_eq!(p.fit(HostId(1), &p.probe(b)), Some(0.5));
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
        let fits = |p: &Planner<'_>, vm| p.fits_overcommitted(HostId(0), &p.probe(vm));
        assert!(fits(&p, ids[0]));
        p.commit(HostId(0), ids[0]);
        assert!(fits(&p, ids[1]));
        p.commit(HostId(0), ids[1]);
        // 7+7+7 = 21 GiB > 16 GiB.
        assert!(!fits(&p, ids[2]));
    }

    #[test]
    fn ready_hosts_excludes_off() {
        let (mut c, _, _) = setup();
        c.begin_power_off(HostId(1), SimTime::ZERO);
        assert_eq!(ready_hosts(&c), vec![HostId(0)]);
    }
}
