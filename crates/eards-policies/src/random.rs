//! The Random (RD) baseline of Table II: "assigns the tasks randomly".
//!
//! Each queued VM goes to a uniformly random powered-on host that meets
//! its hard requirements (hardware/software and memory). CPU is freely
//! overcommitted — the policy is oblivious to load, which is exactly why
//! Table II reports 33% satisfaction and 475% delay for it.

use eards_model::{Action, Cluster, PersistError, Policy, Reader, ScheduleContext, Writer};
use eards_sim::{Persist, SimRng};

use crate::common::{ready_hosts, Planner};

/// The Random placement policy.
pub struct RandomPolicy {
    rng: SimRng,
}

impl RandomPolicy {
    /// Creates the policy with its own RNG stream.
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: SimRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPolicy {
    fn name(&self) -> String {
        "RD".into()
    }

    fn schedule(&mut self, cluster: &Cluster, _ctx: &ScheduleContext) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut planner = Planner::new(cluster);
        let ready = ready_hosts(cluster);
        if ready.is_empty() {
            return actions;
        }
        for &vm in cluster.queue() {
            // Sample a random host; fall back to a scan so a feasible host
            // is found whenever one exists.
            let start = self.rng.index(ready.len());
            let probe = planner.probe(vm);
            let pick = (0..ready.len())
                .map(|k| ready[(start + k) % ready.len()])
                .find(|&h| planner.fits_overcommitted(h, &probe));
            if let Some(host) = pick {
                planner.commit(host, vm);
                actions.push(Action::Create { vm, host });
            }
        }
        actions
    }

    // The RNG position is the policy's entire cross-round state; without
    // it a resumed run would re-draw the sequence from the seed.
    fn persist_state(&self, w: &mut Writer) {
        self.rng.persist(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.rng = SimRng::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{
        Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerState, ScheduleReason,
    };
    use eards_sim::{SimDuration, SimTime};

    fn ctx() -> ScheduleContext {
        ScheduleContext {
            now: SimTime::ZERO,
            reason: ScheduleReason::VmArrived,
        }
    }

    fn cluster(hosts: u32) -> Cluster {
        Cluster::new(
            (0..hosts)
                .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
                .collect(),
            PowerState::On,
        )
    }

    fn add_job(c: &mut Cluster, id: u64, cpu: u32) -> eards_model::VmId {
        c.submit_job(Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        ))
    }

    #[test]
    fn places_every_queued_vm_somewhere() {
        let mut c = cluster(4);
        for i in 0..10 {
            add_job(&mut c, i, 100);
        }
        let mut p = RandomPolicy::new(1);
        let actions = p.schedule(&c, &ctx());
        assert_eq!(actions.len(), 10, "memory fits everywhere");
        for a in &actions {
            assert!(matches!(a, Action::Create { .. }));
        }
    }

    #[test]
    fn overcommits_cpu_happily() {
        let mut c = cluster(1);
        for i in 0..5 {
            add_job(&mut c, i, 400);
        }
        let mut p = RandomPolicy::new(2);
        // 5 × 400% onto one 400% node: random placement doesn't care.
        assert_eq!(p.schedule(&c, &ctx()).len(), 5);
    }

    #[test]
    fn spreads_across_hosts_statistically() {
        let mut c = cluster(10);
        for i in 0..200 {
            add_job(&mut c, i, 100);
        }
        let mut p = RandomPolicy::new(3);
        let actions = p.schedule(&c, &ctx());
        let mut per_host = [0usize; 10];
        for a in &actions {
            if let Action::Create { host, .. } = a {
                per_host[host.raw() as usize] += 1;
            }
        }
        // Each host should get a decent share (20 expected).
        for (i, &n) in per_host.iter().enumerate() {
            assert!((5..=45).contains(&n), "host {i} got {n}/200");
        }
    }

    #[test]
    fn no_ready_hosts_means_no_actions() {
        let mut c = cluster(1);
        add_job(&mut c, 1, 100);
        c.begin_power_off(HostId(0), SimTime::ZERO);
        let mut p = RandomPolicy::new(4);
        assert!(p.schedule(&c, &ctx()).is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let mut c = cluster(5);
        for i in 0..20 {
            add_job(&mut c, i, 100);
        }
        let a1 = RandomPolicy::new(9).schedule(&c, &ctx());
        let a2 = RandomPolicy::new(9).schedule(&c, &ctx());
        assert_eq!(a1, a2);
    }
}
