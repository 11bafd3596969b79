//! The Round Robin (RR) baseline of Table II: "assigns a task to each
//! available node, which implies a maximization of the amount of resources
//! to a task but also a sparse usage of the resources".
//!
//! A rotating cursor walks the powered-on hosts; each queued VM lands on
//! the next host that meets its hard requirements, preferring hosts that
//! are still strictly free before overcommitting. The result is the
//! sparsest packing of all policies — Table II's highest power draw.

use eards_model::{Action, Cluster, HostId, PersistError, Policy, Reader, ScheduleContext, Writer};

use crate::common::{ready_hosts, Planner};

/// The Round Robin placement policy.
#[derive(Debug, Default)]
pub struct RoundRobinPolicy {
    cursor: usize,
}

impl RoundRobinPolicy {
    /// Creates the policy with the cursor at host 0.
    pub fn new() -> Self {
        RoundRobinPolicy { cursor: 0 }
    }

    /// Finds the next host after the cursor that passes `pred`.
    fn next_matching(&mut self, ready: &[HostId], pred: impl Fn(HostId) -> bool) -> Option<HostId> {
        let n = ready.len();
        for k in 0..n {
            let idx = (self.cursor + k) % n;
            if pred(ready[idx]) {
                self.cursor = (idx + 1) % n;
                return Some(ready[idx]);
            }
        }
        None
    }
}

impl Policy for RoundRobinPolicy {
    fn name(&self) -> String {
        "RR".into()
    }

    fn schedule(&mut self, cluster: &Cluster, _ctx: &ScheduleContext) -> Vec<Action> {
        let mut actions = Vec::new();
        let mut planner = Planner::new(cluster);
        let ready = ready_hosts(cluster);
        if ready.is_empty() {
            return actions;
        }
        for &vm in cluster.queue() {
            // First preference: the next host where the VM fits without
            // contention. Fallback: the next host where it fits at all.
            let probe = planner.probe(vm);
            let host = self
                .next_matching(&ready, |h| planner.fit(h, &probe).is_some())
                .or_else(|| self.next_matching(&ready, |h| planner.fits_overcommitted(h, &probe)));
            if let Some(host) = host {
                planner.commit(host, vm);
                actions.push(Action::Create { vm, host });
            }
        }
        actions
    }

    // The rotation cursor is the policy's entire cross-round state.
    fn persist_state(&self, w: &mut Writer) {
        w.put_usize(self.cursor);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), PersistError> {
        self.cursor = r.get_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{
        Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, ScheduleReason, VmId,
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

    fn add_job(c: &mut Cluster, id: u64, cpu: u32) -> VmId {
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
    fn distributes_one_per_host_in_order() {
        let mut c = cluster(4);
        for i in 0..4 {
            add_job(&mut c, i, 100);
        }
        let mut p = RoundRobinPolicy::new();
        let actions = p.schedule(&c, &ctx());
        let hosts: Vec<u32> = actions
            .iter()
            .map(|a| match a {
                Action::Create { host, .. } => host.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(hosts, vec![0, 1, 2, 3]);
    }

    #[test]
    fn cursor_persists_across_rounds() {
        let mut c = cluster(4);
        add_job(&mut c, 0, 100);
        let mut p = RoundRobinPolicy::new();
        let a1 = p.schedule(&c, &ctx());
        assert_eq!(
            a1,
            vec![Action::Create {
                vm: VmId(0),
                host: HostId(0)
            }]
        );
        // Next round starts at host 1 even though host 0 is still free in
        // this (unapplied) cluster view.
        let a2 = p.schedule(&c, &ctx());
        assert_eq!(
            a2,
            vec![Action::Create {
                vm: VmId(0),
                host: HostId(1)
            }]
        );
    }

    #[test]
    fn wraps_around_and_overcommits_when_full() {
        let mut c = cluster(2);
        for i in 0..6 {
            add_job(&mut c, i, 400);
        }
        let mut p = RoundRobinPolicy::new();
        let actions = p.schedule(&c, &ctx());
        assert_eq!(actions.len(), 6, "overcommit fallback places them all");
        let mut per_host = [0; 2];
        for a in &actions {
            if let Action::Create { host, .. } = a {
                per_host[host.raw() as usize] += 1;
            }
        }
        assert_eq!(per_host, [3, 3], "round robin stays balanced");
    }

    #[test]
    fn no_hosts_no_actions() {
        let mut c = cluster(1);
        add_job(&mut c, 0, 100);
        c.begin_power_off(HostId(0), SimTime::ZERO);
        assert!(RoundRobinPolicy::new().schedule(&c, &ctx()).is_empty());
    }
}
