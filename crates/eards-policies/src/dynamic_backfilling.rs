//! The Dynamic Backfilling (DBF) baseline of Table IV: "applies
//! Backfilling and migrates VMs between nodes in order to provide a higher
//! consolidation level".
//!
//! Placement is identical to [`BackfillingPolicy`]; additionally, each
//! round tries to *empty* the least-occupied working hosts by migrating
//! their VMs into fuller hosts (strict fit only). A host is only worth
//! emptying if **all** of its VMs can be rehoused — otherwise the
//! migrations would spend overhead without freeing a node to switch off.
//! DBF is migration-happy (it ignores migration cost), which is exactly
//! the behaviour the paper contrasts the score-based policy against.

use eards_model::{
    Action, Cluster, HostId, Policy, ScheduleContext, ScheduleReason, VmId, VmState,
};

use crate::backfilling::{best_fit, place_queue};
use crate::common::{ready_hosts, Planner};

/// The Dynamic Backfilling policy (BF + consolidation migrations).
#[derive(Debug)]
pub struct DynamicBackfillingPolicy {
    /// Cap on migrations emitted per scheduling round (avoids storms).
    pub max_migrations_per_round: usize,
    /// Only hosts at or below this occupation are worth draining — moving
    /// VMs off a well-used host costs overhead without freeing a node in
    /// any reasonable time frame.
    pub drain_occupation_threshold: f64,
    /// Maximum hosts drained per round (1 keeps migration counts in the
    /// regime the paper's Table IV reports).
    pub max_drains_per_round: usize,
}

impl Default for DynamicBackfillingPolicy {
    fn default() -> Self {
        DynamicBackfillingPolicy {
            max_migrations_per_round: 6,
            drain_occupation_threshold: 0.5,
            max_drains_per_round: 2,
        }
    }
}

impl DynamicBackfillingPolicy {
    /// Creates the policy with the default migration cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// One round; `quick_reject` as in [`place_queue`].
    pub(crate) fn plan(
        &self,
        cluster: &Cluster,
        ctx: &ScheduleContext,
        quick_reject: bool,
    ) -> Vec<Action> {
        let mut planner = Planner::new(cluster);
        let ready = ready_hosts(cluster);

        // Phase 1: place the queue exactly like BF.
        let mut actions = place_queue(&mut planner, &ready, quick_reject);

        // Phase 2: consolidation — only on periodic rounds (the same
        // cadence on which the score-based policy re-evaluates moves).
        if ctx.reason != ScheduleReason::Periodic {
            return actions;
        }
        // Consider working hosts from least to
        // most occupied; try to fully evacuate each.
        let mut working: Vec<HostId> = cluster
            .hosts()
            .iter()
            .filter(|h| h.is_working() && h.power.is_ready())
            .map(|h| h.spec.id)
            .collect();
        working.sort_by(|&a, &b| {
            cluster
                .occupation(a)
                .total_cmp(&cluster.occupation(b))
                .then(a.cmp(&b))
        });

        let mut migrations = 0usize;
        let mut drains = 0usize;
        // Hosts already involved in this round's migrations: an evacuated
        // host must not become a target (that would plan a pointless swap),
        // and a target must not later be evacuated.
        let mut touched: std::collections::HashSet<HostId> = std::collections::HashSet::new();
        'victims: for &victim in &working {
            if migrations >= self.max_migrations_per_round || drains >= self.max_drains_per_round {
                break;
            }
            if touched.contains(&victim) {
                continue;
            }
            if cluster.occupation(victim) > self.drain_occupation_threshold {
                continue;
            }
            let host = cluster.host(victim);
            // Skip hosts with in-flight operations — their VMs are pinned.
            if !host.ops.is_empty() || !host.incoming.is_empty() {
                continue;
            }
            let movable: Vec<VmId> = host
                .resident
                .iter()
                .copied()
                .filter(|&vm| matches!(cluster.vm(vm).state, VmState::Running { .. }))
                .collect();
            if movable.is_empty() || movable.len() != host.resident.len() {
                continue; // something unmovable lives here
            }
            if migrations + movable.len() > self.max_migrations_per_round {
                continue;
            }

            // Tentatively plan a new home for every VM; all-or-nothing.
            let candidates: Vec<HostId> = ready
                .iter()
                .copied()
                .filter(|&h| {
                    h != victim
                        && !touched.contains(&h)
                        && cluster.host(h).is_working()
                        // Conservative: real middleware serializes node
                        // operations, so don't pile onto a busy host.
                        && cluster.host(h).ops.is_empty()
                })
                .collect();
            let mut trial = Vec::new();
            for &vm in &movable {
                match best_fit(&planner, &candidates, vm) {
                    Some(to) => {
                        planner.commit(to, vm);
                        trial.push(Action::Migrate { vm, to });
                    }
                    None => {
                        // Cannot fully evacuate: abandon this victim. The
                        // partial plan stays committed in the planner,
                        // which only makes later checks more conservative.
                        continue 'victims;
                    }
                }
            }
            migrations += trial.len();
            drains += 1;
            touched.insert(victim);
            for a in &trial {
                if let Action::Migrate { to, .. } = a {
                    touched.insert(*to);
                }
            }
            actions.extend(trial);
        }
        actions
    }
}

impl Policy for DynamicBackfillingPolicy {
    fn name(&self) -> String {
        "DBF".into()
    }

    fn uses_migration(&self) -> bool {
        true
    }

    fn schedule(&mut self, cluster: &Cluster, ctx: &ScheduleContext) -> Vec<Action> {
        self.plan(cluster, ctx, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, ScheduleReason};
    use eards_sim::{SimDuration, SimTime};

    fn ctx() -> ScheduleContext {
        ScheduleContext {
            now: SimTime::from_secs(1000),
            reason: ScheduleReason::Periodic,
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

    /// Places a running VM of `cpu` on `host`.
    fn run_vm(c: &mut Cluster, id: u64, cpu: u32, host: HostId) -> VmId {
        let vm = c.submit_job(Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(1),
            SimDuration::from_secs(6000),
            1.5,
        ));
        c.start_creation(vm, host, SimTime::ZERO, SimTime::from_secs(40));
        c.finish_creation(vm, SimTime::from_secs(40));
        vm
    }

    #[test]
    fn consolidates_the_emptiest_host() {
        let mut c = cluster(3);
        run_vm(&mut c, 0, 300, HostId(0));
        let lonely = run_vm(&mut c, 1, 100, HostId(1));
        let actions = DynamicBackfillingPolicy::new().schedule(&c, &ctx());
        // The lonely 100% VM should move onto host 0 (300+100 = 400).
        assert_eq!(
            actions,
            vec![Action::Migrate {
                vm: lonely,
                to: HostId(0)
            }]
        );
    }

    #[test]
    fn all_or_nothing_evacuation() {
        let mut c = cluster(2);
        // Host 0: 300%. Host 1: two VMs, 100% + 200%. Only the 100 fits on
        // host 0; evacuating host 1 entirely is impossible → no migrations.
        run_vm(&mut c, 0, 300, HostId(0));
        run_vm(&mut c, 1, 100, HostId(1));
        run_vm(&mut c, 2, 200, HostId(1));
        let actions = DynamicBackfillingPolicy::new().schedule(&c, &ctx());
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn never_migrates_into_an_empty_host() {
        let mut c = cluster(3);
        let _a = run_vm(&mut c, 0, 100, HostId(0));
        // Hosts 1 and 2 are empty. Moving the only VM to an empty host
        // gains nothing; it must stay.
        let actions = DynamicBackfillingPolicy::new().schedule(&c, &ctx());
        assert!(actions.is_empty());
    }

    #[test]
    fn respects_migration_cap() {
        let mut c = cluster(6);
        // Five 1-VM hosts that could merge into host 5 (almost empty big).
        for i in 0..5u64 {
            run_vm(&mut c, i, 100, HostId(i as u32));
        }
        let mut p = DynamicBackfillingPolicy {
            max_migrations_per_round: 2,
            max_drains_per_round: 5,
            ..DynamicBackfillingPolicy::default()
        };
        let actions = p.schedule(&c, &ctx());
        let migs = actions
            .iter()
            .filter(|a| matches!(a, Action::Migrate { .. }))
            .count();
        assert!(migs <= 2, "cap violated: {actions:?}");
    }

    #[test]
    fn still_places_queue_like_bf() {
        let mut c = cluster(2);
        run_vm(&mut c, 0, 200, HostId(0));
        let q = c.submit_job(Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(200),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        ));
        let actions = DynamicBackfillingPolicy::new().schedule(&c, &ctx());
        assert!(actions.contains(&Action::Create {
            vm: q,
            host: HostId(0)
        }));
    }

    #[test]
    fn skips_hosts_with_inflight_ops() {
        let mut c = cluster(2);
        run_vm(&mut c, 0, 300, HostId(0));
        // Host 1 has a VM still creating: pinned.
        let vm = c.submit_job(Job::new(
            JobId(1),
            SimTime::ZERO,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(600),
            1.5,
        ));
        c.start_creation(vm, HostId(1), SimTime::ZERO, SimTime::from_secs(40));
        let actions = DynamicBackfillingPolicy::new().schedule(&c, &ctx());
        assert!(actions.is_empty(), "{actions:?}");
    }
}
