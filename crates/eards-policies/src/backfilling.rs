//! The Backfilling (BF) baseline of Table II: "tries to fill as much as
//! possible the nodes".
//!
//! Best-fit consolidation without migration: each queued VM goes to the
//! *most occupied* powered-on host where it still fits strictly
//! (occupation ≤ 100%). If no host fits, the VM waits in the queue — BF
//! never overcommits, which is why it reaches 98% satisfaction at a
//! fraction of RD/RR's power in Table II.

use eards_model::{Action, Cluster, HostId, Policy, ScheduleContext, VmId};

use crate::common::{ready_hosts, Planner};

/// The Backfilling placement policy.
#[derive(Debug, Default)]
pub struct BackfillingPolicy;

impl BackfillingPolicy {
    /// Creates the policy.
    pub fn new() -> Self {
        BackfillingPolicy
    }
}

/// Picks the fullest strictly-feasible host for `vm`, if any.
/// Exposed for reuse by [`crate::DynamicBackfillingPolicy`].
pub(crate) fn best_fit(planner: &Planner<'_>, ready: &[HostId], vm: VmId) -> Option<HostId> {
    let probe = planner.probe(vm);
    let mut best: Option<(f64, HostId)> = None;
    for &h in ready {
        let Some(occ) = planner.fit(h, &probe) else {
            continue;
        };
        // Highest post-placement occupation wins; ties break to the lowest
        // host id for determinism.
        let better = match best {
            None => true,
            Some((bo, bh)) => occ > bo + 1e-12 || (occ > bo - 1e-12 && h < bh),
        };
        if better {
            best = Some((occ, h));
        }
    }
    best.map(|(_, h)| h)
}

/// Places the queue in arrival order, each VM on its [`best_fit`] among
/// `ready`; a VM that fits nowhere waits — never overcommit. Shared by BF
/// and DBF phase 1.
///
/// With `quick_reject`, a VM whose request exceeds the round's
/// [`Cluster::max_free_on`] bound is skipped without probing any host.
/// The bound is taken once, before the first commit, over the On hosts
/// (exactly the `ready` set, as `is_ready()` is `== On`), and stays
/// valid all round because commits only shrink free capacity, so the
/// actions are the same either way (a differential test checks this).
pub(crate) fn place_queue(
    planner: &mut Planner<'_>,
    ready: &[HostId],
    quick_reject: bool,
) -> Vec<Action> {
    let cluster = planner.cluster();
    let room = quick_reject.then(|| cluster.max_free_on());
    let mut actions = Vec::new();
    for &vm in cluster.queue() {
        if room.is_some_and(|room| !cluster.vm(vm).requested.fits_in(room)) {
            continue;
        }
        if let Some(host) = best_fit(planner, ready, vm) {
            planner.commit(host, vm);
            actions.push(Action::Create { vm, host });
        }
    }
    actions
}

impl Policy for BackfillingPolicy {
    fn name(&self) -> String {
        "BF".into()
    }

    fn schedule(&mut self, cluster: &Cluster, _ctx: &ScheduleContext) -> Vec<Action> {
        place_queue(&mut Planner::new(cluster), &ready_hosts(cluster), true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eards_model::{Cpu, HostClass, HostSpec, Job, JobId, Mem, PowerState, ScheduleReason};
    use eards_sim::{SimDuration, SimTime};
    use proptest::collection::vec;
    use proptest::prelude::*;

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
    fn packs_onto_one_host_until_full() {
        let mut c = cluster(4);
        for i in 0..4 {
            add_job(&mut c, i, 100);
        }
        let actions = BackfillingPolicy::new().schedule(&c, &ctx());
        assert_eq!(actions.len(), 4);
        for a in &actions {
            assert_eq!(
                *a,
                Action::Create {
                    vm: match a {
                        Action::Create { vm, .. } => *vm,
                        _ => unreachable!(),
                    },
                    host: HostId(0)
                }
            );
        }
    }

    #[test]
    fn spills_to_next_host_when_full() {
        let mut c = cluster(2);
        for i in 0..5 {
            add_job(&mut c, i, 200);
        }
        let actions = BackfillingPolicy::new().schedule(&c, &ctx());
        // 2 fit on host 0, 2 on host 1, the fifth must wait.
        assert_eq!(actions.len(), 4);
        let mut per_host = [0; 2];
        for a in &actions {
            if let Action::Create { host, .. } = a {
                per_host[host.raw() as usize] += 1;
            }
        }
        assert_eq!(per_host, [2, 2]);
    }

    #[test]
    fn prefers_the_fullest_feasible_host() {
        let mut c = cluster(2);
        // Pre-load host 1 with a 300% VM.
        let pre = add_job(&mut c, 0, 300);
        c.start_creation(pre, HostId(1), SimTime::ZERO, SimTime::from_secs(40));
        // A 100% job should join host 1 (fills it exactly), not empty host 0.
        let vm = add_job(&mut c, 1, 100);
        let actions = BackfillingPolicy::new().schedule(&c, &ctx());
        assert_eq!(
            actions,
            vec![Action::Create {
                vm,
                host: HostId(1)
            }]
        );
    }

    #[test]
    fn never_overcommits() {
        let mut c = cluster(1);
        for i in 0..3 {
            add_job(&mut c, i, 300);
        }
        let actions = BackfillingPolicy::new().schedule(&c, &ctx());
        assert_eq!(actions.len(), 1, "only one 300% VM fits a 400% node");
    }

    /// A random saturated world for the quick-reject differential test.
    /// Hosts come in three CPU and three memory sizes; some are shutting
    /// down. `load` VMs are created on a picked host while its memory
    /// lasts (CPU may be overcommitted, as escalated requests leave it);
    /// most finish creating, some get escalated, some start migrating.
    /// `queue` VMs wait, a few requiring 8-way hosts.
    fn saturated(
        hosts: &[(u8, u8, bool)],
        load: &[(u8, u8, u8)],
        queue: &[(u8, u8, u8)],
    ) -> Cluster {
        let t0 = SimTime::ZERO;
        let t40 = SimTime::from_secs(40);
        let specs = hosts
            .iter()
            .enumerate()
            .map(|(i, &(cores, gib, _))| HostSpec {
                cpu: Cpu::cores(2 << (cores % 3)),
                mem: Mem::gib(8 << (gib % 3)),
                ..HostSpec::standard(HostId(i as u32), HostClass::Medium)
            })
            .collect();
        let mut c = Cluster::new(specs, PowerState::On);
        let n = hosts.len() as u32;
        let job = |id: usize, cpu: u8, gib: u8| {
            Job::new(
                JobId(id as u64),
                t0,
                Cpu(25 * u32::from(cpu % 17)),
                Mem::gib(1 + u32::from(gib % 12)),
                SimDuration::from_secs(6000),
                1.5,
            )
        };
        for (k, &(pick, cpu, gib)) in load.iter().enumerate() {
            let vm = c.submit_job(job(k, cpu, gib));
            let h = HostId(u32::from(pick) % n);
            if !c.can_place_overcommitted(h, vm) {
                continue;
            }
            c.start_creation(vm, h, t0, t40);
            if k % 4 == 0 {
                continue;
            }
            c.finish_creation(vm, t40);
            if k % 5 == 0 {
                c.escalate_requested_cpu(vm, Cpu(c.vm(vm).req_cpu().points() * 3 / 2));
            }
            let to = HostId((h.raw() + 1) % n);
            if k % 7 == 0 && to != h && c.can_place_overcommitted(to, vm) {
                c.start_migration(vm, to, t40, SimTime::from_secs(100));
            }
        }
        for (k, &(cpu, gib, wide)) in queue.iter().enumerate() {
            let mut j = job(load.len() + k, cpu, gib);
            if wide % 8 == 0 {
                j.requirements.min_host_cpus = 8;
            }
            c.submit_job(j);
        }
        for (i, &(_, _, off)) in hosts.iter().enumerate() {
            let h = HostId(i as u32);
            if off && c.host(h).is_idle() {
                c.begin_power_off(h, t40);
            }
        }
        c.check_invariants();
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The per-round quick-reject only skips VMs no host could take:
        /// BF and DBF (both phases, periodic and arrival rounds) emit the
        /// same action lists with it as without it.
        #[test]
        fn quick_reject_never_changes_the_plan(
            hosts in vec((any::<u8>(), any::<u8>(), any::<bool>()), 1..10),
            load in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..80),
            queue in vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..60),
        ) {
            let c = saturated(&hosts, &load, &queue);
            let ready = ready_hosts(&c);
            let exhaustive = place_queue(&mut Planner::new(&c), &ready, false);
            prop_assert_eq!(BackfillingPolicy::new().schedule(&c, &ctx()), exhaustive);
            let dbf = crate::DynamicBackfillingPolicy::new();
            for reason in [ScheduleReason::Periodic, ScheduleReason::VmArrived] {
                let ctx = ScheduleContext { now: SimTime::from_secs(1000), reason };
                prop_assert_eq!(dbf.plan(&c, &ctx, true), dbf.plan(&c, &ctx, false));
            }
        }
    }

    #[test]
    fn skips_infeasible_but_places_rest() {
        let mut c = cluster(1);
        add_job(&mut c, 0, 400); // fills the node
        add_job(&mut c, 1, 100); // must wait
        add_job(&mut c, 2, 0); // zero-cpu job still placeable
        let actions = BackfillingPolicy::new().schedule(&c, &ctx());
        let vms: Vec<u64> = actions
            .iter()
            .map(|a| match a {
                Action::Create { vm, .. } => vm.raw(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(vms, vec![0, 2]);
    }
}
