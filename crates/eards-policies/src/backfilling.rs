//! The Backfilling (BF) baseline of Table II: "tries to fill as much as
//! possible the nodes".
//!
//! Best-fit consolidation without migration: each queued VM goes to the
//! *most occupied* powered-on host where it still fits strictly
//! (occupation ≤ 100%). If no host fits, the VM waits in the queue — BF
//! never overcommits, which is why it reaches 98% satisfaction at a
//! fraction of RD/RR's power in Table II.

use eards_model::{
    Action, Cluster, HostId, Policy, Requirements, Resources, ScheduleContext, VmId,
};

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
/// `quick_reject` turns on two skips, each of a VM no host could take,
/// so the actions are the same either way (a differential test checks
/// this; `false` is the exhaustive reference):
///
/// - *Bound.* A VM whose request exceeds the round's
///   [`Cluster::max_free_on`] bound is skipped without probing any host.
///   The bound is taken once, before the first commit, over the On hosts
///   (exactly the `ready` set, as `is_ready()` is `== On`), and stays
///   valid all round because commits only shrink free capacity.
/// - *Failure frontier.* Each VM [`best_fit`] places nowhere records its
///   `(request, requirements)`. A later VM with equal requirements and a
///   request at least as large in both CPU and memory is skipped: commits
///   only add load, a queued VM has no current host, and a strict fit is
///   monotone in the request, so it would fail on every host too. Debug
///   builds re-probe every such skip and assert that it finds no host.
pub(crate) fn place_queue(
    planner: &mut Planner<'_>,
    ready: &[HostId],
    quick_reject: bool,
) -> Vec<Action> {
    let cluster = planner.cluster();
    let room = quick_reject.then(|| cluster.max_free_on());
    let mut failed: Vec<(Resources, Requirements)> = Vec::new();
    let mut actions = Vec::new();
    for &vm in cluster.queue() {
        let requested = cluster.vm(vm).requested;
        if room.is_some_and(|room| !requested.fits_in(room)) {
            continue;
        }
        let requirements = cluster.job(vm).requirements;
        let dominated = failed
            .iter()
            .any(|&(f, r)| r == requirements && f.fits_in(requested));
        if dominated {
            debug_assert!(
                best_fit(planner, ready, vm).is_none(),
                "frontier skipped {vm}, which fits"
            );
            continue;
        }
        match best_fit(planner, ready, vm) {
            Some(host) => {
                planner.commit(host, vm);
                actions.push(Action::Create { vm, host });
            }
            None if quick_reject => failed.push((requested, requirements)),
            None => {}
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
    use eards_model::{
        Arch, Cpu, HostClass, HostSpec, Hypervisor, Job, JobId, Mem, PowerState, ScheduleReason,
    };
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
        add_sized(c, id, cpu, 1, Requirements::ANY)
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

    /// Two 4-way, 16 GiB hosts: host 0 keeps 300 CPU and 2 GiB free,
    /// host 1 keeps 100 CPU and 12 GiB. `max_free_on` is (300, 12 GiB), so
    /// a (200, 4 GiB) VM passes the bound yet fits neither host.
    fn lopsided() -> Cluster {
        let mut c = cluster(2);
        for (id, host, cpu, gib) in [(0, 0, 100, 14), (1, 1, 300, 4)] {
            let vm = add_sized(&mut c, id, cpu, gib, Requirements::ANY);
            c.start_creation(vm, HostId(host), SimTime::ZERO, SimTime::from_secs(40));
        }
        c
    }

    fn add_sized(c: &mut Cluster, id: u64, cpu: u32, gib: u32, req: Requirements) -> VmId {
        let mut job = Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(cpu),
            Mem::gib(gib),
            SimDuration::from_secs(600),
            1.5,
        );
        job.requirements = req;
        c.submit_job(job)
    }

    /// BF's actions, checked against the exhaustive reference.
    fn plan(c: &Cluster) -> Vec<Action> {
        let actions = BackfillingPolicy::new().schedule(c, &ctx());
        let exhaustive = place_queue(&mut Planner::new(c), &ready_hosts(c), false);
        assert_eq!(actions, exhaustive);
        actions
    }

    #[test]
    fn frontier_probes_a_vm_smaller_in_one_component() {
        let mut c = lopsided();
        add_sized(&mut c, 2, 200, 4, Requirements::ANY); // fits nowhere
        let less_mem = add_sized(&mut c, 3, 200, 2, Requirements::ANY);
        let less_cpu = add_sized(&mut c, 4, 100, 4, Requirements::ANY);
        assert_eq!(
            plan(&c),
            vec![
                Action::Create {
                    vm: less_mem,
                    host: HostId(0)
                },
                Action::Create {
                    vm: less_cpu,
                    host: HostId(1)
                },
            ]
        );
    }

    #[test]
    fn frontier_probes_the_same_shape_with_other_requirements() {
        let mut c = cluster(2);
        let eight_way = Requirements {
            min_host_cpus: 8,
            ..Requirements::ANY
        };
        add_sized(&mut c, 0, 100, 1, eight_way); // no 8-way host
        let any = add_sized(&mut c, 1, 100, 1, Requirements::ANY);
        assert_eq!(
            plan(&c),
            vec![Action::Create {
                vm: any,
                host: HostId(0)
            }]
        );
    }

    #[test]
    fn frontier_skips_equal_and_larger_shapes() {
        let mut c = lopsided();
        // This fits nowhere. Each VM of the loop is at least as large and
        // passes the (300, 12 GiB) bound, so only the frontier skips it;
        // debug builds re-probe each skip and assert it finds no host.
        add_sized(&mut c, 2, 200, 4, Requirements::ANY);
        for (id, cpu, gib) in [(3, 200, 4), (4, 250, 4), (5, 200, 12), (6, 300, 12)] {
            add_sized(&mut c, id, cpu, gib, Requirements::ANY);
        }
        let fits = add_sized(&mut c, 7, 100, 2, Requirements::ANY);
        assert_eq!(
            plan(&c),
            vec![Action::Create {
                vm: fits,
                host: HostId(0)
            }]
        );
    }

    /// A random saturated world for the quick-reject differential test.
    /// Hosts come in three CPU and three memory sizes, two architectures
    /// and two hypervisors; some are shutting down. `load` VMs are created
    /// on a picked host while its memory lasts (CPU may be overcommitted,
    /// as escalated requests leave it); most finish creating, some get
    /// escalated, some start migrating. `queue` VMs wait. About one in
    /// three repeats an earlier queued VM's shape and requirements, as the
    /// tasks of a bag do, and about three in eight require an 8-way host,
    /// the 32-bit architecture or KVM.
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
                arch: if cores & 8 == 0 {
                    Arch::X86_64
                } else {
                    Arch::X86
                },
                hypervisor: if gib & 8 == 0 {
                    Hypervisor::Xen
                } else {
                    Hypervisor::Kvm
                },
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
        let mut shapes: Vec<(u8, u8, u8)> = Vec::new();
        for (k, &drawn) in queue.iter().enumerate() {
            let (cpu, gib, kind) = match shapes.len() {
                n if n > 0 && drawn.2 % 3 == 0 => shapes[usize::from(drawn.0) % n],
                _ => drawn,
            };
            shapes.push((cpu, gib, kind));
            let mut j = job(load.len() + k, cpu, gib);
            j.requirements = match kind / 3 % 8 {
                0 => Requirements {
                    min_host_cpus: 8,
                    ..Requirements::ANY
                },
                1 => Requirements {
                    arch: Some(Arch::X86),
                    ..Requirements::ANY
                },
                2 => Requirements {
                    hypervisor: Some(Hypervisor::Kvm),
                    ..Requirements::ANY
                },
                _ => Requirements::ANY,
            };
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
