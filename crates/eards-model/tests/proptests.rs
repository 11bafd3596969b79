//! Property tests for the datacenter model: credit-scheduler invariants,
//! power-model laws, occupation math, and a random-operation state
//! machine over the cluster.

use proptest::prelude::*;

use eards_model::xen::{allocate, CpuContender};
use eards_model::{
    CalibratedPowerModel, Cluster, Cpu, HostClass, HostId, HostSpec, Job, JobId, Mem, PowerModel,
    PowerState, Resources, ShardMap, VmId, VmState,
};
use eards_sim::{Persist, Reader, SimDuration, SimTime, Writer};

fn contender_strategy() -> impl Strategy<Value = CpuContender> {
    (0.0f64..500.0, 1.0f64..1024.0, 0.0f64..500.0).prop_map(|(demand, weight, cap)| CpuContender {
        demand,
        weight,
        cap,
    })
}

proptest! {
    /// Weighted max–min fairness invariants (§IV's Xen model).
    #[test]
    fn xen_allocation_invariants(
        capacity in 0.0f64..1600.0,
        contenders in proptest::collection::vec(contender_strategy(), 0..12),
    ) {
        let alloc = allocate(capacity, &contenders);
        prop_assert_eq!(alloc.len(), contenders.len());
        let mut total = 0.0;
        let mut total_bound = 0.0;
        for (a, c) in alloc.iter().zip(&contenders) {
            let bound = c.demand.min(c.cap).max(0.0);
            prop_assert!(*a >= -1e-9, "negative allocation {a}");
            prop_assert!(*a <= bound + 1e-6, "allocation {a} exceeds bound {bound}");
            total += a;
            total_bound += bound;
        }
        prop_assert!(total <= capacity + 1e-6, "over-allocated {total} > {capacity}");
        // Work conservation: all capacity used when demand saturates it.
        if total_bound >= capacity {
            prop_assert!((total - capacity).abs() < 1e-6,
                "not work conserving: {total} of {capacity} (bound {total_bound})");
        } else {
            // Unconstrained: everyone gets their bound.
            prop_assert!((total - total_bound).abs() < 1e-6);
        }
    }

    /// Adding a contender never increases anyone else's allocation.
    #[test]
    fn xen_allocation_is_monotone_in_contention(
        capacity in 100.0f64..800.0,
        base in proptest::collection::vec(contender_strategy(), 1..8),
        extra in contender_strategy(),
    ) {
        let before = allocate(capacity, &base);
        let mut bigger = base.clone();
        bigger.push(extra);
        let after = allocate(capacity, &bigger);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(*a <= b + 1e-6, "allocation rose from {b} to {a} under more contention");
        }
    }

    /// The calibrated power model is monotone and bounded by its endpoints.
    #[test]
    fn power_model_monotone_and_bounded(cpu_a in 0.0f64..500.0, cpu_b in 0.0f64..500.0) {
        let m = CalibratedPowerModel::paper_4way();
        let cap = Cpu::cores(4);
        let pa = m.power_watts(cpu_a, cap);
        let pb = m.power_watts(cpu_b, cap);
        prop_assert!((230.0..=304.0).contains(&pa));
        if cpu_a <= cpu_b {
            prop_assert!(pa <= pb + 1e-12);
        }
    }

    /// The shard map is a true partition of the host-id space, for every
    /// `(num_hosts, rack_size, shards)` triple: deterministic, every host
    /// in exactly one shard, internal boundaries rack-aligned, and stable
    /// through its `Persist` round trip (snapshot/restore cannot change
    /// which shard owns a host).
    #[test]
    fn shard_map_is_a_true_partition(
        num_hosts in 1usize..3000,
        rack_size in 1u32..33,
        shards in 0u32..64,
    ) {
        let m = ShardMap::build(num_hosts, rack_size, shards);
        // Pure integer function of its inputs: rebuilding is bit-equal.
        prop_assert_eq!(&ShardMap::build(num_hosts, rack_size, shards), &m);
        prop_assert!(m.verify(num_hosts).is_ok());
        let mut seen = vec![0u32; num_hosts];
        for s in 0..m.num_shards() {
            prop_assert_eq!(
                m.hosts(s).start % rack_size as usize, 0,
                "shard {} starts mid-rack at {}", s, m.hosts(s).start
            );
            for h in m.hosts(s) {
                seen[h] += 1;
                prop_assert_eq!(m.shard_of(h), s);
            }
        }
        prop_assert!(
            seen.iter().all(|&c| c == 1),
            "{}h/{}rs/{}s is not a partition: {:?}", num_hosts, rack_size, shards, seen
        );
        let mut w = Writer::default();
        m.persist(&mut w);
        let bytes = w.into_bytes().expect("boundary vector fits any length budget");
        let mut r = Reader::new(&bytes);
        let back = ShardMap::restore(&mut r).expect("round trip");
        r.finish().expect("fully consumed");
        prop_assert_eq!(back, m);
    }

    /// Occupation is the max over per-resource utilizations, scale-free.
    #[test]
    fn occupation_laws(cpu in 0u32..2000, mem in 0u32..40_000) {
        let cap = Resources::new(Cpu(400), Mem(16_384));
        let used = Resources::new(Cpu(cpu), Mem(mem));
        let occ = used.occupation_in(cap);
        let cpu_frac = f64::from(cpu) / 400.0;
        let mem_frac = f64::from(mem) / 16_384.0;
        prop_assert!((occ - cpu_frac.max(mem_frac)).abs() < 1e-12);
        prop_assert!(occ >= 0.0);
    }
}

/// Random-operation state machine over the cluster: any legal sequence of
/// submit / create / abort-create / finish-create / migrate /
/// abort-migrate / finish-migrate / complete / fail / escalate / snapshot
/// round trip preserves the structural invariants, and keeps every host's
/// committed cache equal to the fold over its VMs' requests.
#[derive(Debug, Clone)]
enum ClusterOp {
    Submit { cpu_idx: u8, host_bias: u8 },
    AbortCreation(u8),
    FinishCreation(u8),
    StartMigration { vm: u8, to: u8 },
    AbortMigration(u8),
    FinishMigration(u8),
    CompleteJob(u8),
    FailHost(u8),
    RepairAndBoot(u8),
    Escalate { vm: u8, cpu: u8 },
    RoundTrip,
}

fn cluster_op_strategy() -> impl Strategy<Value = ClusterOp> {
    prop_oneof![
        4 => (any::<u8>(), any::<u8>()).prop_map(|(c, h)| ClusterOp::Submit { cpu_idx: c, host_bias: h }),
        1 => any::<u8>().prop_map(ClusterOp::AbortCreation),
        3 => any::<u8>().prop_map(ClusterOp::FinishCreation),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(vm, to)| ClusterOp::StartMigration { vm, to }),
        1 => any::<u8>().prop_map(ClusterOp::AbortMigration),
        2 => any::<u8>().prop_map(ClusterOp::FinishMigration),
        2 => any::<u8>().prop_map(ClusterOp::CompleteJob),
        1 => any::<u8>().prop_map(ClusterOp::FailHost),
        1 => any::<u8>().prop_map(ClusterOp::RepairAndBoot),
        2 => (any::<u8>(), any::<u8>()).prop_map(|(vm, cpu)| ClusterOp::Escalate { vm, cpu }),
        1 => Just(ClusterOp::RoundTrip),
    ]
}

/// The VMs whose state satisfies `pred`, in id order.
fn in_state(cluster: &Cluster, pred: impl Fn(VmState) -> bool) -> Vec<VmId> {
    cluster
        .vms()
        .filter(|v| pred(v.state))
        .map(|v| v.id)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn cluster_state_machine_preserves_invariants(
        ops in proptest::collection::vec(cluster_op_strategy(), 1..120),
    ) {
        const N: u32 = 5;
        let specs = (0..N)
            .map(|i| HostSpec::standard(HostId(i), HostClass::Medium))
            .collect();
        let mut cluster = Cluster::new(specs, PowerState::On);
        let mut clock = 0u64;
        let mut next_job = 0u64;

        for op in ops {
            clock += 10;
            let now = SimTime::from_secs(clock);
            let later = SimTime::from_secs(clock + 60);
            match op {
                ClusterOp::Submit { cpu_idx, host_bias } => {
                    let cpu = Cpu(100 * (1 + u32::from(cpu_idx % 4)));
                    let vm = cluster.submit_job(Job::new(
                        JobId(next_job), now, cpu, Mem::gib(1),
                        SimDuration::from_secs(600), 1.5,
                    ));
                    next_job += 1;
                    // Try to start creating it somewhere.
                    for k in 0..N {
                        let h = HostId((u32::from(host_bias) + k) % N);
                        if cluster.can_place_overcommitted(h, vm) {
                            cluster.start_creation(vm, h, now, later);
                            break;
                        }
                    }
                }
                ClusterOp::AbortCreation(pick) => {
                    let creating = in_state(&cluster, |s| matches!(s, VmState::Creating { .. }));
                    if !creating.is_empty() {
                        cluster.abort_creation(creating[usize::from(pick) % creating.len()], now);
                    }
                }
                ClusterOp::FinishCreation(pick) => {
                    let creating = in_state(&cluster, |s| matches!(s, VmState::Creating { .. }));
                    if !creating.is_empty() {
                        let vm = creating[usize::from(pick) % creating.len()];
                        cluster.finish_creation(vm, now);
                        let VmState::Running { host } = cluster.vm(vm).state else {
                            panic!("a finished creation runs");
                        };
                        cluster.reallocate_host(host, now);
                    }
                }
                ClusterOp::StartMigration { vm, to } => {
                    let running = in_state(&cluster, |s| matches!(s, VmState::Running { .. }));
                    if running.is_empty() { continue; }
                    let vm = running[usize::from(vm) % running.len()];
                    let target = HostId(u32::from(to) % N);
                    if cluster.vm(vm).state.host() != Some(target)
                        && cluster.can_place_overcommitted(target, vm)
                    {
                        cluster.start_migration(vm, target, now, later);
                    }
                }
                ClusterOp::AbortMigration(pick) => {
                    let migrating =
                        in_state(&cluster, |s| matches!(s, VmState::Migrating { .. }));
                    if !migrating.is_empty() {
                        cluster.abort_migration(migrating[usize::from(pick) % migrating.len()], now);
                    }
                }
                ClusterOp::FinishMigration(pick) => {
                    let migrating = in_state(&cluster, |s| matches!(s, VmState::Migrating { .. }));
                    if !migrating.is_empty() {
                        let vm = migrating[usize::from(pick) % migrating.len()];
                        cluster.finish_migration(vm, now);
                    }
                }
                ClusterOp::CompleteJob(pick) => {
                    let running = in_state(&cluster, |s| matches!(s, VmState::Running { .. }));
                    if !running.is_empty() {
                        let vm = running[usize::from(pick) % running.len()];
                        cluster.finish_vm(vm, now);
                    }
                }
                ClusterOp::FailHost(pick) => {
                    let h = HostId(u32::from(pick) % N);
                    if cluster.host(h).power == PowerState::On {
                        cluster.fail_host(h, now);
                    }
                }
                ClusterOp::RepairAndBoot(pick) => {
                    let h = HostId(u32::from(pick) % N);
                    if cluster.host(h).power == PowerState::Failed {
                        cluster.repair_host(h);
                        cluster.begin_power_on(h, now);
                        cluster.complete_power_on(h);
                    }
                }
                ClusterOp::Escalate { vm, cpu } => {
                    // Any placed or queued VM, any request up to 5 cores.
                    let live = in_state(&cluster, |s| s != VmState::Finished);
                    if !live.is_empty() {
                        let vm = live[usize::from(vm) % live.len()];
                        cluster.escalate_requested_cpu(vm, Cpu(2 * u32::from(cpu)));
                    }
                }
                ClusterOp::RoundTrip => {
                    let mut w = Writer::default();
                    cluster.persist(&mut w);
                    let bytes = w.into_bytes().expect("small cluster fits the budget");
                    let mut r = Reader::new(&bytes);
                    let back = Cluster::restore(&mut r).expect("round trip");
                    r.finish().expect("fully consumed");
                    let mut again = Writer::default();
                    back.persist(&mut again);
                    prop_assert_eq!(again.into_bytes().expect("same size"), bytes);
                    cluster = back;
                }
            }
            cluster.check_invariants();

            // The committed cache equals the fold over each host's
            // resident and incoming VMs.
            for h in cluster.hosts() {
                let fold = h.resident.iter().chain(&h.incoming)
                    .fold(Resources::ZERO, |acc, &vm| acc.plus(cluster.vm(vm).requested));
                prop_assert_eq!(cluster.committed(h.spec.id), fold, "cache of {}", h.spec.id);
            }

            // Memory is never overcommitted, whatever the sequence did.
            for i in 0..N {
                let h = HostId(i);
                let committed = cluster.committed(h);
                prop_assert!(
                    committed.mem <= cluster.host(h).spec.capacity().mem,
                    "memory overcommitted on {h}"
                );
            }
        }
    }
}
