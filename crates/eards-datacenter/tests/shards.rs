//! System tests of the sharded hierarchical solver under fault injection:
//! chaos runs with the shard spec armed on the policy must keep every
//! auditor invariant — in particular the light pass's "resident on two
//! hosts" and queued + placed + finished = admitted checks, which catch
//! a balancer that duplicates or drops a VM while re-homing it across
//! shard boundaries.

use eards_core::{ScoreConfig, ScoreScheduler};
use eards_datacenter::{small_datacenter, RunConfig, Runner};
use eards_model::{FaultPlan, HostClass, Policy, ShardMap, ShardSpec};
use eards_sim::SimDuration;
use eards_workload::{generate, SynthConfig, Trace};

fn world(hosts: u32, hours: u64, trace_seed: u64) -> (Vec<eards_model::HostSpec>, Trace) {
    let trace = generate(
        &SynthConfig {
            span: SimDuration::from_hours(hours),
            ..SynthConfig::grid5000_week()
        },
        trace_seed,
    );
    (small_datacenter(hosts, HostClass::Medium), trace)
}

/// chaos(2.0) with the sharded solver armed: rack outages, crashes,
/// aborted migrations and the cross-shard balancer all running at once,
/// and every light pass still finds each VM exactly once. Three trace/fault seeds so the
/// property is not an artifact of one schedule.
#[test]
fn chaos_runs_with_shards_keep_cross_shard_conservation() {
    for seed in [11u64, 29, 47] {
        let (h, t) = world(24, 2, seed);
        let num_hosts = h.len();
        let cfg = RunConfig {
            audit: true,
            seed,
            ..RunConfig::default()
        }
        .with_faults(FaultPlan::chaos(2.0));
        let spec = ShardSpec {
            count: 3,
            rack_size: 8,
        };
        let map = ShardMap::build(num_hosts, spec.rack_size, spec.count);
        assert!(
            map.num_shards() >= 2,
            "the case must realize a real partition, got {} shard(s)",
            map.num_shards()
        );
        let policy: Box<dyn Policy> =
            Box::new(ScoreScheduler::new(ScoreConfig::full()).with_shards(spec));
        let (report, _audit) = Runner::new(h, t, policy, cfg).run_audited();
        assert_eq!(
            report.faults.invariant_violations, 0,
            "seed {seed}: sharded chaos run broke an auditor invariant"
        );
        assert!(report.jobs_total > 0, "seed {seed}: run must do real work");
        assert!(
            report.creations > 0,
            "seed {seed}: sharded solver must place VMs"
        );
    }
}
