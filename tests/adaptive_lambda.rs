//! The adaptive-λ controller's feedback behaviour, isolated from the
//! ablation experiment.

use eards::datacenter::AdaptiveLambda;
use eards::prelude::*;

fn run_with_target(target: f64) -> RunReport {
    let hosts = eards::datacenter::small_datacenter(16, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_days(1),
            ..SynthConfig::grid5000_week()
        },
        17,
    );
    let cfg = RunConfig {
        adaptive_lambda: Some(AdaptiveLambda {
            target_satisfaction: target,
            ..AdaptiveLambda::default()
        }),
        ..RunConfig::default()
    };
    Runner::new(
        hosts,
        trace,
        Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        cfg,
    )
    .run()
}

#[test]
fn impossible_target_converges_to_the_conservative_bound() {
    // A 100% target can never be comfortably exceeded for long, so the
    // controller keeps relaxing λ_min toward its lower bound — maximum
    // capacity retention, highest energy.
    let strict = run_with_target(100.0);
    let loose = run_with_target(50.0);
    assert!(
        strict.energy_kwh > loose.energy_kwh,
        "a 100% target must hold more nodes online than a 50% target: {} vs {}",
        strict.energy_kwh,
        loose.energy_kwh
    );
    assert!(strict.satisfaction_pct >= loose.satisfaction_pct - 0.5);
}

#[test]
fn trivial_target_converges_to_the_aggressive_bound() {
    // A 50% target is always comfortably met, so the controller tightens
    // λ_min to its upper bound — close to the most aggressive static run.
    let adaptive = run_with_target(50.0);
    let hosts = eards::datacenter::small_datacenter(16, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_days(1),
            ..SynthConfig::grid5000_week()
        },
        17,
    );
    let static_aggressive = Runner::new(
        hosts,
        trace,
        Box::new(ScoreScheduler::new(ScoreConfig::sb())),
        RunConfig::default().with_lambdas(80, 90),
    )
    .run();
    // Within 25% of the aggressive-static energy (the controller spends
    // the early trace converging).
    assert!(
        adaptive.energy_kwh <= static_aggressive.energy_kwh * 1.25,
        "adaptive {} vs static-aggressive {}",
        adaptive.energy_kwh,
        static_aggressive.energy_kwh
    );
}

#[test]
fn adaptive_lambda_never_crosses_lambda_max() {
    // λ_min is clamped strictly below λ_max even when the target is
    // trivially satisfied; the run completing (the on/off controller
    // requires λ_min < λ_max to make sense) is the regression signal.
    let report = run_with_target(10.0);
    assert_eq!(report.jobs_completed, report.jobs_total);
}

#[test]
fn restoring_without_adaptive_lambda_drops_the_pending_adjustment() {
    // A snapshot taken mid-run carries a pending `LambdaAdjust`. Restored
    // into a config without the controller, that event must be dropped
    // rather than bring the run down.
    let hosts = eards::datacenter::small_datacenter(16, HostClass::Medium);
    let trace = eards::workload::generate(
        &SynthConfig {
            span: SimDuration::from_hours(6),
            ..SynthConfig::grid5000_week()
        },
        17,
    );
    let adaptive = RunConfig {
        adaptive_lambda: Some(AdaptiveLambda::default()),
        ..RunConfig::default()
    };
    let policy = || Box::new(ScoreScheduler::new(ScoreConfig::sb()));
    let mut run = Runner::new(hosts.clone(), trace.clone(), policy(), adaptive.clone());
    for _ in 0..50 {
        assert!(run.step_batch(), "the run must still be going");
    }
    let bytes = run.snapshot().unwrap();
    let plain = RunConfig {
        adaptive_lambda: None,
        ..adaptive
    };
    let report = Runner::restore(hosts, trace, policy(), plain, &bytes)
        .unwrap()
        .run();
    assert_eq!(report.jobs_completed, report.jobs_total);
}
