//! Job typologies.
//!
//! §V of the paper assigns each Grid5000 job a deadline factor "between 1.2
//! and 2 depending on the job and user typology". We model four grid-user
//! typologies with distinct resource/runtime profiles; the synthetic
//! generator draws jobs from a weighted mix of them.

use eards_sim::SimRng;

/// A class of jobs with a characteristic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobClass {
    /// Short sequential tasks (test runs, small analyses): 1 vCPU, minutes.
    /// Loose deadlines (factor 2.0) — nobody babysits them.
    SmallSequential,
    /// Standard batch work: 1–2 vCPUs, tens of minutes to an hour or two.
    MediumBatch,
    /// Long-running computations: 2–4 vCPUs, hours, heavy-tailed.
    /// Tight deadlines (factor 1.2–1.3) — results are being waited on.
    LongCompute,
    /// Bag-of-tasks bursts: several identical 1-vCPU tasks submitted
    /// together (the classic grid pattern).
    BagOfTasks,
}

impl JobClass {
    /// All classes, in a stable order.
    pub const ALL: [JobClass; 4] = [
        JobClass::SmallSequential,
        JobClass::MediumBatch,
        JobClass::LongCompute,
        JobClass::BagOfTasks,
    ];

    /// Default mix weights (fractions of *arrival events*, not of load).
    /// Grid traces are dominated by small jobs by count while long jobs
    /// and bag-of-tasks campaigns carry most of the load.
    pub fn default_weight(self) -> f64 {
        match self {
            JobClass::SmallSequential => 0.25,
            JobClass::MediumBatch => 0.30,
            JobClass::LongCompute => 0.20,
            JobClass::BagOfTasks => 0.25,
        }
    }

    /// Samples a CPU demand (percent points) for one job of this class.
    pub fn sample_cpu(self, rng: &mut SimRng) -> u32 {
        match self {
            JobClass::SmallSequential => 100,
            JobClass::MediumBatch => {
                if rng.chance(0.4) {
                    200
                } else {
                    100
                }
            }
            JobClass::LongCompute => match rng.weighted_index(&[0.5, 0.3, 0.2]) {
                0 => 200,
                1 => 300,
                _ => 400,
            },
            JobClass::BagOfTasks => 100,
        }
    }

    /// Samples a memory demand in MiB.
    pub fn sample_mem_mib(self, rng: &mut SimRng) -> u32 {
        let gib = match self {
            JobClass::SmallSequential => 1,
            JobClass::MediumBatch => 1 + rng.index(2) as u32, // 1–2 GiB
            JobClass::LongCompute => 2 + rng.index(3) as u32, // 2–4 GiB
            JobClass::BagOfTasks => 1,
        };
        gib * 1024
    }

    /// Samples a dedicated-machine runtime in seconds.
    pub fn sample_runtime_secs(self, rng: &mut SimRng) -> f64 {
        match self {
            // Median ~8 min, spread ×2.
            JobClass::SmallSequential => rng
                .log_normal((8.0f64 * 60.0).ln(), 0.7)
                .clamp(30.0, 3600.0),
            // Median ~45 min.
            JobClass::MediumBatch => rng
                .log_normal((45.0f64 * 60.0).ln(), 0.6)
                .clamp(300.0, 4.0 * 3600.0),
            // Heavy tail: 1–12 h.
            JobClass::LongCompute => rng.bounded_pareto(1.1, 3600.0, 12.0 * 3600.0),
            // Tasks in a bag are small and uniform-ish.
            JobClass::BagOfTasks => rng
                .log_normal((30.0f64 * 60.0).ln(), 0.5)
                .clamp(120.0, 2.0 * 3600.0),
        }
    }

    /// Samples a deadline factor in the paper's 1.2–2.0 range.
    pub fn sample_deadline_factor(self, rng: &mut SimRng) -> f64 {
        match self {
            JobClass::SmallSequential => rng.uniform_range(1.8, 2.0),
            JobClass::MediumBatch => rng.uniform_range(1.4, 1.8),
            JobClass::LongCompute => rng.uniform_range(1.2, 1.4),
            JobClass::BagOfTasks => rng.uniform_range(1.2, 1.5),
        }
    }

    /// Samples the user's runtime *over*estimation multiplier (≥ 1).
    /// Roughly half of grid users request exactly what they measured
    /// before; the rest pad generously — the classic workload-archive
    /// finding that estimates are poor.
    pub fn sample_estimate_factor(self, rng: &mut SimRng) -> f64 {
        if rng.chance(0.5) {
            1.0
        } else {
            1.0 + rng.exponential(1.5).min(2.0)
        }
    }

    /// Number of tasks submitted together (1 except for bags).
    ///
    /// Real grid campaigns are heavy-tailed: most bags are a handful of
    /// tasks, but campaigns of many tens arrive regularly — those bursts
    /// are what overwhelms load-oblivious placement (the paper's RD/RR
    /// rows in Table II) and builds queues even for Backfilling.
    pub fn sample_batch_size(self, rng: &mut SimRng) -> usize {
        match self {
            JobClass::BagOfTasks => rng.bounded_pareto(0.9, 4.0, 120.0).round() as usize,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let total: f64 = JobClass::ALL.iter().map(|c| c.default_weight()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn samples_stay_in_declared_ranges() {
        let mut rng = SimRng::seed_from_u64(1);
        for class in JobClass::ALL {
            for _ in 0..500 {
                let cpu = class.sample_cpu(&mut rng);
                assert!((100..=400).contains(&cpu), "{class:?} cpu {cpu}");
                assert_eq!(cpu % 100, 0, "whole vCPUs only");
                let mem = class.sample_mem_mib(&mut rng);
                assert!((1024..=4096).contains(&mem));
                let rt = class.sample_runtime_secs(&mut rng);
                assert!((30.0..=12.0 * 3600.0).contains(&rt), "{class:?} rt {rt}");
                let f = class.sample_deadline_factor(&mut rng);
                assert!((1.2..=2.0).contains(&f), "{class:?} factor {f}");
                let b = class.sample_batch_size(&mut rng);
                if class == JobClass::BagOfTasks {
                    assert!((4..=120).contains(&b), "bag size {b}");
                } else {
                    assert_eq!(b, 1);
                }
            }
        }
    }

    #[test]
    fn long_jobs_are_longer_than_small_jobs() {
        let mut rng = SimRng::seed_from_u64(2);
        let avg = |class: JobClass, rng: &mut SimRng| -> f64 {
            (0..2000)
                .map(|_| class.sample_runtime_secs(rng))
                .sum::<f64>()
                / 2000.0
        };
        let small = avg(JobClass::SmallSequential, &mut rng);
        let long = avg(JobClass::LongCompute, &mut rng);
        assert!(long > 4.0 * small, "long {long} vs small {small}");
    }

    #[test]
    fn long_compute_has_tightest_deadlines() {
        let mut rng = SimRng::seed_from_u64(3);
        let avg = |class: JobClass, rng: &mut SimRng| -> f64 {
            (0..1000)
                .map(|_| class.sample_deadline_factor(rng))
                .sum::<f64>()
                / 1000.0
        };
        assert!(avg(JobClass::LongCompute, &mut rng) < avg(JobClass::SmallSequential, &mut rng));
    }
}
