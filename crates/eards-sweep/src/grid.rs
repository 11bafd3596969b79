//! The shard grid: seed × policy × chaos × λ enumeration with stable keys.
//!
//! A sweep is the cartesian product of four what-if axes. Enumeration
//! order is the **merge order**: seed-major, then policy, then chaos
//! intensity, then (λ_min, λ_max) pair, exactly as the axes were given. The supervisor may finish
//! shards in any order (or retry them), but the merged report is always
//! assembled in enumeration order, which is what makes a parallel sweep
//! byte-identical to a serial one.

/// One cell of the sweep grid.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSpec {
    /// Position in enumeration (= merge) order.
    pub index: usize,
    /// Simulation seed (`RunConfig::seed`: operation jitter, failures).
    pub seed: u64,
    /// Policy name, as accepted by the CLI (`sb`, `bf`, …).
    pub policy: String,
    /// Chaos intensity (0 = no fault plan; see `FaultPlan::chaos`).
    pub chaos: f64,
    /// The (λ_min, λ_max) node power thresholds, in percent.
    pub lambda: (u32, u32),
}

impl ShardSpec {
    /// Stable, filesystem-safe shard key:
    /// `s<seed>-<policy>-x<chaos>-l<λ_min>-<λ_max>`. The chaos component
    /// uses Rust's shortest-round-trip `f64` display, so the same grid
    /// always produces the same keys.
    pub fn key(&self) -> String {
        let (lo, hi) = self.lambda;
        format!("s{}-{}-x{}-l{lo}-{hi}", self.seed, self.policy, self.chaos)
    }
}

/// The four axes of a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    /// Simulation seeds.
    pub seeds: Vec<u64>,
    /// Policy names.
    pub policies: Vec<String>,
    /// Chaos intensities.
    pub chaos: Vec<f64>,
    /// (λ_min, λ_max) percent pairs.
    pub lambdas: Vec<(u32, u32)>,
}

impl SweepGrid {
    /// Enumerates every shard in merge order (seed-major, then policy,
    /// then chaos, then λ pair); empty if any axis is.
    pub fn shards(&self) -> Vec<ShardSpec> {
        let mut out = Vec::new();
        for &seed in &self.seeds {
            for policy in &self.policies {
                for &chaos in &self.chaos {
                    for &lambda in &self.lambdas {
                        out.push(ShardSpec {
                            index: out.len(),
                            seed,
                            policy: policy.clone(),
                            chaos,
                            lambda,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> SweepGrid {
        SweepGrid {
            seeds: vec![7, 8],
            policies: vec!["sb".into(), "bf".into()],
            chaos: vec![0.0, 1.5],
            lambdas: vec![(30, 90), (50, 90)],
        }
    }

    #[test]
    fn enumeration_is_seed_major_and_indexed() {
        let shards = grid().shards();
        assert_eq!(shards.len(), 16);
        assert_eq!(shards[0].key(), "s7-sb-x0-l30-90");
        assert_eq!(shards[1].key(), "s7-sb-x0-l50-90");
        assert_eq!(shards[2].key(), "s7-sb-x1.5-l30-90");
        assert_eq!(shards[4].key(), "s7-bf-x0-l30-90");
        assert_eq!(shards[8].key(), "s8-sb-x0-l30-90");
        assert_eq!(shards[15].key(), "s8-bf-x1.5-l50-90");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.index, i);
        }
        // Pairs that share a bound still get distinct keys.
        let mut g = grid();
        g.lambdas = vec![(30, 50), (30, 90), (50, 90)];
        let mut keys: Vec<String> = g.shards().iter().map(ShardSpec::key).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 24);
    }

    #[test]
    fn keys_are_unique_and_stable() {
        let a: Vec<String> = grid().shards().iter().map(ShardSpec::key).collect();
        let b: Vec<String> = grid().shards().iter().map(ShardSpec::key).collect();
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len());
    }

    #[test]
    fn empty_axis_empties_the_grid() {
        for clear in [
            |g: &mut SweepGrid| g.chaos.clear(),
            |g: &mut SweepGrid| g.lambdas.clear(),
        ] {
            let mut g = grid();
            clear(&mut g);
            assert!(g.shards().is_empty());
        }
    }
}
