//! Rack-aligned cluster sharding for the hierarchical solver.
//!
//! A [`ShardMap`] partitions the host-id space `0..num_hosts` into
//! contiguous, rack-aligned ranges. Shard boundaries never split a rack
//! (the consecutive-id racks of [`RackPlan`](crate::RackPlan)), so a
//! correlated rack outage stays inside one shard and the fault-domain
//! structure the paper's §III-A.6 penalty models is preserved by the
//! partition.
//!
//! The map is a pure function of `(num_hosts, rack_size, shards)` —
//! integer arithmetic only, no RNG — so it is deterministic across runs.
//! The scheduler derives it from its [`ShardSpec`] and the cluster's host
//! count every round; it is never persisted.

/// How a policy should shard the cluster: how many shards to aim for and
/// the rack granularity boundaries must respect.
///
/// `count` is a *request*: the realized map never has more shards than
/// racks (a rack is never split), so [`ShardMap::build`] clamps it to
/// `[1, num_racks]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Requested shard count (≥ 1).
    pub count: u32,
    /// Hosts per rack (consecutive ids; the last rack may be smaller).
    pub rack_size: u32,
}

/// A partition of `0..num_hosts` into contiguous rack-aligned ranges.
///
/// Internally a boundary vector `starts` with `starts[0] == 0`,
/// `starts.last() == num_hosts`, strictly increasing — shard `s` owns
/// hosts `starts[s]..starts[s + 1]`. Every host id belongs to exactly
/// one shard by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    starts: Vec<u32>,
}

impl ShardMap {
    /// The trivial single-shard map covering `0..num_hosts`.
    ///
    /// # Panics
    /// Panics if `num_hosts` is zero — an empty cluster has no partition.
    pub fn single(num_hosts: usize) -> ShardMap {
        ShardMap::build(num_hosts, 8, 1)
    }

    /// Partition `num_hosts` hosts into at most `shards` rack-aligned
    /// contiguous ranges.
    ///
    /// Racks are `rack_size` consecutive ids (the last may be smaller).
    /// The realized shard count is `shards` clamped to `[1, num_racks]`;
    /// shard `s` owns racks `⌊s·R/S⌋..⌊(s+1)·R/S⌋`, so shard sizes differ
    /// by at most one rack and the whole construction is deterministic
    /// integer math.
    ///
    /// # Panics
    /// Panics if `num_hosts` or `rack_size` is zero, or if `num_hosts`
    /// exceeds `u32::MAX`.
    pub fn build(num_hosts: usize, rack_size: u32, shards: u32) -> ShardMap {
        assert!(num_hosts > 0, "shard map over an empty cluster");
        assert!(rack_size > 0, "rack size must be positive");
        assert!(num_hosts <= u32::MAX as usize, "host count exceeds u32");
        let num_hosts = num_hosts as u32;
        let racks = num_hosts.div_ceil(rack_size);
        let s = shards.clamp(1, racks);
        let mut starts = Vec::with_capacity(s as usize + 1);
        for i in 0..s {
            // Rack-index boundary ⌊i·R/S⌋, converted to a host id.
            let rack = (u64::from(i) * u64::from(racks) / u64::from(s)) as u32;
            starts.push((rack * rack_size).min(num_hosts));
        }
        starts.push(num_hosts);
        let map = ShardMap { starts };
        debug_assert!(map.verify(num_hosts as usize).is_ok());
        map
    }

    /// Number of shards in the partition.
    pub fn num_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of hosts covered by the partition.
    pub fn num_hosts(&self) -> usize {
        // The boundary vector is never empty by construction.
        self.starts.last().copied().unwrap_or(0) as usize
    }

    /// The shard owning host `h`.
    ///
    /// # Panics
    /// Panics if `h` is outside `0..num_hosts`.
    pub fn shard_of(&self, h: usize) -> usize {
        assert!(h < self.num_hosts(), "host {h} outside the shard map");
        // First boundary strictly greater than h, minus one.
        self.starts.partition_point(|&s| s as usize <= h) - 1
    }

    /// The host-id range owned by shard `s`.
    pub fn hosts(&self, s: usize) -> std::ops::Range<usize> {
        self.starts[s] as usize..self.starts[s + 1] as usize
    }

    /// Check the partition invariants against a cluster of `num_hosts`
    /// hosts: boundaries strictly increasing, starting at 0, ending at
    /// `num_hosts`. Returns a human-readable description of the first
    /// violation, if any.
    pub fn verify(&self, num_hosts: usize) -> Result<(), String> {
        if self.starts.first() != Some(&0) {
            return Err("shard map does not start at host 0".into());
        }
        if self.num_hosts() != num_hosts {
            return Err(format!(
                "shard map covers {} hosts, cluster has {num_hosts}",
                self.num_hosts()
            ));
        }
        for (&a, &b) in self.starts.iter().zip(self.starts.iter().skip(1)) {
            if a >= b {
                return Err(format!("shard boundary {a} not increasing to {b}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_shard_covers_everything() {
        let m = ShardMap::single(13);
        assert_eq!(m.num_shards(), 1);
        assert_eq!(m.hosts(0), 0..13);
        assert_eq!(m.shard_of(0), 0);
        assert_eq!(m.shard_of(12), 0);
    }

    #[test]
    fn boundaries_are_rack_aligned() {
        let m = ShardMap::build(100, 8, 4);
        assert_eq!(m.num_shards(), 4);
        for s in 0..m.num_shards() {
            // Every internal boundary is a multiple of the rack size.
            assert_eq!(m.hosts(s).start % 8, 0, "shard {s} splits a rack");
        }
        assert!(m.verify(100).is_ok());
    }

    #[test]
    fn shard_count_clamps_to_rack_count() {
        // 20 hosts at rack size 8 → 3 racks; asking for 16 shards gets 3.
        let m = ShardMap::build(20, 8, 16);
        assert_eq!(m.num_shards(), 3);
        assert_eq!(m.hosts(0), 0..8);
        assert_eq!(m.hosts(1), 8..16);
        assert_eq!(m.hosts(2), 16..20);
    }

    #[test]
    fn every_host_in_exactly_one_shard() {
        for &(n, rs, s) in &[(1usize, 1u32, 1u32), (7, 3, 2), (64, 8, 8), (1000, 8, 7)] {
            let m = ShardMap::build(n, rs, s);
            let mut seen = vec![0u32; n];
            for shard in 0..m.num_shards() {
                for h in m.hosts(shard) {
                    seen[h] += 1;
                    assert_eq!(m.shard_of(h), shard);
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{n}/{rs}/{s} not a partition");
        }
    }

    #[test]
    fn verify_rejects_broken_partitions() {
        let err = |starts: Vec<u32>, n: usize| ShardMap { starts }.verify(n).unwrap_err();
        assert!(err(vec![1, 5], 5).contains("does not start at host 0"));
        assert!(err(vec![0, 4, 8], 12).contains("covers 8 hosts, cluster has 12"));
        assert!(err(vec![0, 5, 3], 3).contains("boundary 5 not increasing to 3"));
        assert!(err(vec![0, 4, 4, 8], 8).contains("boundary 4 not increasing to 4"));
        assert!(ShardMap::build(12, 4, 3).verify(8).is_err());
    }
}
