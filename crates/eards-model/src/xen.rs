//! The Xen credit scheduler model: how a host divides its physical CPU
//! among competing VMs.
//!
//! The paper models "the Xen HyperScheduler ... including characteristics
//! like Virtual Machine Weights and Capabilities" (§IV). Xen's credit
//! scheduler is, at steady state, weighted proportional share with per-VM
//! caps: each VM receives CPU proportional to its weight, never more than
//! its cap or its demand, and CPU a VM cannot use is redistributed to the
//! others. That fixed point is exactly weighted max–min fairness, computed
//! here by iterative water-filling.

/// One VM's view of the CPU contention game.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuContender {
    /// CPU the VM wants (percent points).
    pub demand: f64,
    /// Scheduling weight (Xen default 256).
    pub weight: f64,
    /// Upper bound on what it may receive (Xen "cap"; typically
    /// `vcpus × 100`).
    pub cap: f64,
}

impl CpuContender {
    /// A contender with the Xen default weight and a cap equal to demand.
    pub fn simple(demand: f64) -> Self {
        CpuContender {
            demand,
            weight: 256.0,
            cap: demand,
        }
    }

    fn bound(&self) -> f64 {
        self.demand.min(self.cap).max(0.0)
    }
}

/// Divides `capacity` CPU (percent points) among `contenders` by weighted
/// max–min fairness. Returns one allocation per contender, in order.
///
/// ```
/// use eards_model::xen::allocate_simple;
///
/// // A 4-way node (400%) with demands 100 + 400: the small VM is
/// // satisfied, the big one receives the surplus.
/// let alloc = allocate_simple(400.0, &[100.0, 400.0]);
/// assert_eq!(alloc, vec![100.0, 300.0]);
/// ```
///
/// Invariants (property-tested):
/// * `0 ≤ alloc[i] ≤ min(demand[i], cap[i])`
/// * `Σ alloc ≤ capacity`
/// * work-conserving: if `Σ min(demand, cap) ≥ capacity` then
///   `Σ alloc = capacity` (up to float tolerance)
/// * unconstrained case: if everything fits, everyone gets their bound.
pub fn allocate(capacity: f64, contenders: &[CpuContender]) -> Vec<f64> {
    let n = contenders.len();
    let mut alloc = vec![0.0; n];
    if n == 0 || capacity <= 0.0 {
        return alloc;
    }

    let mut remaining = capacity;
    let mut active: Vec<usize> = (0..n).filter(|&i| contenders[i].bound() > 0.0).collect();

    // Water-filling: give each active contender its weighted share of the
    // remaining capacity; whoever's bound is below its share is satisfied
    // and leaves, freeing surplus for the rest. Each round retires at least
    // one contender, so this is O(n²) worst case — n is "VMs on one host",
    // a handful.
    while !active.is_empty() && remaining > 1e-9 {
        let total_weight: f64 = active.iter().map(|&i| contenders[i].weight).sum();
        if total_weight <= 0.0 {
            // Degenerate zero weights: split the remainder equally.
            let share = remaining / active.len() as f64;
            let mut progressed = false;
            let mut still = Vec::new();
            for &i in &active {
                let want = contenders[i].bound() - alloc[i];
                let give = want.min(share);
                alloc[i] += give;
                remaining -= give;
                if give < want {
                    still.push(i);
                } else {
                    progressed = true;
                }
            }
            if !progressed {
                break; // everyone absorbed a full share; remainder exhausted
            }
            active = still;
            continue;
        }

        let mut satisfied_any = false;
        let mut next_active = Vec::with_capacity(active.len());
        let round_remaining = remaining;
        for &i in &active {
            let share = round_remaining * contenders[i].weight / total_weight;
            let want = contenders[i].bound() - alloc[i];
            if want <= share + 1e-12 {
                alloc[i] += want;
                remaining -= want;
                satisfied_any = true;
            } else {
                next_active.push(i);
            }
        }
        if !satisfied_any {
            // Nobody is bound-limited: hand out exact weighted shares and stop.
            for &i in &next_active {
                let share = round_remaining * contenders[i].weight / total_weight;
                alloc[i] += share;
            }
            break;
        }
        active = next_active;
    }
    alloc
}

/// [`allocate`] into caller buffers: `alloc` receives one allocation per
/// contender, in order, and `active` is working space; both are cleared
/// first. The arithmetic runs in `allocate`'s order, so the results are
/// bit for bit the same (property-tested), and nothing is allocated once
/// the buffers have grown to the contender count. The simulator's
/// per-host reallocation calls this; `allocate` stays as its reference.
pub fn allocate_into(
    capacity: f64,
    contenders: &[CpuContender],
    alloc: &mut Vec<f64>,
    active: &mut Vec<usize>,
) {
    let n = contenders.len();
    alloc.clear();
    alloc.resize(n, 0.0);
    active.clear();
    if n == 0 || capacity <= 0.0 {
        return;
    }

    let mut remaining = capacity;
    active.extend((0..n).filter(|&i| contenders[i].bound() > 0.0));

    // The same water-filling as `allocate`; `retain` visits the active
    // contenders in order and keeps the unsatisfied ones in order, which
    // is the list `allocate` rebuilds each round.
    while !active.is_empty() && remaining > 1e-9 {
        let total_weight: f64 = active.iter().map(|&i| contenders[i].weight).sum();
        if total_weight <= 0.0 {
            let share = remaining / active.len() as f64;
            let mut progressed = false;
            active.retain(|&i| {
                let want = contenders[i].bound() - alloc[i];
                let give = want.min(share);
                alloc[i] += give;
                remaining -= give;
                if give < want {
                    true
                } else {
                    progressed = true;
                    false
                }
            });
            if !progressed {
                break;
            }
            continue;
        }

        let mut satisfied_any = false;
        let round_remaining = remaining;
        active.retain(|&i| {
            let share = round_remaining * contenders[i].weight / total_weight;
            let want = contenders[i].bound() - alloc[i];
            if want <= share + 1e-12 {
                alloc[i] += want;
                remaining -= want;
                satisfied_any = true;
                false
            } else {
                true
            }
        });
        if !satisfied_any {
            for &i in active.iter() {
                let share = round_remaining * contenders[i].weight / total_weight;
                alloc[i] += share;
            }
            break;
        }
    }
}

/// Convenience: allocation when all contenders use default weights and
/// caps equal to their demands (the common case in this model).
pub fn allocate_simple(capacity: f64, demands: &[f64]) -> Vec<f64> {
    let contenders: Vec<CpuContender> = demands.iter().map(|&d| CpuContender::simple(d)).collect();
    allocate(capacity, &contenders)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn uncontended_everyone_gets_demand() {
        let alloc = allocate_simple(400.0, &[100.0, 150.0, 50.0]);
        assert_eq!(alloc, vec![100.0, 150.0, 50.0]);
    }

    #[test]
    fn equal_weights_split_evenly_under_contention() {
        let alloc = allocate_simple(400.0, &[300.0, 300.0]);
        assert_close(alloc[0], 200.0);
        assert_close(alloc[1], 200.0);
    }

    #[test]
    fn small_demand_surplus_goes_to_big() {
        // 100-demand VM is satisfied; the rest goes to the 400-demand VM.
        let alloc = allocate_simple(400.0, &[100.0, 400.0]);
        assert_close(alloc[0], 100.0);
        assert_close(alloc[1], 300.0);
    }

    #[test]
    fn weights_bias_the_split() {
        let contenders = [
            CpuContender {
                demand: 400.0,
                weight: 512.0,
                cap: 400.0,
            },
            CpuContender {
                demand: 400.0,
                weight: 256.0,
                cap: 400.0,
            },
        ];
        let alloc = allocate(300.0, &contenders);
        assert_close(alloc[0], 200.0);
        assert_close(alloc[1], 100.0);
    }

    #[test]
    fn cap_limits_allocation() {
        let contenders = [
            CpuContender {
                demand: 400.0,
                weight: 256.0,
                cap: 100.0,
            },
            CpuContender {
                demand: 400.0,
                weight: 256.0,
                cap: 400.0,
            },
        ];
        let alloc = allocate(400.0, &contenders);
        assert_close(alloc[0], 100.0);
        assert_close(alloc[1], 300.0);
    }

    #[test]
    fn work_conserving_under_contention() {
        let alloc = allocate_simple(400.0, &[250.0, 250.0, 250.0]);
        assert_close(alloc.iter().sum::<f64>(), 400.0);
        for a in &alloc {
            assert_close(*a, 400.0 / 3.0);
        }
    }

    #[test]
    fn empty_and_zero_cases() {
        assert!(allocate_simple(400.0, &[]).is_empty());
        assert_eq!(allocate_simple(0.0, &[100.0]), vec![0.0]);
        assert_eq!(allocate_simple(400.0, &[0.0, 0.0]), vec![0.0, 0.0]);
        // Negative demand is treated as zero.
        let alloc = allocate(
            100.0,
            &[CpuContender {
                demand: -50.0,
                weight: 256.0,
                cap: 100.0,
            }],
        );
        assert_eq!(alloc, vec![0.0]);
    }

    #[test]
    fn zero_weight_contenders_share_equally() {
        let contenders = [
            CpuContender {
                demand: 100.0,
                weight: 0.0,
                cap: 100.0,
            },
            CpuContender {
                demand: 100.0,
                weight: 0.0,
                cap: 100.0,
            },
        ];
        let alloc = allocate(100.0, &contenders);
        assert_close(alloc[0], 50.0);
        assert_close(alloc[1], 50.0);
    }

    #[test]
    fn three_way_mixed_contention() {
        // capacity 400; demands 50, 200, 300 (total 550).
        // Round 1 fair share = 133.3 each: the 50 leaves satisfied.
        // Round 2: 350 left between two -> 175 each; 200-demand gets
        // 175 < 200? No wait: 175 < 200, so neither is satisfied...
        // max-min fixpoint: 50 | 175 | 175.
        let alloc = allocate_simple(400.0, &[50.0, 200.0, 300.0]);
        assert_close(alloc[0], 50.0);
        assert_close(alloc[1], 175.0);
        assert_close(alloc[2], 175.0);
        assert_close(alloc.iter().sum::<f64>(), 400.0);
    }
}
