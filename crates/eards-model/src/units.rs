//! Resource units.
//!
//! CPU follows the paper's convention (§IV-A, Table I): **percent points of
//! one core**, so a 4-way node has a capacity of 400 and a VM running two
//! busy virtual CPUs consumes 200. Demands and capacities are integers;
//! contended *allocations* (what the Xen credit scheduler actually grants)
//! are `f64` percent points.
//!
//! Memory is tracked in MiB. Host *occupation* — the quantity the paper's
//! `P_res` penalty checks — is the utilization of the most-utilized
//! resource.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use eards_sim::{Persist, PersistError, Reader, Writer};

/// CPU in percent points of one core (100 = one full core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cpu(pub u32);

/// Memory in MiB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Mem(pub u32);

impl Cpu {
    /// Zero CPU.
    pub const ZERO: Cpu = Cpu(0);

    /// CPU of `n` full cores.
    pub const fn cores(n: u32) -> Cpu {
        Cpu(n * 100)
    }

    /// Value in percent points.
    pub const fn points(self) -> u32 {
        self.0
    }

    /// Value as a float, for allocation math.
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// Number of whole or partial virtual CPUs this demand needs.
    pub fn vcpus(self) -> u32 {
        self.0.div_ceil(100)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Cpu) -> Cpu {
        Cpu(self.0.saturating_sub(rhs.0))
    }
}

impl Mem {
    /// Zero memory.
    pub const ZERO: Mem = Mem(0);

    /// Memory of `n` GiB.
    pub const fn gib(n: u32) -> Mem {
        Mem(n * 1024)
    }

    /// Value in MiB.
    pub const fn mib(self) -> u32 {
        self.0
    }

    /// Value as a float.
    pub fn as_f64(self) -> f64 {
        f64::from(self.0)
    }
}

macro_rules! impl_unit_arith {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                debug_assert!(self.0 >= rhs.0, concat!(stringify!($ty), " underflow"));
                $ty(self.0.saturating_sub(rhs.0))
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                *self = *self - rhs;
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0), |a, b| a + b)
            }
        }
    };
}

impl_unit_arith!(Cpu);
impl_unit_arith!(Mem);

impl fmt::Display for Cpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%cpu", self.0)
    }
}

impl fmt::Display for Mem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MiB", self.0)
    }
}

/// A resource bundle: what a VM requires or a host offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// CPU component.
    pub cpu: Cpu,
    /// Memory component.
    pub mem: Mem,
}

impl Resources {
    /// An empty bundle.
    pub const ZERO: Resources = Resources {
        cpu: Cpu::ZERO,
        mem: Mem::ZERO,
    };

    /// Creates a bundle.
    pub const fn new(cpu: Cpu, mem: Mem) -> Self {
        Resources { cpu, mem }
    }

    /// Component-wise `self + rhs`.
    pub fn plus(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu + rhs.cpu,
            mem: self.mem + rhs.mem,
        }
    }

    /// Component-wise `self − rhs`, clamped at zero.
    pub fn saturating_sub(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu.saturating_sub(rhs.cpu),
            mem: Mem(self.mem.0.saturating_sub(rhs.mem.0)),
        }
    }

    /// Component-wise maximum.
    pub fn max(self, rhs: Resources) -> Resources {
        Resources {
            cpu: self.cpu.max(rhs.cpu),
            mem: self.mem.max(rhs.mem),
        }
    }

    /// True if every component of `self` fits inside `capacity`.
    pub fn fits_in(self, capacity: Resources) -> bool {
        self.cpu <= capacity.cpu && self.mem <= capacity.mem
    }

    /// Utilization of the *most utilized* resource relative to `capacity`
    /// — the paper's host-occupation measure `O(h)` (§III-A.2). A host with
    /// VMs summing to 80% CPU and 30% memory is 0.8 occupied.
    ///
    /// A zero-capacity component counts as fully occupied if any of it is
    /// demanded.
    pub fn occupation_in(self, capacity: Resources) -> f64 {
        let frac = |used: f64, cap: f64| -> f64 {
            if cap <= 0.0 {
                if used > 0.0 {
                    f64::INFINITY
                } else {
                    0.0
                }
            } else {
                used / cap
            }
        };
        frac(self.cpu.as_f64(), capacity.cpu.as_f64())
            .max(frac(self.mem.as_f64(), capacity.mem.as_f64()))
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.cpu, self.mem)
    }
}

impl Persist for Cpu {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Cpu(r.get_u32()?))
    }
}

impl Persist for Mem {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Mem(r.get_u32()?))
    }
}

impl Persist for Resources {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        self.cpu.persist(w);
        self.mem.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Resources {
            cpu: Cpu::restore(r)?,
            mem: Mem::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_basics() {
        assert_eq!(Cpu::cores(4).points(), 400);
        assert_eq!(Cpu(250).vcpus(), 3);
        assert_eq!(Cpu(200).vcpus(), 2);
        assert_eq!(Cpu(1).vcpus(), 1);
        assert_eq!(Cpu(0).vcpus(), 0);
        assert_eq!(Cpu(300).saturating_sub(Cpu(500)), Cpu::ZERO);
        assert_eq!(Cpu(100) + Cpu(50), Cpu(150));
        assert_eq!([Cpu(10), Cpu(20)].into_iter().sum::<Cpu>(), Cpu(30));
    }

    #[test]
    fn mem_basics() {
        assert_eq!(Mem::gib(8).mib(), 8192);
        assert_eq!(Mem(100) - Mem(40), Mem(60));
        assert_eq!(format!("{}", Mem(512)), "512MiB");
        assert_eq!(format!("{}", Cpu(200)), "200%cpu");
    }

    #[test]
    fn occupation_uses_most_occupied_resource() {
        // The paper's example (§III-A.2): VMs at 10% mem + 50% cpu and
        // 65% mem + 30% cpu ⇒ occupation 80% (CPU-bound).
        let cap = Resources::new(Cpu(100), Mem(100));
        let used = Resources::new(Cpu(50), Mem(10)).plus(Resources::new(Cpu(30), Mem(65)));
        assert!((used.occupation_in(cap) - 0.80).abs() < 1e-12);
    }

    #[test]
    fn occupation_memory_bound() {
        let cap = Resources::new(Cpu(400), Mem(1000));
        let used = Resources::new(Cpu(100), Mem(900));
        assert!((used.occupation_in(cap) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn occupation_zero_capacity() {
        let cap = Resources::new(Cpu(0), Mem(100));
        assert_eq!(
            Resources::new(Cpu(1), Mem(0)).occupation_in(cap),
            f64::INFINITY
        );
        assert_eq!(Resources::ZERO.occupation_in(cap), 0.0);
    }

    #[test]
    fn fits_in_checks_all_components() {
        let cap = Resources::new(Cpu(400), Mem(1024));
        assert!(Resources::new(Cpu(400), Mem(1024)).fits_in(cap));
        assert!(!Resources::new(Cpu(401), Mem(0)).fits_in(cap));
        assert!(!Resources::new(Cpu(0), Mem(2048)).fits_in(cap));
    }
}
