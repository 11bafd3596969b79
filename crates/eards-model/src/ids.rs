//! Typed identifiers for hosts, VMs and jobs.

use std::fmt;

use eards_sim::{Persist, PersistError, Reader, Writer};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $inner);

        impl $name {
            /// Raw numeric value.
            pub const fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a physical host. Host ids are dense indices into the
    /// cluster's host table.
    HostId(u32),
    "h"
);
id_type!(
    /// Identifies a virtual machine.
    VmId(u64),
    "vm"
);
id_type!(
    /// Identifies a job (one VM executes one job in this model, as in the
    /// paper's HPC setting, but the ids are distinct concepts: a failed VM
    /// may be recreated for the same job).
    JobId(u64),
    "j"
);

impl Persist for HostId {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u32(self.0);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(HostId(r.get_u32()?))
    }
}

impl Persist for VmId {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(VmId(r.get_u64()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_raw() {
        assert_eq!(HostId(3).to_string(), "h3");
        assert_eq!(VmId(12).to_string(), "vm12");
        assert_eq!(JobId(7).to_string(), "j7");
        assert_eq!(HostId(3).raw(), 3);
    }

    #[test]
    fn ordering_and_hash() {
        use std::collections::HashSet;
        assert!(HostId(1) < HostId(2));
        let mut set = HashSet::new();
        set.insert(VmId(1));
        assert!(set.contains(&VmId(1)));
        assert!(!set.contains(&VmId(2)));
    }
}
