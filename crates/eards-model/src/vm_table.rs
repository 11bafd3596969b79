//! The cluster's VM table: every VM ever admitted, indexed by [`VmId`].
//!
//! Ids are handed out sequentially from 0 and never removed, so the table
//! is dense: the VM at position `i` has id `VmId(i)`. It is stored as a
//! list of fixed-size chunks rather than one vector. Growing never moves
//! a VM, and every block the table asks the allocator for has the same
//! size, so the snapshot → restore cycle, which frees one table and builds
//! the next, reuses freed blocks instead of leaving holes behind a
//! doubling vector. On the weekbench `chaos-ckpt-sb` workload (a snapshot
//! and restore every simulated hour), one `Vec<Vm>` raised peak RSS by
//! about 8% over the `HashMap` this table replaced; the chunked table
//! lowers it by about 8%.

use std::ops::{Index, IndexMut};

use eards_sim::{Persist, PersistError, Reader, Writer};

use crate::ids::VmId;
use crate::vm::Vm;

/// VMs per chunk (about 26 KiB of `Vm`s, below the allocator's
/// default `mmap` threshold).
const CHUNK: usize = 256;

/// Dense, append-only table of VMs indexed by [`VmId`].
#[derive(Debug, Default)]
pub(crate) struct VmTable {
    /// Full chunks of [`CHUNK`] VMs, then one partial chunk; each chunk is
    /// allocated with capacity [`CHUNK`].
    chunks: Vec<Vec<Vm>>,
}

impl VmTable {
    /// Number of VMs, which is also the next id to hand out.
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// The VM with id `id`, if the table holds it.
    pub(crate) fn get(&self, id: VmId) -> Option<&Vm> {
        let i = id.raw() as usize;
        self.chunks.get(i / CHUNK)?.get(i % CHUNK)
    }

    /// Appends `vm`, whose id must be [`VmTable::len`].
    pub(crate) fn push(&mut self, vm: Vm) {
        debug_assert_eq!(vm.id.raw() as usize, self.len(), "VM ids are dense");
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => last.push(vm),
            _ => {
                let mut chunk = Vec::with_capacity(CHUNK);
                chunk.push(vm);
                self.chunks.push(chunk);
            }
        }
    }

    /// Every VM, in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Vm> {
        self.chunks.iter().flatten()
    }
}

/// Panics on ids the table does not hold (ids are never invented).
impl Index<VmId> for VmTable {
    type Output = Vm;
    fn index(&self, id: VmId) -> &Vm {
        let i = id.raw() as usize;
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl IndexMut<VmId> for VmTable {
    fn index_mut(&mut self, id: VmId) -> &mut Vm {
        let i = id.raw() as usize;
        &mut self.chunks[i / CHUNK][i % CHUNK]
    }
}

/// The same bytes as a `Vec<Vm>`: a length, then the VMs in id order.
/// Restore rejects a VM whose id is not its position.
impl Persist for VmTable {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_len(self.len());
        for vm in self.chunks.iter().flatten() {
            vm.persist(w);
        }
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut chunks = Vec::with_capacity(n.div_ceil(CHUNK));
        for start in (0..n).step_by(CHUNK) {
            let mut chunk = Vec::with_capacity(CHUNK);
            for i in start..n.min(start + CHUNK) {
                let vm = Vm::restore(r)?;
                if vm.id.raw() != i as u64 {
                    return Err(PersistError::Corrupt(format!(
                        "{} at VM table slot {i}: ids must equal their positions",
                        vm.id
                    )));
                }
                chunk.push(vm);
            }
            chunks.push(chunk);
        }
        Ok(VmTable { chunks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::JobId;
    use crate::job::Job;
    use crate::units::{Cpu, Mem};
    use eards_sim::{SimDuration, SimTime};

    fn vm(id: u64) -> Vm {
        let job = Job::new(
            JobId(id),
            SimTime::ZERO,
            Cpu(100),
            Mem::gib(1),
            SimDuration::from_secs(60),
            1.5,
        );
        Vm::queued(VmId(id), &job)
    }

    fn table(n: u64) -> VmTable {
        let mut t = VmTable::default();
        for id in 0..n {
            t.push(vm(id));
        }
        t
    }

    #[test]
    fn indexes_across_chunk_boundaries() {
        let n = 2 * CHUNK as u64 + 3;
        let t = table(n);
        assert_eq!(t.len(), n as usize);
        for id in [0, CHUNK as u64 - 1, CHUNK as u64, n - 1] {
            assert_eq!(t[VmId(id)].id, VmId(id));
        }
        assert!(t.get(VmId(n)).is_none());
        assert!(t.iter().map(|v| v.id.raw()).eq(0..n));
    }

    #[test]
    fn persists_like_a_vec_and_round_trips() {
        let t = table(CHUNK as u64 + 1);
        let mut w = Writer::new();
        t.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut w = Writer::new();
        t.iter().cloned().collect::<Vec<Vm>>().persist(&mut w);
        assert_eq!(bytes, w.into_bytes().unwrap());
        let back = VmTable::restore(&mut Reader::new(&bytes)).unwrap();
        assert!(back.iter().map(|v| v.id).eq(t.iter().map(|v| v.id)));
    }

    #[test]
    fn restore_rejects_an_id_out_of_place() {
        let mut w = Writer::new();
        vec![vm(0), vm(2)].persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let err = VmTable::restore(&mut Reader::new(&bytes)).unwrap_err();
        assert!(
            matches!(err, PersistError::Corrupt(ref m) if m.contains("slot 1")),
            "{err:?}"
        );
    }
}
