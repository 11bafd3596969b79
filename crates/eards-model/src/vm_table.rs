//! The cluster's VM table: every VM ever admitted, indexed by [`VmId`].
//!
//! Ids are handed out sequentially from 0 and never reused, so `VmId(n)`
//! owns position `n` of the slot column. A live VM (queued, placed or in
//! flight) is a full [`Vm`] in a dense pool; a finished VM is a
//! [`FinishedVm`] record in the finished column, which is kept in
//! completion order. A slot names a pool index or, with the
//! [`FINISHED`] bit set, a column index, so a lookup is two array reads
//! and no hashing. A finished record is kept in its wire encoding, so the
//! table grows with the live VMs plus 24 bytes per finished VM (its
//! record and its slot), a snapshot copies the finished column in one
//! piece, and a restore copies it back after one checking pass over the
//! records.

use std::ops::{Index, IndexMut};

use eards_sim::{Persist, PersistError, Reader, SimTime, Writer};

use crate::ids::VmId;
use crate::vm::{FinishedVm, Vm, VmState};

/// Slot bit marking a finished VM; the low bits index the finished
/// column. A live slot is a pool index below this bit, so a finished
/// slot is never a valid pool index.
const FINISHED: u32 = 1 << 31;

/// A slot not yet filled while a snapshot is restored.
const UNSET: u32 = u32::MAX;

/// Bytes of one [`FinishedVm`] on the wire.
const RECORD: usize = FinishedVm::ENCODED_LEN;

/// Slot column, live pool and finished column (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct VmTable {
    /// One entry per admitted VM, indexed by id: a `live` index, or
    /// [`FINISHED`] plus a `finished` index.
    // lint:allow(SNAP001): derived from the live and finished ids; restore rebuilds it while checking them
    slots: Vec<u32>,
    /// The live VMs, in no particular order (finishing one moves the last
    /// into its place).
    live: Vec<Vm>,
    /// The finished VMs in completion order, each as its wire encoding
    /// ([`FinishedVm::encode`]).
    finished: Vec<[u8; RECORD]>,
}

impl VmTable {
    /// Number of VMs ever admitted, which is also the next id to hand out.
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// The finished VMs, in completion order.
    pub(crate) fn finished(&self) -> impl ExactSizeIterator<Item = FinishedVm> + '_ {
        self.finished.iter().map(FinishedVm::decode)
    }

    /// The live VM with id `id`; `None` if it finished or was never
    /// admitted.
    #[inline]
    pub(crate) fn get(&self, id: VmId) -> Option<&Vm> {
        let slot = *self.slots.get(id.raw() as usize)?;
        self.live.get(slot as usize)
    }

    /// The finished record of `id`; `None` if it is live or was never
    /// admitted.
    pub(crate) fn finished_record(&self, id: VmId) -> Option<FinishedVm> {
        let slot = *self.slots.get(id.raw() as usize)?;
        if slot & FINISHED == 0 {
            return None;
        }
        self.finished
            .get((slot & !FINISHED) as usize)
            .map(FinishedVm::decode)
    }

    /// The state of admitted VM `id`: [`VmState::Finished`] once its
    /// record is in the finished column. Panics on ids never admitted.
    #[inline]
    pub(crate) fn state(&self, id: VmId) -> VmState {
        match self.live.get(self.slots[id.raw() as usize] as usize) {
            Some(vm) => vm.state,
            None => VmState::Finished,
        }
    }

    /// Appends `vm`, whose id must be [`VmTable::len`].
    pub(crate) fn push(&mut self, vm: Vm) {
        debug_assert_eq!(vm.id.raw() as usize, self.len(), "VM ids are dense");
        self.slots.push(self.live.len() as u32);
        self.live.push(vm);
    }

    /// Moves live VM `id` to the end of the finished column, completed at
    /// `completed_at`. A VM that never recorded a start counts as started
    /// at its completion, the instant a job outcome would assume.
    pub(crate) fn finish(&mut self, id: VmId, completed_at: SimTime) {
        let i = id.raw() as usize;
        let at = self.slots[i] as usize;
        let vm = self.live.swap_remove(at);
        if let Some(moved) = self.live.get(at) {
            self.slots[moved.id.raw() as usize] = at as u32;
        }
        self.slots[i] = FINISHED | self.finished.len() as u32;
        let record = FinishedVm {
            id,
            started_at: vm.started_at.unwrap_or(completed_at),
            completed_at,
        };
        self.finished.push(record.encode());
    }

    /// The live VMs, in id order.
    pub(crate) fn iter_live(&self) -> impl Iterator<Item = &Vm> {
        self.slots.iter().filter_map(|&s| self.live.get(s as usize))
    }

    /// The live VMs, in no particular order.
    pub(crate) fn live(&self) -> &[Vm] {
        &self.live
    }

    /// Checks that every slot names exactly one entry and every entry sits
    /// at its id's slot (so the live and finished ids are a permutation of
    /// the admitted ones), that no live VM is in the finished state and
    /// that no finished VM completed before it started. O(1) per VM.
    pub(crate) fn verify(&self) -> Result<(), String> {
        let (live, finished) = (self.live.len(), self.finished.len());
        if live + finished != self.slots.len() {
            return Err(format!(
                "{live} live and {finished} finished VMs, but {} admitted",
                self.slots.len()
            ));
        }
        for (k, vm) in self.live.iter().enumerate() {
            if self.slots.get(vm.id.raw() as usize) != Some(&(k as u32)) {
                return Err(format!("live {} is not at its id's slot", vm.id));
            }
            if vm.state == VmState::Finished {
                return Err(format!("live {} is in the finished state", vm.id));
            }
        }
        for (k, f) in self.finished().enumerate() {
            if self.slots.get(f.id.raw() as usize) != Some(&(FINISHED | k as u32)) {
                return Err(format!("finished {} is not at its id's slot", f.id));
            }
            if f.started_at > f.completed_at {
                return Err(started_after_completion(&f));
            }
        }
        Ok(())
    }
}

#[cold]
fn started_after_completion(f: &FinishedVm) -> String {
    format!(
        "finished {} started at {} after its completion at {}",
        f.id, f.started_at, f.completed_at
    )
}

/// Panics on ids that are finished or were never admitted (live ids are
/// never invented).
impl Index<VmId> for VmTable {
    type Output = Vm;
    #[inline]
    fn index(&self, id: VmId) -> &Vm {
        &self.live[self.slots[id.raw() as usize] as usize]
    }
}

impl IndexMut<VmId> for VmTable {
    #[inline]
    fn index_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.live[self.slots[id.raw() as usize] as usize]
    }
}

/// The admitted count (a `u32` length, so every id fits the records'
/// `u32`), the live VMs in id order with their ids, then the finished
/// column as one run of [`RECORD`]-byte records in completion order,
/// copied as it is held. Restore rejects live ids that do not increase, a
/// live VM in the finished state, a finished id that is out of range or
/// already placed, a start after the completion, and counts that do not
/// add up, so the table it builds is a permutation of the admitted ids
/// and passes [`VmTable::verify`]. It builds no [`Vm`] for a finished
/// job: one pass checks the records and fills their slots, then the run
/// is copied.
impl Persist for VmTable {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_len(self.len());
        w.put_len(self.live.len());
        for vm in self.iter_live() {
            vm.persist(w);
        }
        w.put_run(&self.finished);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut slots = vec![UNSET; n];
        let n_live = r.get_len()?;
        let mut live: Vec<Vm> = Vec::with_capacity(n_live);
        for k in 0..n_live {
            let vm = Vm::restore(r)?;
            let increasing = live.last().is_none_or(|prev| prev.id < vm.id);
            let slot = slots.get_mut(vm.id.raw() as usize).filter(|_| increasing);
            let Some(slot) = slot else {
                return Err(PersistError::Corrupt(format!(
                    "live {} at position {k}: live ids must increase and stay below \
                     the {n} admitted",
                    vm.id
                )));
            };
            if vm.state == VmState::Finished {
                return Err(PersistError::Corrupt(format!(
                    "live {} is in the finished state",
                    vm.id
                )));
            }
            *slot = k as u32;
            live.push(vm);
        }
        let run = r.get_run::<RECORD>()?;
        if n_live + run.len() != n {
            return Err(PersistError::Corrupt(format!(
                "{n_live} live and {} finished VMs, but {n} admitted",
                run.len()
            )));
        }
        for (k, bytes) in run.iter().enumerate() {
            let f = FinishedVm::decode(bytes);
            match slots.get_mut(f.id.raw() as usize) {
                Some(slot) if *slot == UNSET && f.started_at <= f.completed_at => {
                    *slot = FINISHED | k as u32;
                }
                slot => return Err(PersistError::Corrupt(bad_record(&f, slot.is_some(), n))),
            }
        }
        Ok(VmTable {
            slots,
            live,
            finished: run.to_vec(),
        })
    }
}

/// Why finished record `f` was rejected on restore.
#[cold]
fn bad_record(f: &FinishedVm, in_range: bool, n: usize) -> String {
    if !in_range {
        format!("finished {} is beyond the {n} admitted", f.id)
    } else if f.started_at > f.completed_at {
        started_after_completion(f)
    } else {
        format!("finished {} is listed twice or is also live", f.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{HostId, JobId};
    use crate::job::Job;
    use crate::units::{Cpu, Mem};
    use eards_sim::SimDuration;

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

    fn round_trip(t: &VmTable) -> (Vec<u8>, VmTable) {
        let mut w = Writer::new();
        t.persist(&mut w);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        let back = VmTable::restore(&mut r).unwrap();
        r.finish().unwrap();
        (bytes, back)
    }

    #[test]
    fn finishing_moves_a_vm_to_the_column_and_keeps_lookups() {
        let mut t = table(5);
        t[VmId(1)].started_at = Some(SimTime::from_secs(3));
        t.finish(VmId(1), SimTime::from_secs(9));
        t.finish(VmId(4), SimTime::from_secs(10));
        t.verify().unwrap();
        assert_eq!(t.len(), 5);
        assert!(t.get(VmId(1)).is_none());
        assert_eq!(t.state(VmId(1)), VmState::Finished);
        assert_eq!(t[VmId(3)].id, VmId(3));
        assert!(t.iter_live().map(|v| v.id.raw()).eq([0, 2, 3]));
        let ids: Vec<u64> = t.finished().map(|f| f.id.raw()).collect();
        assert_eq!(ids, vec![1, 4]);
        let rec = t.finished_record(VmId(1)).unwrap();
        assert_eq!(rec.started_at, SimTime::from_secs(3));
        // Never started: counts as started at its completion.
        assert_eq!(
            t.finished_record(VmId(4)).unwrap().started_at,
            SimTime::from_secs(10)
        );
        assert!(t.finished_record(VmId(0)).is_none());
    }

    #[test]
    fn round_trips_to_the_same_bytes_with_twenty_bytes_per_finished_vm() {
        let mut t = table(4);
        t[VmId(2)].state = VmState::Running { host: HostId(0) };
        t.finish(VmId(2), SimTime::from_secs(5));
        t.finish(VmId(0), SimTime::from_secs(6));
        let (bytes, back) = round_trip(&t);
        back.verify().unwrap();
        assert!(back.finished().eq(t.finished()));
        assert!(back
            .iter_live()
            .map(|v| v.id)
            .eq(t.iter_live().map(|v| v.id)));
        assert_eq!(round_trip(&back).0, bytes);

        let mut live_only = Writer::new();
        for v in t.iter_live() {
            v.persist(&mut live_only);
        }
        let fixed = 4 + 4 + 4;
        assert_eq!(bytes.len(), fixed + live_only.len() + 2 * RECORD);
    }

    /// Hand-built table bytes: count, live VMs, then finished records.
    fn bytes_of(n: usize, live: &[Vm], finished: &[FinishedVm]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(n);
        w.put_len(live.len());
        for v in live {
            v.persist(&mut w);
        }
        w.put_run(&finished.iter().map(FinishedVm::encode).collect::<Vec<_>>());
        w.into_bytes().unwrap()
    }

    fn corrupt(bytes: &[u8]) -> String {
        match VmTable::restore(&mut Reader::new(bytes)) {
            Err(PersistError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn restore_rejects_tables_that_are_not_a_permutation() {
        let done = |id: u64, s: u64, c: u64| FinishedVm {
            id: VmId(id),
            started_at: SimTime::from_secs(s),
            completed_at: SimTime::from_secs(c),
        };
        assert!(VmTable::restore(&mut Reader::new(&bytes_of(
            3,
            &[vm(1)],
            &[done(2, 1, 2), done(0, 1, 1)]
        )))
        .is_ok());
        let m = corrupt(&bytes_of(3, &[vm(2), vm(1)], &[done(0, 1, 2)]));
        assert!(m.contains("live ids must increase"), "{m}");
        let m = corrupt(&bytes_of(2, &[vm(0)], &[done(0, 1, 2)]));
        assert!(m.contains("listed twice or is also live"), "{m}");
        let m = corrupt(&bytes_of(3, &[vm(0)], &[done(1, 1, 2), done(1, 1, 2)]));
        assert!(m.contains("listed twice"), "{m}");
        let m = corrupt(&bytes_of(3, &[vm(0)], &[done(1, 1, 2)]));
        assert!(
            m.contains("1 live and 1 finished VMs, but 3 admitted"),
            "{m}"
        );
        let m = corrupt(&bytes_of(2, &[vm(0)], &[done(7, 1, 2)]));
        assert!(m.contains("beyond the 2 admitted"), "{m}");
        let m = corrupt(&bytes_of(2, &[vm(0)], &[done(1, 3, 2)]));
        assert!(m.contains("after its completion"), "{m}");
        let mut finished = vm(1);
        finished.state = VmState::Finished;
        let m = corrupt(&bytes_of(2, &[vm(0), finished], &[]));
        assert!(m.contains("finished state"), "{m}");
    }
}
