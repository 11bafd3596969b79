// SNAP003 positive: codec methods that cannot inline across crates.
// `Plain` has no attributes at all (lines 10 and 13), `Pinned` opts out
// with `#[inline(never)]` (line 24), and the generic `Pair` carries only
// an unrelated attribute (line 31). Findings anchor on the `fn` line.
pub struct Plain {
    pub id: u64,
}

impl Persist for Plain {
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.id);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Plain { id: r.get_u64()? })
    }
}

impl Persist for Pinned {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(0);
    }
    #[inline(never)]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        r.get_u8().map(|_| Pinned)
    }
}

impl<A: Persist> Persist for Pair<A> {
    #[allow(clippy::needless_borrow)]
    fn persist(&self, w: &mut Writer) {
        self.0.persist(w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Pair(A::restore(r)?))
    }
}
