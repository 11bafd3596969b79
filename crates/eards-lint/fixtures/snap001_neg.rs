// SNAP001 negative: full coverage, a reasoned transient allow, and the
// shapes the rule must skip (tuple structs, unresolvable target types).
pub struct Gauge {
    pub total: u64,
    // lint:allow(SNAP001): scratch cache, rebuilt lazily after restore
    pub cache: Vec<u64>,
}

impl Persist for Gauge {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.total);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Gauge {
            total: r.get_u64()?,
            cache: Vec::new(),
        })
    }
}

// Tuple structs have no named fields to cover.
pub struct Seq(pub u64);

impl Persist for Seq {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Seq(r.get_u64()?))
    }
}

// Target type defined nowhere the analyzer can see: skipped, not guessed.
impl Persist for External {
    #[inline]
    fn persist(&self, _w: &mut Writer) {}

    #[inline]
    fn restore(_r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(External)
    }
}
