// SNAP001 positive: a codec whose field coverage drifted from its
// struct. `ticks` is covered in both directions (clean); `skew` is
// written but never read back, `drift` is read but never written
// (write/read asymmetry), and `label` vanished from both.
pub struct Meter {
    pub ticks: u64,
    pub skew: u64,
    pub drift: u64,
    pub label: String,
}

impl Persist for Meter {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.ticks);
        w.put_u64(self.skew);
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Meter {
            ticks: r.get_u64()?,
            drift: r.get_u64()?,
        })
    }
}
