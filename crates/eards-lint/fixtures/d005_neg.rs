// D005 negative: a clean Persist impl (sim-time state only), plus a
// wall-clock read *outside* any Persist impl, which in this allowlisted
// crate (eards-obs) is D002-clean and out of D005's scope.
impl Persist for Span {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.started.as_millis());
    }

    #[inline]
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(Span {
            started: SimTime::from_millis(r.get_u64()?),
        })
    }
}

impl Span {
    pub fn wall_elapsed(&self) -> u128 {
        std::time::Instant::now().elapsed().as_millis()
    }
}
