// D005 positive: wall-clock / ambient-randomness state captured inside an
// `impl Persist` block. Linted under an eards-obs path, where D002's
// allowlist would otherwise let the wall clock through — D005 still fires.
impl Persist for Span {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        let t0 = std::time::Instant::now();
        let wall = std::time::SystemTime::now();
        let mut rng = rand::thread_rng();
        let _ = (t0, wall, &mut rng);
        w.put_u64(self.id);
    }

    #[inline]
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        Ok(Span {
            id: r.get_u64()?,
            started: std::time::Instant::now(),
        })
    }
}
