// P001 negative (Persist scope): a clean codec, plus panicking code
// OUTSIDE any `impl Persist` body in a non-sim crate — the whole-file
// rule is scoped to sim-affecting crates, so only codec bodies count
// here.
impl Persist for Counters {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_len(self.values.len());
        for v in &self.values {
            w.put_u64(*v);
        }
    }

    #[inline]
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let n = r.get_len()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(r.get_u64()?);
        }
        Ok(Counters { values })
    }
}

pub fn render(rows: &[String]) -> String {
    // Outside the codec, a non-sim crate may make its own call.
    let first = rows.first().unwrap();
    format!("{first} and {} more", rows.len() - 1)
}
