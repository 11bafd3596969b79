// P001 positive (Persist scope): panicking constructs inside an
// `impl Persist` body. Linted under a NON-sim-affecting path, where
// whole-file P001 does not apply — codec bodies still draw findings
// (a panicking codec loses the run it checkpoints; cf. the put_len
// `expect` that motivated the rule extension).
impl Persist for Counters {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        let n = u32::try_from(self.values.len()).expect("fits");
        w.put_u32(n);
        w.put_u64(self.values[0]);
    }

    #[inline]
    fn restore(r: &mut Reader) -> Result<Self, PersistError> {
        let n = r.get_u32().unwrap();
        if n > MAX {
            panic!("too many counters");
        }
        Ok(Counters { values: Vec::new() })
    }
}
