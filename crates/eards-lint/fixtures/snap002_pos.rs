// SNAP002 positive: enum tag arms missing from one or both codec
// directions. `Idle`/`Busy` are covered; `Draining` has a write arm but
// no read arm, and `Halted` has neither — the exact hole a new variant
// opens when only one direction grows.
pub enum Phase {
    Idle,
    Busy,
    Draining,
    Halted,
}

impl Persist for Phase {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            Phase::Idle => 0,
            Phase::Busy => 1,
            Phase::Draining => 2,
        });
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Phase::Idle),
            1 => Ok(Phase::Busy),
            t => Err(PersistError::Corrupt(format!("bad Phase tag {t}"))),
        }
    }
}
