// SNAP002 negative: every variant has a tag arm in both directions, and
// an enum without a Persist impl is nobody's business.
pub enum Mode {
    Off,
    Counting,
    Strict,
}

impl Persist for Mode {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u8(match self {
            Mode::Off => 0,
            Mode::Counting => 1,
            Mode::Strict => 2,
        });
    }

    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(Mode::Off),
            1 => Ok(Mode::Counting),
            2 => Ok(Mode::Strict),
            t => Err(PersistError::Corrupt(format!("bad Mode tag {t}"))),
        }
    }
}

pub enum NeverPersisted {
    A,
    B,
}
