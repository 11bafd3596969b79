// SNAP003 negative: every codec method is `#[inline]` (bare or `always`,
// alone or beside other attributes); other traits, inherent impls and
// test code are none of the rule's business.
pub struct Gauge {
    pub total: u64,
}

impl Persist for Gauge {
    #[inline]
    fn persist(&self, w: &mut Writer) {
        w.put_u64(self.total);
    }

    #[must_use]
    #[inline(always)]
    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Gauge {
            total: r.get_u64()?,
        })
    }
}

impl Gauge {
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl Clone for Gauge {
    fn clone(&self) -> Self {
        Gauge { total: self.total }
    }
}

#[cfg(test)]
mod tests {
    struct Probe;

    impl Persist for Probe {
        fn persist(&self, _w: &mut Writer) {}
        fn restore(_r: &mut Reader<'_>) -> Result<Self, PersistError> {
            Ok(Probe)
        }
    }
}
