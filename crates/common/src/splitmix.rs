//! SplitMix64 (Steele, Lea and Flood, OOPSLA 2014): a seeded 64-bit
//! generator with no dependencies. The test suites draw their seeded
//! cases from it, so one seed names one case on every platform.

/// A SplitMix64 stream over one `u64` of state: the same seed yields
/// the same outputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next output.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An index in `[0, n)`, by the next output mod `n`; `n` must not
    /// be 0.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value in `[lo, hi)`, by the next output mod `hi − lo`; `hi`
    /// must exceed `lo`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

#[cfg(test)]
mod tests {
    use super::SplitMix64;

    /// The reference outputs for seeds 0 and 7, so every seeded case the
    /// suites generate stays the case it was.
    #[test]
    fn first_outputs_are_pinned() {
        let mut zero = SplitMix64(0);
        let got: Vec<u64> = (0..4).map(|_| zero.next()).collect();
        assert_eq!(
            got,
            [
                0xE220_A839_7B1D_CDAF,
                0x6E78_9E6A_A1B9_65F4,
                0x06C4_5D18_8009_454F,
                0xF88B_B8A8_724C_81EC,
            ]
        );
        let mut seven = SplitMix64(7);
        let got: Vec<u64> = (0..4).map(|_| seven.next()).collect();
        assert_eq!(
            got,
            [
                0x63CB_E1E4_5932_0DD7,
                0x044C_3CD7_F43C_661C,
                0xE698_4080_BAB1_2A02,
                0x953A_EB70_673E_29CB,
            ]
        );
        // `below` and `range` take the next output mod the width.
        let mut seven = SplitMix64(7);
        assert_eq!(
            seven.below(1000),
            (0x63CB_E1E4_5932_0DD7u64 % 1000) as usize
        );
        assert_eq!(seven.range(10, 20), 10 + 0x044C_3CD7_F43C_661Cu64 % 10);
    }
}
