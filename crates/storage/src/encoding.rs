//! Column encoding kinds.

use std::fmt;

use matstrat_common::{Error, Result};

/// The physical encoding of a column (and of each of its blocks).
///
/// The paper's experiments use the first three; `Dict` is an extension
/// (the compression study the paper builds on also evaluates dictionary
/// coding, and it is what makes string attributes integer-addressable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EncodingKind {
    /// Values packed contiguously at a fixed byte width.
    Plain,
    /// Run-length encoding: (value, start, length) triples. Ideal for
    /// columns sorted (or semi-sorted) on their own value.
    Rle,
    /// One bit-string per distinct value. Ideal for low-cardinality
    /// columns; range predicates become ORs of bit-strings.
    BitVec,
    /// Dictionary: per-block value table plus narrow codes (extension).
    Dict,
}

impl EncodingKind {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            EncodingKind::Plain => 0,
            EncodingKind::Rle => 1,
            EncodingKind::BitVec => 2,
            EncodingKind::Dict => 3,
        }
    }

    /// Inverse of [`tag`](EncodingKind::tag).
    pub fn from_tag(tag: u8) -> Result<EncodingKind> {
        match tag {
            0 => Ok(EncodingKind::Plain),
            1 => Ok(EncodingKind::Rle),
            2 => Ok(EncodingKind::BitVec),
            3 => Ok(EncodingKind::Dict),
            other => Err(Error::corrupt(format!("unknown encoding tag {other}"))),
        }
    }

    /// Short lowercase name used in harness output.
    pub fn name(self) -> &'static str {
        match self {
            EncodingKind::Plain => "plain",
            EncodingKind::Rle => "rle",
            EncodingKind::BitVec => "bitvec",
            EncodingKind::Dict => "dict",
        }
    }
}

impl fmt::Display for EncodingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_roundtrip() {
        for k in [
            EncodingKind::Plain,
            EncodingKind::Rle,
            EncodingKind::BitVec,
            EncodingKind::Dict,
        ] {
            assert_eq!(EncodingKind::from_tag(k.tag()).unwrap(), k);
        }
        assert!(EncodingKind::from_tag(99).is_err());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EncodingKind::Plain.to_string(), "plain");
        assert_eq!(EncodingKind::BitVec.to_string(), "bitvec");
    }
}
