//! The plans the model prices and the executor runs: the four
//! materialization strategies of §3.5 and the three inner-table
//! representations of §4.3.

use std::fmt;

/// When and how tuples are constructed (§3.5 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Early materialization, pipelined: a DS2 leaf produces
    /// (position, value) tuples; each later column is added by a DS4
    /// operator that jumps to the surviving positions.
    EmPipelined,
    /// Early materialization, parallel: an SPC leaf scans all needed
    /// columns together and constructs full tuples immediately.
    EmParallel,
    /// Late materialization, pipelined: a DS1 leaf produces positions;
    /// each later column is fetched (DS3) only at surviving positions and
    /// filtered; values are stitched at the top.
    LmPipelined,
    /// Late materialization, parallel: DS1 on every predicate column,
    /// positional AND, then DS3 fetches and a final MERGE.
    LmParallel,
}

impl Strategy {
    /// All four strategies, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::EmPipelined,
        Strategy::EmParallel,
        Strategy::LmPipelined,
        Strategy::LmParallel,
    ];

    /// Whether this is a late-materialization strategy.
    pub fn is_late(self) -> bool {
        matches!(self, Strategy::LmPipelined | Strategy::LmParallel)
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::EmPipelined => "EM-pipelined",
            Strategy::EmParallel => "EM-parallel",
            Strategy::LmPipelined => "LM-pipelined",
            Strategy::LmParallel => "LM-parallel",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the inner (right) table is represented inside a hash join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InnerStrategy {
    /// Right tuples constructed before the join (EM).
    Materialized,
    /// Right columns shipped compressed; tuples built per match (hybrid).
    MultiColumn,
    /// Only the key column enters; values fetched by position afterwards
    /// (pure LM).
    SingleColumn,
}

impl InnerStrategy {
    /// All three strategies, in the paper's Figure 13 order.
    pub const ALL: [InnerStrategy; 3] = [
        InnerStrategy::Materialized,
        InnerStrategy::MultiColumn,
        InnerStrategy::SingleColumn,
    ];

    /// Display name matching Figure 13's legend.
    pub fn name(self) -> &'static str {
        match self {
            InnerStrategy::Materialized => "Right Table Materialized",
            InnerStrategy::MultiColumn => "Right Table Multi-Column",
            InnerStrategy::SingleColumn => "Right Table Single Column",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn late_flags() {
        assert!(Strategy::LmParallel.is_late());
        assert!(Strategy::LmPipelined.is_late());
        assert!(!Strategy::EmParallel.is_late());
        assert!(!Strategy::EmPipelined.is_late());
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Strategy::EmPipelined.to_string(), "EM-pipelined");
        assert_eq!(Strategy::LmParallel.to_string(), "LM-parallel");
    }
}
