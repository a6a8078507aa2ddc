//! The C-Store operator set (§3.1).
//!
//! The paper's operators map onto this crate as follows:
//!
//! | paper operator | implementation |
//! |---|---|
//! | DS1 (scan → positions) | [`MiniColumn::scan_positions`](crate::MiniColumn::scan_positions) |
//! | DS2 (scan → (pos, value)) | [`MiniColumn::scan_pairs`](crate::MiniColumn::scan_pairs) |
//! | DS3 (positions → values) | [`MiniColumn::fetch_values`](crate::MiniColumn::fetch_values) / [`fetch_values_into`](crate::MiniColumn::fetch_values_into) (strided, straight into the result) |
//! | DS4 (tuples + column → wider tuples) | [`probe::ds4_extend`] |
//! | AND | [`PosList::and`](matstrat_poslist::PosList::and), over the multi-columns of the LM filter step |
//! | MERGE | [`merge`] — one per read statement without an aggregate |
//! | SPC | [`spc::spc_scan`] |
//! | aggregator | [`agg::Aggregator`], folding every part step 1 leaves (tuples, runs, join positions) |
//! | join | [`join`] (three inner-table strategies, §4.3; each fetches at MERGE through [`join::InnerRep::fetch_into`]) |
//! | join tree | [`join_tree`] (left-deep multi-way joins, position-list pipelined) |

pub mod agg;
pub mod join;
pub mod join_tree;
pub mod merge;
pub mod probe;
pub mod spc;
