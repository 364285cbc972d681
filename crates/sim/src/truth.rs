//! Truth-table cell evaluation for the event engine.
//!
//! A cell has at most four inputs and a 4-state value packs into a 2-bit
//! tag, so one byte indexes every input combination of any cell. The
//! engine evaluates a cell with one load from its kind's 256-entry table
//! instead of a match over kinds and 4-state operators. An entry packs the
//! output tags the same way: output `k` in bits `2k..2k + 2`.
//!
//! The tables are derived from [`CellKind::eval`], which stays the one
//! definition of cell logic, once per process on first use.

use std::sync::OnceLock;

use scpg_liberty::{CellKind, Logic};

use crate::compile::MAX_INPUTS;
use crate::engine::{tag_of, untag};

/// One 256-entry table per cell kind, indexed by `kind as usize`.
pub(crate) type TruthTables = [[u8; 256]; CellKind::ALL.len()];

/// The process-wide tables.
pub(crate) fn tables() -> &'static TruthTables {
    static TABLES: OnceLock<TruthTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0; 256]; CellKind::ALL.len()];
        for kind in CellKind::ALL {
            let n = kind.num_inputs();
            for (key, entry) in tables[kind as usize].iter_mut().enumerate() {
                let ins: [Logic; MAX_INPUTS] = std::array::from_fn(|k| unpack(key, k));
                *entry = pack(kind.eval(&ins[..n]).as_slice().iter().copied()) as u8;
            }
        }
        tables
    })
}

/// Packs values as 2-bit tags, value `k` in bits `2k..2k + 2`: a table
/// key from a cell's inputs, or an entry from its outputs.
#[inline]
pub(crate) fn pack(values: impl IntoIterator<Item = Logic>) -> usize {
    values
        .into_iter()
        .enumerate()
        .fold(0, |acc, (k, v)| acc | usize::from(tag_of(v)) << (2 * k))
}

/// Value `k` of a packed key or entry.
#[inline]
pub(crate) fn unpack(packed: usize, k: usize) -> Logic {
    untag((packed >> (2 * k)) as u8 & 3)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOGIC: [Logic; 4] = [Logic::Zero, Logic::One, Logic::X, Logic::Z];

    #[test]
    fn every_table_matches_eval_on_every_four_state_input() {
        let tables = tables();
        for kind in CellKind::ALL {
            let n = kind.num_inputs();
            for combo in 0..4usize.pow(n as u32) {
                let ins: Vec<Logic> = (0..n).map(|k| LOGIC[(combo >> (2 * k)) & 3]).collect();
                let entry = usize::from(tables[kind as usize][pack(ins.iter().copied())]);
                let want = kind.eval(&ins);
                let got: Vec<Logic> = (0..want.len()).map(|k| unpack(entry, k)).collect();
                assert_eq!(got, want.as_slice(), "{kind:?} on {ins:?}");
            }
        }
    }
}
