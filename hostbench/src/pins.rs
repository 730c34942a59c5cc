//! Per-cell digests at the default seed.
//!
//! A change that only makes the simulator faster leaves every one of
//! these identical. A change that means to alter simulated behaviour
//! re-pins them and says so: a run whose digest differs fails and prints
//! the new line for this table, ready to paste.

const PINS: &[(&str, u64)] = &[
    ("closed_deep/sr2x3", 0x653bc18567b5a847),
    ("closed_deep/sr1x3", 0x47b9b4499eb1a77f),
    ("open_replay/cello/sr2x3", 0xb6d15583fcd68a18),
    ("open_replay/cello/raid10x8", 0x16c52b01cb427adb),
    ("open_replay/cello/stripe256", 0x7326ee1770b43a0d),
    ("open_replay/tpcc/sr2x3", 0x99f3bbcb23579bdc),
    ("open_replay/tpcc/raid10x8", 0x5ab16da11ff95758),
    ("open_replay/tpcc/stripe256", 0x30692711d9487b3e),
    ("sweep_cached/fig06/0", 0x4ca75866c5a20962),
    ("sweep_cached/fig06/1", 0x4737f4ca222f0c8b),
    ("sweep_cached/fig06/2", 0xc05a0d90dd20ba9b),
    ("sweep_cached/fig06/3", 0x7cbc71a02f7ee528),
    ("sweep_cached/fig06/4", 0xdfd88cdb3655b9ca),
    ("sweep_cached/fig06/5", 0xa3c9eee55cdf94f8),
    ("sweep_cached/fig06/6", 0xa8d00603f6d9c6ec),
    ("sweep_cached/fig06/7", 0x126e103b5233d687),
    ("sweep_cached/fig06/8", 0x842f862ecab08023),
    ("sweep_cached/fig06/9", 0x45cf91f57e118d41),
    ("sweep_cached/fig06/10", 0x33d4102f45e232d3),
    ("sweep_cached/fig06/11", 0xce8025df5682ccae),
    ("sweep_cached/fig06/12", 0x5ea48f22f416f611),
    ("sweep_cached/fig06/13", 0x06d3dcf052d0a3b2),
    ("sweep_cached/fig06/14", 0x4f1191e63a277ef9),
    ("sweep_cached/fig06/15", 0x9e33b7a2fd664da2),
    ("sweep_cached/mixed/0", 0x50b80024b3ab3fce),
    ("sweep_cached/mixed/1", 0xf992d7b5d436d4d0),
    ("sweep_cached/mixed/2", 0x6edbdb7fbd8c4d1b),
    ("sweep_cached/raid5/0", 0x4d4d3891382037cd),
    ("sweep_cached/raid5/1", 0x353d9e84ba335965),
    ("sweep_cached/raid10/0", 0x2180548395d0c188),
    ("sweep_cached/raid10/1", 0xc57c82a2e06e093f),
];

/// The pinned digest of a cell label.
pub fn pinned(label: &str) -> Option<u64> {
    PINS.iter().find(|(l, _)| *l == label).map(|&(_, d)| d)
}
