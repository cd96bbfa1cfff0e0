//! Undo-log entry format.
//!
//! Each entry occupies one 64-byte line (so a single `DC CVAP` persists it
//! whole — the property Figure 4 exploits) and records:
//!
//! | offset | field                                   |
//! |--------|-----------------------------------------|
//! | 0      | target address                          |
//! | 8      | original (pre-transaction) value        |
//! | 16     | transaction id                          |
//! | 24     | checksum over the first three fields    |
//!
//! An entry is *valid* for recovery if its checksum matches and its
//! transaction id is newer than the last committed id in the log header.
//! Committing is therefore a single persisted store of the transaction id
//! to the header — no log truncation writes are needed.
//!
//! The header word is itself self-validating ([`header_word`] /
//! [`decode_header`]): the committed id occupies the low 32 bits and a
//! checksum of it the high 32, so a torn header write or a media bit
//! flip reads back as "nothing committed" instead of a bogus id that
//! would silently skip rollbacks.
//!
//! The header line exists twice on media (`Layout::log_header` and
//! `Layout::log_header_twin`); commit writes the twin *first*, so the
//! twin is always at least as new as the primary and a torn primary is
//! exactly repairable from it ([`resolve_marker`]). Each header line
//! also carries a [`MAGIC`] word at [`OFF_MAGIC`], written once at
//! format time, which distinguishes a wiped-to-zero header from
//! genuinely fresh media.

/// Byte offset of the target-address field.
pub const OFF_ADDR: u64 = 0;
/// Byte offset of the original-value field.
pub const OFF_OLD: u64 = 8;
/// Byte offset of the transaction-id field.
pub const OFF_TXID: u64 = 16;
/// Byte offset of the checksum field.
pub const OFF_CSUM: u64 = 24;

/// Byte offset, within each header (superblock) line, of the magic word.
///
/// Word 0 is the committed marker and word 1 the redo applied marker, so
/// the magic takes word 2 — present in both the primary and twin lines.
pub const OFF_MAGIC: u64 = 16;

/// The superblock magic value (`b"EDE_NVM!"` read big-endian), written
/// to [`OFF_MAGIC`] of both header lines when an image is formatted.
/// Triage requires it: an image where *neither* header line carries the
/// magic is not an EDE image at all (or was wiped to nothing) and is
/// diagnosed `Unrecoverable` rather than silently treated as empty.
pub const MAGIC: u64 = 0x4544_455F_4E56_4D21;

/// A decoded undo-log entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogEntry {
    /// Address the transaction overwrote.
    pub addr: u64,
    /// The value to restore on rollback.
    pub old: u64,
    /// The writing transaction.
    pub txid: u64,
}

impl LogEntry {
    /// The checksum guarding this entry's fields.
    pub fn checksum(&self) -> u64 {
        checksum(self.addr, self.old, self.txid)
    }
}

/// Entry checksum: mixes all fields so a torn or stale entry is rejected.
///
/// # Example
///
/// ```
/// use ede_nvm::log::{checksum, LogEntry};
///
/// let e = LogEntry { addr: 0x100, old: 7, txid: 3 };
/// assert_eq!(e.checksum(), checksum(0x100, 7, 3));
/// assert_ne!(e.checksum(), checksum(0x100, 7, 4));
/// ```
pub fn checksum(addr: u64, old: u64, txid: u64) -> u64 {
    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
    addr.rotate_left(13) ^ old.rotate_left(31) ^ txid.wrapping_mul(GOLDEN) ^ 0xEDE0_EDE0_EDE0_EDE0
}

fn header_checksum(txid: u64) -> u64 {
    (txid.wrapping_mul(0x9E37_79B9) ^ 0xEDE0_4A7C) & 0xFFFF_FFFF
}

/// Encodes a committed transaction id as the self-validating log-header
/// word: the id in the low 32 bits, a checksum of it in the high 32.
/// A write that tears between the halves — or a media fault that flips
/// any bit — fails validation and decodes as "nothing committed".
///
/// # Example
///
/// ```
/// use ede_nvm::log::{decode_header, header_word};
///
/// assert_eq!(decode_header(header_word(3)), 3);
/// assert_eq!(decode_header(3), 0);            // torn: checksum half lost
/// assert_eq!(decode_header(0), 0);            // fresh media
/// assert_eq!(decode_header(header_word(3) ^ 1), 0); // media bit flip
/// ```
///
/// # Panics
///
/// Panics if `txid` does not fit in 32 bits (the framework's ids are
/// small consecutive integers).
pub fn header_word(txid: u64) -> u64 {
    assert!(
        txid <= u64::from(u32::MAX),
        "transaction ids fit in 32 bits"
    );
    (header_checksum(txid) << 32) | txid
}

/// Decodes a log-header word: the committed transaction id if the word
/// validates, 0 (nothing committed) otherwise. See [`header_word`].
pub fn decode_header(word: u64) -> u64 {
    let lo = word & 0xFFFF_FFFF;
    if word >> 32 == header_checksum(lo) {
        lo
    } else {
        0
    }
}

/// How one on-media copy of a superblock marker word reads back.
///
/// `decode_header` collapses `Fresh` and `Corrupt` into "nothing
/// committed"; triage keeps them apart because the difference carries
/// information: a corrupt copy means the media was damaged *here*,
/// while a fresh copy is an ordinary pre-commit state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkerCopy {
    /// Raw zero — fresh media, nothing ever written.
    Fresh,
    /// A validating [`header_word`] carrying this transaction id.
    Valid(u64),
    /// Nonzero but failing validation: a torn write or media damage.
    Corrupt,
}

/// Classifies one marker-word copy. See [`MarkerCopy`].
pub fn classify_marker(word: u64) -> MarkerCopy {
    if word == 0 {
        return MarkerCopy::Fresh;
    }
    let lo = word & 0xFFFF_FFFF;
    if word >> 32 == header_checksum(lo) {
        MarkerCopy::Valid(lo)
    } else {
        MarkerCopy::Corrupt
    }
}

/// Resolves the committed transaction id from the primary and twin
/// copies of a marker word: the newest validating copy wins, a corrupt
/// copy is ignored, and a raw-zero copy counts as "nothing committed".
///
/// Because commit persists the twin strictly before the primary, the
/// twin is always at least as new on an uncorrupted image — so when the
/// primary is torn, the surviving twin holds *exactly* the committed
/// id, not merely a lower bound. Images without a twin line (all words
/// absent, i.e. zero) resolve identically to `decode_header(primary)`.
///
/// # Example
///
/// ```
/// use ede_nvm::log::{header_word, resolve_marker};
///
/// assert_eq!(resolve_marker(header_word(3), header_word(3)), 3);
/// assert_eq!(resolve_marker(0xDEAD, header_word(4)), 4); // torn primary
/// assert_eq!(resolve_marker(header_word(2), 0), 2);      // legacy image
/// assert_eq!(resolve_marker(0xDEAD, 0xBEEF), 0);         // both lost
/// ```
pub fn resolve_marker(primary: u64, twin: u64) -> u64 {
    let committed = |word| match classify_marker(word) {
        MarkerCopy::Fresh => Some(0),
        MarkerCopy::Valid(id) => Some(id),
        MarkerCopy::Corrupt => None,
    };
    match (committed(primary), committed(twin)) {
        (Some(a), Some(b)) => a.max(b),
        (Some(a), None) => a,
        (None, Some(b)) => b,
        (None, None) => 0,
    }
}

/// Decodes the entry stored at `slot` in a word-addressed view of NVM,
/// returning it only if the checksum validates.
///
/// `read` maps an 8-byte-aligned address to its value (absent words are
/// zero) — both [`SimMemory`](crate::SimMemory) and reconstructed crash
/// images fit.
pub fn decode_entry(slot: u64, read: impl Fn(u64) -> u64) -> Option<LogEntry> {
    let entry = LogEntry {
        addr: read(slot + OFF_ADDR),
        old: read(slot + OFF_OLD),
        txid: read(slot + OFF_TXID),
    };
    if read(slot + OFF_CSUM) == entry.checksum() && entry.txid != 0 {
        Some(entry)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn write_entry(mem: &mut HashMap<u64, u64>, slot: u64, e: &LogEntry) {
        mem.insert(slot + OFF_ADDR, e.addr);
        mem.insert(slot + OFF_OLD, e.old);
        mem.insert(slot + OFF_TXID, e.txid);
        mem.insert(slot + OFF_CSUM, e.checksum());
    }

    fn rd(mem: &HashMap<u64, u64>) -> impl Fn(u64) -> u64 + '_ {
        move |a| mem.get(&a).copied().unwrap_or(0)
    }

    #[test]
    fn roundtrip() {
        let mut mem = HashMap::new();
        let e = LogEntry {
            addr: 0x1_0000_2000,
            old: 99,
            txid: 5,
        };
        write_entry(&mut mem, 0x1_0000_0040, &e);
        assert_eq!(decode_entry(0x1_0000_0040, rd(&mem)), Some(e));
    }

    #[test]
    fn empty_slot_invalid() {
        let mem = HashMap::new();
        assert_eq!(decode_entry(0x40, rd(&mem)), None);
    }

    #[test]
    fn corrupt_checksum_rejected() {
        let mut mem = HashMap::new();
        let e = LogEntry {
            addr: 0x100,
            old: 1,
            txid: 2,
        };
        write_entry(&mut mem, 0x40, &e);
        mem.insert(0x40 + OFF_OLD, 999); // tear the entry
        assert_eq!(decode_entry(0x40, rd(&mem)), None);
    }

    #[test]
    fn partial_entry_rejected() {
        // Only the first STP persisted (addr + old): checksum missing.
        let mut mem = HashMap::new();
        mem.insert(0x40 + OFF_ADDR, 0x100);
        mem.insert(0x40 + OFF_OLD, 7);
        assert_eq!(decode_entry(0x40, rd(&mem)), None);
    }

    #[test]
    fn header_word_round_trips_and_rejects_corruption() {
        for txid in [0u64, 1, 2, 1000, u64::from(u32::MAX)] {
            assert_eq!(decode_header(header_word(txid)), txid);
        }
        // A torn write that persisted only the id half.
        assert_eq!(decode_header(5), 0);
        // A torn write that persisted only the checksum half.
        assert_eq!(decode_header(header_word(5) & !0xFFFF_FFFF), 0);
        // Every single-bit flip of a valid word invalidates it.
        let w = header_word(7);
        for bit in 0..64 {
            assert_eq!(decode_header(w ^ (1 << bit)), 0, "bit {bit}");
        }
    }

    #[test]
    fn marker_classification_keeps_fresh_and_corrupt_apart() {
        assert_eq!(classify_marker(0), MarkerCopy::Fresh);
        assert_eq!(classify_marker(header_word(9)), MarkerCopy::Valid(9));
        // header_word(0) is a *written* zero commit, not fresh media.
        assert_eq!(classify_marker(header_word(0)), MarkerCopy::Valid(0));
        assert_eq!(classify_marker(0xDEAD_BEEF), MarkerCopy::Corrupt);
        assert_eq!(classify_marker(header_word(9) ^ 2), MarkerCopy::Corrupt);
    }

    #[test]
    fn resolve_marker_prefers_the_newest_valid_copy() {
        // Twin-first commit means twin >= primary mid-commit.
        assert_eq!(resolve_marker(header_word(3), header_word(4)), 4);
        assert_eq!(resolve_marker(header_word(4), header_word(4)), 4);
        // Torn copies fall back to the survivor in either position.
        assert_eq!(resolve_marker(0x1234, header_word(7)), 7);
        assert_eq!(resolve_marker(header_word(7), 0x1234), 7);
        // Fresh copies are a plain zero commit, not corruption.
        assert_eq!(resolve_marker(0, header_word(2)), 2);
        assert_eq!(resolve_marker(header_word(2), 0), 2);
        assert_eq!(resolve_marker(0, 0), 0);
        // Both copies lost: nothing provably committed.
        assert_eq!(resolve_marker(0x1234, 0x5678), 0);
    }

    #[test]
    fn magic_is_not_a_valid_marker_or_entry() {
        // The magic constant must never masquerade as a committed id.
        assert_eq!(classify_marker(MAGIC), MarkerCopy::Corrupt);
        assert_eq!(decode_header(MAGIC), 0);
    }

    #[test]
    fn txid_zero_never_valid() {
        // A zero txid can't be distinguished from fresh NVM; the framework
        // starts transaction ids at 1.
        let mut mem = HashMap::new();
        let e = LogEntry {
            addr: 0,
            old: 0,
            txid: 0,
        };
        write_entry(&mut mem, 0x40, &e);
        assert_eq!(decode_entry(0x40, rd(&mem)), None);
    }
}
