//! Tainted two-plane memory with the Table 1 read/write port policies.

use crate::policy::{IftMode, Policy};
use crate::tword::TWord;

/// A word-addressed memory with independent value planes for the two DUT
/// variants and a shared taint plane.
///
/// Read and write ports implement the last two rows of Table 1:
///
/// * read:  `mem_t[addr] | {WIDTH{addr_diff}}`
/// * write: `(Wen ? Wdata_t : mem_t[addr]) | {WIDTH{Wen_diff | (addr_diff & Wen)}}`
///
/// Under CellIFT the `*_diff` gates are replaced by "the signal is tainted".
///
/// The number of tainted slots is kept current by every store, so
/// [`TMem::tainted_slots`] is a read, not a scan of the taint plane.
#[derive(Debug, PartialEq, Eq)]
pub struct TMem {
    a: Vec<u64>,
    b: Vec<u64>,
    t: Vec<u64>,
    /// Slots with a non-zero taint word.
    tainted: usize,
}

impl Clone for TMem {
    fn clone(&self) -> Self {
        TMem {
            a: self.a.clone(),
            b: self.b.clone(),
            t: self.t.clone(),
            tainted: self.tainted,
        }
    }

    /// Copies `source` in place, reusing this memory's planes, so a
    /// simulator checkpoint of the same geometry is saved and restored
    /// without allocating.
    fn clone_from(&mut self, source: &Self) {
        self.a.clone_from(&source.a);
        self.b.clone_from(&source.b);
        self.t.clone_from(&source.t);
        self.tainted = source.tainted;
    }
}

impl TMem {
    /// An all-zero, untainted memory of `len` words.
    pub fn new(len: usize) -> Self {
        TMem {
            a: vec![0; len],
            b: vec![0; len],
            t: vec![0; len],
            tainted: 0,
        }
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// True if the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Direct (testbench) access to a slot, bypassing the port policies.
    pub fn peek(&self, idx: usize) -> TWord {
        TWord {
            a: self.a[idx],
            b: self.b[idx],
            t: self.t[idx],
        }
    }

    /// Direct (testbench) store to a slot, bypassing the port policies.
    /// Used to initialise program images and to plant secrets.
    pub fn poke(&mut self, idx: usize, w: TWord) {
        self.a[idx] = w.a;
        self.b[idx] = w.b;
        self.set_taint(idx, w.t);
    }

    /// Stores a slot's taint word, keeping the tainted-slot count.
    fn set_taint(&mut self, idx: usize, t: u64) {
        let slot = &mut self.t[idx];
        self.tainted = self.tainted + usize::from(t != 0) - usize::from(*slot != 0);
        *slot = t;
    }

    /// Zeroes every slot in both value planes and the taint plane,
    /// restoring the state of [`TMem::new`] without reallocating.
    pub fn reset(&mut self) {
        self.a.fill(0);
        self.b.fill(0);
        self.t.fill(0);
        self.tainted = 0;
    }

    /// Clears every taint bit, leaving values intact.
    pub fn clear_taint(&mut self) {
        self.t.fill(0);
        self.tainted = 0;
    }

    /// Number of slots with at least one taint bit set. Debug builds
    /// check the kept count against a scan of the taint plane.
    pub fn tainted_slots(&self) -> usize {
        debug_assert_eq!(
            self.tainted,
            self.t.iter().filter(|&&t| t != 0).count(),
            "kept tainted-slot count"
        );
        self.tainted
    }

    /// Iterates over the taint plane.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.t.iter().copied()
    }

    /// Memory read port (Table 1 row 4). Addresses are wrapped into range so
    /// transiently wild addresses behave like a hardware index truncation.
    pub fn read(&self, policy: Policy, addr: TWord) -> TWord {
        let n = self.a.len() as u64;
        let ia = (addr.a % n) as usize;
        let ib = (addr.b % n) as usize;
        let a = self.a[ia];
        let b = self.b[ib];
        if policy.mode() == IftMode::Base {
            return TWord { a, b, t: 0 };
        }
        // Data taint: the union of the slots each variant actually read.
        let mut t = self.t[ia] | self.t[ib];
        let addr_gate = match policy.mode() {
            IftMode::CellIft => addr.is_tainted(),
            IftMode::DiffIft => ia != ib,
            IftMode::Base => false,
        };
        if addr_gate {
            t = u64::MAX; // {WIDTH{addr_diff}}
        }
        TWord { a, b, t }
    }

    /// Memory write port (Table 1 row 5).
    pub fn write(&mut self, policy: Policy, wen: TWord, addr: TWord, data: TWord) {
        let n = self.a.len() as u64;
        let ia = (addr.a % n) as usize;
        let ib = (addr.b % n) as usize;
        if wen.a != 0 {
            self.a[ia] = data.a;
        }
        if wen.b != 0 {
            self.b[ib] = data.b;
        }
        if policy.mode() == IftMode::Base {
            return;
        }
        // Wen ? Wdata_t : mem_t[addr], applied to each plane's slot.
        if wen.a != 0 {
            self.set_taint(ia, data.t);
        }
        if wen.b != 0 && ib != ia {
            self.set_taint(ib, data.t);
        } else if wen.b != 0 {
            self.set_taint(ib, self.t[ib] | data.t);
        }
        let wen_gate = match policy.mode() {
            IftMode::CellIft => wen.is_tainted(),
            IftMode::DiffIft => wen.a != wen.b,
            IftMode::Base => false,
        };
        let addr_gate = wen.either()
            && match policy.mode() {
                IftMode::CellIft => addr.is_tainted(),
                IftMode::DiffIft => ia != ib,
                IftMode::Base => false,
            };
        if wen_gate || addr_gate {
            // {WIDTH{Wen_diff | (addr_diff & Wen)}} over both touched slots:
            // the variants disagree on *which* slot (or whether a slot) got
            // the data, so both candidate slots become secret-dependent.
            self.set_taint(ia, u64::MAX);
            self.set_taint(ib, u64::MAX);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIFF: Policy = Policy::new(IftMode::DiffIft);
    const CELL: Policy = Policy::new(IftMode::CellIft);
    const BASE: Policy = Policy::new(IftMode::Base);

    fn mem_with(idx: usize, w: TWord) -> TMem {
        let mut m = TMem::new(16);
        m.poke(idx, w);
        m
    }

    #[test]
    fn read_returns_per_plane_slots() {
        let mut m = TMem::new(16);
        m.poke(3, TWord::lit(30));
        m.poke(5, TWord::lit(50));
        let o = m.read(DIFF, TWord::with_taint(3, 5, u64::MAX));
        assert_eq!(o.a, 30);
        assert_eq!(o.b, 50);
        assert_eq!(o.t, u64::MAX, "diverged address fully taints the read");
    }

    #[test]
    fn read_same_address_keeps_data_taint_only() {
        let m = mem_with(3, TWord::with_taint(30, 31, 0xFF));
        let o = m.read(DIFF, TWord::with_taint(3, 3, u64::MAX));
        assert_eq!(
            o.t, 0xFF,
            "tainted-but-equal address: no control taint under diffIFT"
        );
        let o2 = m.read(CELL, TWord::with_taint(3, 3, u64::MAX));
        assert_eq!(
            o2.t,
            u64::MAX,
            "CellIFT taints the whole read on a tainted address"
        );
    }

    #[test]
    fn read_untainted_address_unaffected() {
        let m = mem_with(3, TWord::lit(30));
        assert_eq!(m.read(DIFF, TWord::lit(3)).t, 0);
        assert_eq!(m.read(CELL, TWord::lit(3)).t, 0);
    }

    #[test]
    fn write_stores_per_plane() {
        let mut m = TMem::new(16);
        m.write(
            DIFF,
            TWord::lit(1),
            TWord::lit(2),
            TWord::with_taint(7, 9, 0x1),
        );
        let s = m.peek(2);
        assert_eq!(s.a, 7);
        assert_eq!(s.b, 9);
        assert_eq!(s.t, 0x1);
    }

    #[test]
    fn write_disabled_is_noop() {
        let mut m = mem_with(2, TWord::lit(5));
        m.write(DIFF, TWord::lit(0), TWord::lit(2), TWord::lit(9));
        assert_eq!(m.peek(2).a, 5);
    }

    #[test]
    fn write_diverged_address_taints_both_slots() {
        // Spectre-V1 signature: the transient leak store/load touches a
        // secret-dependent slot, so both candidate slots become tainted.
        let mut m = TMem::new(16);
        m.write(DIFF, TWord::lit(1), TWord::secret(4, 8), TWord::lit(1));
        assert_eq!(m.peek(4).t, u64::MAX);
        assert_eq!(m.peek(8).t, u64::MAX);
        assert_eq!(m.peek(4).a, 1);
        assert_eq!(m.peek(8).b, 1);
        assert_eq!(m.tainted_slots(), 2);
    }

    #[test]
    fn write_diverged_wen_taints_slot() {
        // Only variant A performs the write (secret-dependent enable).
        let mut m = mem_with(2, TWord::lit(5));
        m.write(
            DIFF,
            TWord::with_taint(1, 0, 1),
            TWord::lit(2),
            TWord::lit(9),
        );
        let s = m.peek(2);
        assert_eq!(s.a, 9);
        assert_eq!(s.b, 5);
        assert_eq!(s.t, u64::MAX);
    }

    #[test]
    fn cellift_write_taints_on_tainted_wen_even_without_diff() {
        let mut m = mem_with(2, TWord::lit(5));
        m.write(
            CELL,
            TWord::with_taint(1, 1, 1),
            TWord::lit(9),
            TWord::lit(9),
        );
        assert_eq!(m.peek(9).t, u64::MAX);
        let mut m2 = mem_with(2, TWord::lit(5));
        m2.write(
            DIFF,
            TWord::with_taint(1, 1, 1),
            TWord::lit(9),
            TWord::lit(9),
        );
        assert_eq!(
            m2.peek(9).t,
            0,
            "diffIFT suppresses the equal-enable control taint"
        );
    }

    #[test]
    fn base_mode_tracks_values_not_taint() {
        let mut m = TMem::new(8);
        m.write(BASE, TWord::lit(1), TWord::lit(1), TWord::secret(3, 4));
        assert_eq!(m.peek(1).a, 3);
        assert_eq!(m.peek(1).t, 0);
        assert_eq!(m.read(BASE, TWord::secret(1, 2)).t, 0);
    }

    #[test]
    fn clear_taint_and_census() {
        let mut m = TMem::new(8);
        m.poke(1, TWord::secret(0, 1));
        m.poke(2, TWord::secret(0, 1));
        assert_eq!(m.tainted_slots(), 2);
        m.clear_taint();
        assert_eq!(m.tainted_slots(), 0);
        assert_eq!(m.peek(1).a, 0);
        assert_eq!(m.peek(1).b, 1, "values survive taint clearing");
    }

    #[test]
    fn reset_restores_a_fresh_memory() {
        let mut m = TMem::new(8);
        m.poke(1, TWord::secret(3, 4));
        m.write(DIFF, TWord::lit(1), TWord::secret(2, 5), TWord::lit(9));
        m.reset();
        assert_eq!(m, TMem::new(8));
    }

    #[test]
    fn clone_from_copies_in_place() {
        let mut src = TMem::new(8);
        src.poke(1, TWord::secret(3, 4));
        src.write(DIFF, TWord::lit(1), TWord::secret(2, 5), TWord::lit(9));
        let mut dst = TMem::new(8);
        dst.poke(7, TWord::lit(70));
        let planes = [dst.a.as_ptr(), dst.b.as_ptr(), dst.t.as_ptr()];
        dst.clone_from(&src);
        assert_eq!(dst, src);
        assert_eq!(
            [dst.a.as_ptr(), dst.b.as_ptr(), dst.t.as_ptr()],
            planes,
            "same geometry: every plane keeps its buffer"
        );
        let mut shorter = TMem::new(2);
        shorter.clone_from(&src);
        assert_eq!(shorter, src, "a different geometry still copies exactly");
    }

    #[test]
    fn addresses_wrap_into_range() {
        let m = TMem::new(8);
        let _ = m.read(DIFF, TWord::lit(u64::MAX));
    }
}
