//! Cache hierarchy models: I-cache, D-cache with MSHR / line-fill buffer,
//! and the TLB / L2 TLB pair.
//!
//! Cache *metadata* (which line is resident) is two-plane: a transient,
//! secret-dependent access allocates different lines in the two DUT
//! variants, which is precisely the classic cache side channel. Latency
//! queries therefore return per-plane cycle counts.
//!
//! The line-fill buffer keeps its data after the owning MSHR completes —
//! the paper's flagship *unexploitable residue* example (§3.1): the stale
//! secret is tainted but its `mshr_valid` liveness bit is low, so the
//! liveness filter of §4.3.2 rejects it.
//!
//! Every structure here keeps its census count (how many entries hold a
//! tainted value) current at the sites that write entry taints, so a
//! per-cycle census reads a counter instead of scanning the entries.
//! Debug builds check each count against a full scan whenever it is
//! reported.

use dejavuzz_ift::{Census, TWord};

/// Per-plane hit/miss outcome of a cache probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Plane-1 latency in cycles.
    pub lat_a: u64,
    /// Plane-2 latency in cycles.
    pub lat_b: u64,
    /// Plane-1 hit?
    pub hit_a: bool,
    /// Plane-2 hit?
    pub hit_b: bool,
}

impl Probe {
    /// True when the two variants observed different latencies — a timing
    /// side channel.
    pub fn diverged(&self) -> bool {
        self.lat_a != self.lat_b
    }
}

/// A direct-mapped cache directory (tags only; data lives in the backing
/// store). Used for both the I-cache and the D-cache.
#[derive(Clone, Debug)]
pub struct Cache {
    module: &'static str,
    /// Per-line tag, per plane (`None` = invalid).
    tags_a: Vec<Option<u64>>,
    tags_b: Vec<Option<u64>>,
    /// Taint of the cached line's *data* (set when tainted data was filled
    /// or when the fill address was secret-dependent).
    line_taint: Vec<u64>,
    /// Lines of `line_taint` that are non-zero.
    tainted: usize,
    line_bytes: u64,
    hit_latency: u64,
    miss_latency: u64,
}

impl Cache {
    /// A cache of `lines` lines of `line_bytes` bytes each.
    pub fn new(
        module: &'static str,
        lines: usize,
        line_bytes: u64,
        hit_latency: u64,
        miss_latency: u64,
    ) -> Self {
        Cache {
            module,
            tags_a: vec![None; lines],
            tags_b: vec![None; lines],
            line_taint: vec![0; lines],
            tainted: 0,
            line_bytes,
            hit_latency,
            miss_latency,
        }
    }

    fn line_of(&self, addr: u64) -> (usize, u64) {
        let tag = addr / self.line_bytes;
        ((tag as usize) % self.tags_a.len(), tag)
    }

    /// Probes and updates the cache with an access at `addr` (two-plane).
    /// Misses allocate the line; `data_taint` taints the allocated line's
    /// data. A diverged (secret-dependent) address allocates different
    /// lines per plane and taints both.
    pub fn access(&mut self, addr: TWord, data_taint: u64) -> Probe {
        let (ia, tag_a) = self.line_of(addr.a);
        let (ib, tag_b) = self.line_of(addr.b);
        let hit_a = self.tags_a[ia] == Some(tag_a);
        let hit_b = self.tags_b[ib] == Some(tag_b);
        self.tags_a[ia] = Some(tag_a);
        self.tags_b[ib] = Some(tag_b);
        let line_taint = data_taint
            | if addr.is_tainted() && addr.diff() {
                u64::MAX
            } else {
                0
            };
        self.taint_line(ia, line_taint);
        if ib != ia {
            self.taint_line(ib, line_taint);
        }
        Probe {
            lat_a: if hit_a {
                self.hit_latency
            } else {
                self.miss_latency
            },
            lat_b: if hit_b {
                self.hit_latency
            } else {
                self.miss_latency
            },
            hit_a,
            hit_b,
        }
    }

    /// Ors `taint` into line `i`'s data taint: the one write site of
    /// `line_taint` besides [`Cache::reset`].
    fn taint_line(&mut self, i: usize, taint: u64) {
        let old = self.line_taint[i];
        self.line_taint[i] = old | taint;
        self.tainted = recount(self.tainted, old, old | taint);
    }

    /// Probes without allocating (lookup only).
    pub fn peek(&self, addr: TWord) -> Probe {
        let (ia, tag_a) = self.line_of(addr.a);
        let (ib, tag_b) = self.line_of(addr.b);
        let hit_a = self.tags_a[ia] == Some(tag_a);
        let hit_b = self.tags_b[ib] == Some(tag_b);
        Probe {
            lat_a: if hit_a {
                self.hit_latency
            } else {
                self.miss_latency
            },
            lat_b: if hit_b {
                self.hit_latency
            } else {
                self.miss_latency
            },
            hit_a,
            hit_b,
        }
    }

    /// Invalidates every line (the swap runtime's icache flush). Taints are
    /// *not* cleared: stale tainted data in an invalid line is exactly the
    /// residue class the liveness filter must reject.
    pub fn flush(&mut self) {
        self.tags_a.iter_mut().for_each(|t| *t = None);
        self.tags_b.iter_mut().for_each(|t| *t = None);
    }

    /// Fully resets lines *and* taints (new fuzzing iteration).
    pub fn reset(&mut self) {
        self.flush();
        self.line_taint.iter_mut().for_each(|t| *t = 0);
        self.tainted = 0;
    }

    /// Per-line validity (plane union) — the line liveness vector.
    pub fn valid_vec(&self) -> Vec<bool> {
        self.tags_a
            .iter()
            .zip(&self.tags_b)
            .map(|(a, b)| a.is_some() || b.is_some())
            .collect()
    }

    /// Per-line data taints.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.line_taint.iter().copied()
    }

    /// Number of lines resident in plane 1 but not plane 2 or vice versa —
    /// a quick footprint-divergence metric (SpecDoctor's hash differences
    /// boil down to this).
    pub fn divergent_lines(&self) -> usize {
        self.tags_a
            .iter()
            .zip(&self.tags_b)
            .filter(|(a, b)| a != b)
            .count()
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "{} count", self.module);
        census.report_counts(self.module, self.tainted, self.line_taint.len());
    }

    /// FNV-style hash of one plane's residency state (SpecDoctor's
    /// final-state hashing oracle operates on such per-variant snapshots).
    pub fn hash_plane(&self, plane: usize) -> u64 {
        let tags = if plane == 0 {
            &self.tags_a
        } else {
            &self.tags_b
        };
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in tags {
            h ^= t.map_or(u64::MAX, |v| v);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        h
    }
}

/// One miss-status holding register plus its line-fill-buffer slot.
#[derive(Clone, Copy, Debug, Default)]
struct Mshr {
    /// MSHR state register: high while the refill is in flight.
    valid: bool,
    /// The refilling address (plane a).
    addr: u64,
    /// Data sitting in the fill buffer — *not cleared* when `valid` drops.
    data: TWord,
    /// Cycle at which the refill completes.
    done_at: u64,
}

/// The MSHR file / line-fill buffer.
///
/// "Once the cache line refill is completed, MSHR switches its state
/// register to invalid to indicate that the data in the LFB is outdated
/// instead of clearing the LFB" (§3.1).
#[derive(Clone, Debug)]
pub struct LineFillBuffer {
    entries: Vec<Mshr>,
    next: usize,
    /// Entries whose fill data is tainted.
    tainted: usize,
}

impl LineFillBuffer {
    /// An LFB with `entries` MSHRs.
    pub fn new(entries: usize) -> Self {
        LineFillBuffer {
            entries: vec![Mshr::default(); entries],
            next: 0,
            tainted: 0,
        }
    }

    /// Allocates an MSHR for a miss at `addr` filling `data`, completing at
    /// `done_at`. Round-robin replacement.
    pub fn allocate(&mut self, addr: u64, data: TWord, done_at: u64) {
        let slot = self.next;
        self.next = (self.next + 1) % self.entries.len();
        self.tainted = recount(self.tainted, self.entries[slot].data.t, data.t);
        self.entries[slot] = Mshr {
            valid: true,
            addr,
            data,
            done_at,
        };
    }

    /// Retires MSHRs whose refills completed by `cycle`: the state register
    /// flips to invalid, the data stays.
    pub fn tick(&mut self, cycle: u64) {
        for e in &mut self.entries {
            if e.valid && cycle >= e.done_at {
                e.valid = false;
            }
        }
    }

    /// Forwards in-flight data for `addr`, if an active MSHR holds it
    /// (the MDS-style sampling path).
    pub fn forward(&self, addr: u64, line_bytes: u64) -> Option<TWord> {
        self.entries
            .iter()
            .find(|e| e.valid && e.addr / line_bytes == addr / line_bytes)
            .map(|e| e.data)
    }

    /// The `mshr_valid_vec` liveness signal of the paper's annotation
    /// listing.
    pub fn mshr_valid_vec(&self) -> Vec<bool> {
        self.entries.iter().map(|e| e.valid).collect()
    }

    /// Per-slot fill-data taints.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(|e| e.data.t)
    }

    /// Per-slot fill-data values of one variant (hash-oracle input).
    pub fn data_plane(&self, plane: usize) -> impl Iterator<Item = u64> + '_ {
        self.entries.iter().map(move |e| e.data.plane(plane))
    }

    /// Number of entries (for sweeps).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the buffer has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Clears everything (new fuzzing iteration).
    pub fn reset(&mut self) {
        self.entries.iter_mut().for_each(|e| *e = Mshr::default());
        self.next = 0;
        self.tainted = 0;
    }

    /// Reports into a census sweep.
    pub fn census(&self, census: &mut Census) {
        debug_assert_eq!(self.tainted, scan(self.taints()), "lfb count");
        census.report_counts("lfb", self.tainted, self.entries.len());
    }
}

/// A single-level TLB directory (page-granular [`Cache`] with its own
/// census name) plus a second-level TLB behind it.
#[derive(Clone, Debug)]
pub struct Tlb {
    l1: Cache,
    l2: Cache,
    walk_latency: u64,
}

impl Tlb {
    /// A TLB with `l1_entries`/`l2_entries` page entries.
    pub fn new(l1_entries: usize, l2_entries: usize, page_bytes: u64, walk_latency: u64) -> Self {
        Tlb {
            l1: Cache::new("tlb", l1_entries, page_bytes, 0, 1),
            l2: Cache::new("l2tlb", l2_entries, page_bytes, 1, 4),
            walk_latency,
        }
    }

    /// Translates (probes both levels), returning per-plane extra latency:
    /// 0 on an L1 hit, small on an L2 hit, `walk_latency` on a full walk.
    pub fn translate(&mut self, vaddr: TWord, taint: u64) -> Probe {
        let p1 = self.l1.access(vaddr, taint);
        let p2 = self.l2.access(vaddr, taint);
        let lat = |hit1: bool, hit2: bool| -> u64 {
            if hit1 {
                0
            } else if hit2 {
                self.l2.hit_latency + 2
            } else {
                self.walk_latency
            }
        };
        Probe {
            lat_a: lat(p1.hit_a, p2.hit_a),
            lat_b: lat(p1.hit_b, p2.hit_b),
            hit_a: p1.hit_a,
            hit_b: p1.hit_b,
        }
    }

    /// Per-entry liveness of the L1 TLB.
    pub fn valid_vec(&self) -> Vec<bool> {
        self.l1.valid_vec()
    }

    /// Per-entry liveness of the L2 TLB.
    pub fn l2_valid_vec(&self) -> Vec<bool> {
        self.l2.valid_vec()
    }

    /// L1 entry taints.
    pub fn taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.l1.taints()
    }

    /// L2 entry taints.
    pub fn l2_taints(&self) -> impl Iterator<Item = u64> + '_ {
        self.l2.taints()
    }

    /// Clears both levels.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
    }

    /// Reports both levels into a census sweep.
    pub fn census(&self, census: &mut Census) {
        self.l1.census(census);
        self.l2.census(census);
    }
}

/// The number of non-zero taints: the full scan a maintained census count
/// must always equal.
pub(crate) fn scan(taints: impl Iterator<Item = u64>) -> usize {
    taints.filter(|&t| t != 0).count()
}

/// A maintained census `count` after one entry's taint changed from `old`
/// to `new`.
pub(crate) fn recount(count: usize, old: u64, new: u64) -> usize {
    count + usize::from(new != 0) - usize::from(old != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> Cache {
        Cache::new("dcache", 16, 64, 2, 20)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = cache();
        let p = c.access(TWord::lit(0x8000), 0);
        assert!(!p.hit_a && !p.hit_b);
        assert_eq!(p.lat_a, 20);
        let p2 = c.access(TWord::lit(0x8008), 0); // same line
        assert!(p2.hit_a && p2.hit_b);
        assert_eq!(p2.lat_a, 2);
    }

    #[test]
    fn diverged_access_diverges_residency() {
        let mut c = cache();
        // Secret-dependent leak address: different lines per variant.
        c.access(TWord::secret(0x8000, 0x8140), u64::MAX);
        assert!(c.divergent_lines() >= 2);
        // Variant 1 now hits where variant 2 misses — the timing channel.
        let p = c.peek(TWord::lit(0x8000));
        assert!(p.hit_a && !p.hit_b);
        assert!(p.diverged());
    }

    #[test]
    fn diverged_access_taints_lines() {
        let mut c = cache();
        c.access(TWord::with_taint(0x8000, 0x8140, u64::MAX), 0);
        assert_eq!(c.taints().filter(|&t| t != 0).count(), 2);
    }

    #[test]
    fn flush_invalidates_but_keeps_taint() {
        let mut c = cache();
        c.access(TWord::lit(0x8000), 0xFF);
        c.flush();
        assert!(c.valid_vec().iter().all(|&v| !v));
        assert_eq!(
            c.taints().filter(|&t| t != 0).count(),
            1,
            "residue survives the flush"
        );
        c.reset();
        assert_eq!(c.taints().filter(|&t| t != 0).count(), 0);
    }

    #[test]
    fn census_reports_module_name() {
        let mut c = cache();
        c.access(TWord::lit(0x8000), 0xFF);
        let mut census = Census::new();
        c.census(&mut census);
        assert_eq!(census.module_tainted("dcache"), Some(1));
    }

    #[test]
    fn lfb_keeps_stale_data_after_mshr_retires() {
        let mut lfb = LineFillBuffer::new(4);
        lfb.allocate(0x8000, TWord::secret(0xAA, 0x55), 10);
        assert!(lfb.mshr_valid_vec()[0]);
        assert!(
            lfb.forward(0x8010, 64).is_some(),
            "in-flight data forwards within the line"
        );
        lfb.tick(10);
        assert!(
            !lfb.mshr_valid_vec()[0],
            "MSHR state register flips to invalid"
        );
        assert!(
            lfb.forward(0x8010, 64).is_none(),
            "retired MSHR no longer forwards"
        );
        assert_eq!(
            lfb.taints().filter(|&t| t != 0).count(),
            1,
            "the stale secret remains in the LFB — tainted but dead"
        );
    }

    #[test]
    fn lfb_round_robin_allocation() {
        let mut lfb = LineFillBuffer::new(2);
        lfb.allocate(0x1000, TWord::lit(1), 5);
        lfb.allocate(0x2000, TWord::lit(2), 5);
        lfb.allocate(0x3000, TWord::lit(3), 5); // reuses slot 0
        assert_eq!(lfb.forward(0x3000, 64).map(|w| w.a), Some(3));
        assert!(lfb.forward(0x1000, 64).is_none(), "evicted entry is gone");
        assert_eq!(lfb.len(), 2);
        assert!(!lfb.is_empty());
    }

    #[test]
    fn tlb_levels_have_graded_latency() {
        let mut tlb = Tlb::new(4, 16, 4096, 12);
        let p = tlb.translate(TWord::lit(0x8000), 0);
        assert_eq!(p.lat_a, 12, "cold: full walk");
        let p2 = tlb.translate(TWord::lit(0x8000), 0);
        assert_eq!(p2.lat_a, 0, "L1 hit is free");
        // Evict L1 (4 entries, page-granular) but keep L2 (16 entries).
        for i in 1..5u64 {
            tlb.translate(TWord::lit(0x8000 + i * 4096), 0);
        }
        let p3 = tlb.translate(TWord::lit(0x8000), 0);
        assert!(
            p3.lat_a > 0 && p3.lat_a < 12,
            "L2 hit is cheaper than a walk: {}",
            p3.lat_a
        );
    }

    #[test]
    fn tlb_census_reports_both_levels() {
        let mut tlb = Tlb::new(4, 16, 4096, 12);
        tlb.translate(TWord::secret(0x8000, 0x10_8000), u64::MAX);
        let mut census = Census::new();
        tlb.census(&mut census);
        assert!(census.module_tainted("tlb").unwrap() >= 1);
        assert!(census.module_tainted("l2tlb").unwrap() >= 1);
    }
}
