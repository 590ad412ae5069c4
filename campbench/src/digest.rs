//! The campaign digest: one number that must repeat exactly across every
//! trial of a workload at one seed, traced or not.

use std::fmt::Debug;
use std::fmt::Write as _;

use dejavuzz::ExecutorReport;

/// 64-bit FNV-1a over bytes and `Debug` renderings. Debug text keeps the
/// digest independent of how the engine spells its types internally.
#[derive(Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes in a value's `Debug` rendering plus a separator.
    pub fn debug(&mut self, value: &impl Debug) {
        let mut s = String::new();
        write!(s, "{value:?};").expect("writing to a String cannot fail");
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a finished campaign: iterations, coverage points, sims,
/// simulated cycles, deduplicated bug keys and corpus retention.
pub fn campaign_digest(report: &ExecutorReport) -> u64 {
    let stats = &report.stats;
    let mut h = Fnv::new();
    h.debug(&(stats.iterations, stats.sim_runs, stats.sim_cycles));
    h.debug(&report.coverage.sorted_points());
    let mut bugs: Vec<String> = stats
        .bugs
        .iter()
        .map(|b| format!("{:?}", b.dedup_key()))
        .collect();
    bugs.sort();
    h.debug(&bugs);
    h.debug(&report.corpus_retained);
    h.finish()
}
