//! Waveform export: a minimal VCD (Value Change Dump) writer over the
//! per-cycle taint log.
//!
//! §7 of the paper: "developers usually only need simulation waveform
//! files to pinpoint bugs." This module turns a [`TaintLog`] (plus the RoB
//! IO trace) into a standards-shaped `.vcd` text a waveform viewer can
//! open: one vector signal per module carrying its tainted-register count,
//! a scalar for the global taint sum, and event markers for squashes and
//! traps.

use std::fmt::Write;

use dejavuzz_ift::{Module, TaintLog};

use crate::trace::{RobEvent, Trace};

/// Builds the VCD text for a run's taint log and trace.
///
/// Signals:
/// * `taint_sum` — the Figure 6 series,
/// * `m_<module>` — per-module tainted-register counts,
/// * `squash` / `trap` — 1-cycle event pulses.
pub fn to_vcd(log: &TaintLog, trace: &Trace, design: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "$date reproduction run $end");
    let _ = writeln!(out, "$version dejavuzz-uarch waveform 0.1 $end");
    let _ = writeln!(out, "$timescale 1ns $end");
    let _ = writeln!(out, "$scope module {design} $end");

    // Stable module list from the first census.
    let modules: Vec<Module> = log
        .cycle(0)
        .map(|c| c.modules().iter().map(|m| m.module).collect())
        .unwrap_or_default();
    // VCD identifier codes: printable ASCII starting at '!'.
    let code = |i: usize| -> char { (b'!' + i as u8) as char };
    let _ = writeln!(out, "$var wire 32 {} taint_sum $end", code(0));
    let _ = writeln!(out, "$var wire 1 {} squash $end", code(1));
    let _ = writeln!(out, "$var wire 1 {} trap $end", code(2));
    for (i, m) in modules.iter().enumerate() {
        let _ = writeln!(out, "$var wire 32 {} m_{m} $end", code(3 + i));
    }
    let _ = writeln!(out, "$upscope $end");
    let _ = writeln!(out, "$enddefinitions $end");

    // Event cycles.
    let squash_cycles: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            RobEvent::Squash { cycle, killed, .. } if *killed > 0 => Some(*cycle),
            _ => None,
        })
        .collect();
    let trap_cycles: Vec<u64> = trace
        .events()
        .iter()
        .filter_map(|e| match e {
            RobEvent::Trap { cycle, .. } => Some(*cycle),
            _ => None,
        })
        .collect();

    let mut prev_sum = u64::MAX;
    let mut prev_counts = vec![usize::MAX; modules.len()];
    let mut prev_squash = false;
    let mut prev_trap = false;
    for (cycle, census) in log.iter() {
        let mut events = String::new();
        let sum = census.taint_sum() as u64;
        if sum != prev_sum {
            let _ = writeln!(events, "b{:b} {}", sum, code(0));
            prev_sum = sum;
        }
        let sq = squash_cycles.contains(&(cycle as u64));
        if sq != prev_squash {
            let _ = writeln!(events, "{}{}", u8::from(sq), code(1));
            prev_squash = sq;
        }
        let tr = trap_cycles.contains(&(cycle as u64));
        if tr != prev_trap {
            let _ = writeln!(events, "{}{}", u8::from(tr), code(2));
            prev_trap = tr;
        }
        for (i, m) in census.modules().iter().enumerate() {
            if i < prev_counts.len() && prev_counts[i] != m.tainted {
                let _ = writeln!(events, "b{:b} {}", m.tainted, code(3 + i));
                prev_counts[i] = m.tainted;
            }
        }
        if !events.is_empty() {
            let _ = writeln!(out, "#{cycle}");
            out.push_str(&events);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks;
    use crate::config::boom_small;
    use crate::core::Core;
    use dejavuzz_ift::IftMode;

    fn spectre_run() -> (TaintLog, Trace) {
        let case = attacks::spectre_v1();
        let mut mem = case.build_mem(&[0x2A]);
        let r = Core::new(boom_small(), IftMode::DiffIft).run(&mut mem, 10_000);
        (r.taint_log, r.trace)
    }

    #[test]
    fn vcd_has_header_and_definitions() {
        let (log, trace) = spectre_run();
        let vcd = to_vcd(&log, &trace, "boom");
        assert!(vcd.contains("$timescale 1ns $end"));
        assert!(vcd.contains("$scope module boom $end"));
        assert!(vcd.contains("taint_sum"));
        assert!(vcd.contains("m_dcache"));
        assert!(vcd.contains("$enddefinitions $end"));
    }

    #[test]
    fn vcd_contains_timestamped_changes() {
        let (log, trace) = spectre_run();
        let vcd = to_vcd(&log, &trace, "boom");
        let timestamps = vcd.lines().filter(|l| l.starts_with('#')).count();
        assert!(timestamps > 5, "value changes over time: {timestamps}");
        // The squash pulse from the mispredict must appear.
        assert!(
            vcd.contains("1\"") || vcd.contains("0\""),
            "squash signal toggles"
        );
    }

    #[test]
    fn vcd_is_change_compressed() {
        let (log, trace) = spectre_run();
        let vcd = to_vcd(&log, &trace, "boom");
        // Far fewer emission points than cycles x signals (only changes
        // are dumped).
        let lines = vcd.lines().count();
        let cycles = log.len();
        let signals = 3 + log.cycle(0).map(|c| c.modules().len()).unwrap_or(0);
        assert!(
            lines < cycles * signals,
            "{lines} lines vs {} worst case",
            cycles * signals
        );
    }

    #[test]
    fn empty_log_produces_valid_skeleton() {
        let vcd = to_vcd(&TaintLog::new(), &Trace::new(), "empty");
        assert!(vcd.contains("$enddefinitions $end"));
    }
}
