//! Detects the paper's B2 Phantom-RSB bug (CVE-2024-44591) on the
//! BOOM-like core and shows that the XiangShan-like core (full RAS
//! checkpointing) is immune.
//!
//! ```sh
//! cargo run --release --example find_phantom_rsb
//! ```

use dejavuzz_ift::{IftMode, Module};
use dejavuzz_uarch::core::Core;
use dejavuzz_uarch::{attacks, boom_small, xiangshan_minimal};

fn main() {
    let case = attacks::phantom_rsb();
    println!("scenario: {}\n", case.name);

    for cfg in [boom_small(), xiangshan_minimal()] {
        let mut mem = case.build_mem(&[0x2A]);
        let r = Core::new(cfg, IftMode::DiffIft).run(&mut mem, 10_000);
        let ras_leaks: Vec<_> = r
            .sinks
            .iter()
            .filter(|s| s.module == Module::Ras && s.exploitable())
            .collect();
        println!("{}:", cfg.name);
        match ras_leaks.first() {
            Some(s) => println!(
                "  VULNERABLE — RAS slot {} below TOS holds a live, secret-dependent \
                 return address (squash recovery restored only TOS + the top entry)",
                s.index
            ),
            None => println!("  not vulnerable — full RAS checkpointing restored every entry"),
        }
    }
    println!(
        "\nThe paper's fix status: \"all vulnerabilities in XiangShan have been fixed, \
         while bugs in BOOM will be retained for future research.\""
    );
}
