//! B1 MeltDown-Sampling (CVE-2024-44594): the generator's address mask is
//! silently truncated by the XiangShan load unit's narrower physical
//! address wire, sampling the aliased (protected) target.
//!
//! ```sh
//! cargo run --release --example meltdown_sampling
//! ```

use dejavuzz_ift::{IftMode, Module};
use dejavuzz_uarch::core::Core;
use dejavuzz_uarch::{attacks, boom_small, xiangshan_minimal};

fn main() {
    let case = attacks::meltdown_sampling();
    println!("scenario: {}\n", case.name);
    println!(
        "The transient packet computes  t0 = &secret | (1 << 63)  — an illegal\n\
         address. On XiangShan the pipeline's 64-bit wire feeds a {}-bit load-unit\n\
         wire, so the mask truncates away and the load samples the secret while\n\
         the access fault is still in flight.\n",
        xiangshan_minimal().paddr_bits
    );
    for cfg in [xiangshan_minimal(), boom_small()] {
        let mut mem = case.build_mem(&[0x2A]);
        let r = Core::new(cfg, IftMode::DiffIft).run(&mut mem, 10_000);
        let leaked = r
            .sinks
            .iter()
            .any(|s| s.module == Module::Dcache && s.exploitable());
        println!(
            "{:<10} (paddr {} bits): {}",
            cfg.name,
            cfg.paddr_bits,
            if leaked {
                "VULNERABLE — secret-indexed leak line live in the dcache"
            } else {
                "not vulnerable — the illegal address is blocked outright"
            }
        );
    }
}
