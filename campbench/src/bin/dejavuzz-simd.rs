//! The process-pool simulator worker for the `proc-netlist-small`
//! workload: the same entry point as the engine's own `dejavuzz-simd`,
//! built into this package's target directory so it sits next to the
//! `campbench` binary.

fn main() {
    if let Err(e) = dejavuzz::procbackend::serve_stdio() {
        eprintln!("dejavuzz-simd: {e}");
        std::process::exit(1);
    }
}
