//! Regenerates Figure 8: MG-CFD (Rotor37) runtimes on the three GPUs.
fn main() {
    print!("{}", bench_harness::figure8_text());
}
