//! Regenerates Figure 9: MG-CFD (Rotor37) runtimes on the three CPUs.
fn main() {
    print!("{}", bench_harness::figure9_text());
}
