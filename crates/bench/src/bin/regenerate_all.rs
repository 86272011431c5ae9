//! One-command reproduction: regenerate every table, figure, in-text
//! aggregate and ablation into `results/` as plain text + CSV.
//!
//!     cargo run --release -p bench-harness --bin regenerate_all [outdir]
//!
//! The paper's 306-unit cross-product is measured once; every artifact
//! except Table 1 and the ablation sweeps is a rendering of that sweep.

use std::fs;
use std::path::PathBuf;

fn main() -> std::io::Result<()> {
    let outdir = PathBuf::from(std::env::args().nth(1).unwrap_or_else(|| "results".into()));
    fs::create_dir_all(&outdir)?;
    let sweep = portability::Sweep::measure();
    for (name, content) in bench_harness::artifacts(&sweep) {
        let path = outdir.join(name);
        fs::write(&path, content)?;
        println!("wrote {}", path.display());
    }
    println!("\nAll artifacts regenerated into {}/", outdir.display());
    Ok(())
}
