//! Export every measurement of the study (structured + MG-CFD, all
//! platforms, all variants) as CSV on stdout — for plotting pipelines.
fn main() {
    let sweep = portability::Sweep::measure();
    print!("{}", portability::write_csv(sweep.units()));
}
