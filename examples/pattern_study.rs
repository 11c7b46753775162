//! Figure 1 reproduction: run the compile-time analysis over the whole
//! kernel catalogue (NPB UA/CG + SuiteSparse/CSparse patterns) and print
//! which loops it parallelizes versus the property-free baseline.
//!
//! `cargo run --release --example pattern_study`

use ss_npb::run_catalogue_study;

fn main() {
    let table = run_catalogue_study();
    println!("Figure 1: analysis of subscripted subscript patterns");
    println!("{}", table.render());
    for row in &table.rows {
        if !row.reasons.is_empty() {
            println!("{}:", row.kernel);
            for r in &row.reasons {
                println!("    {r}");
            }
        }
    }
}
