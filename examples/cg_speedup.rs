//! Figure 10 reproduction: CG speedups (Classes A/B/C) after parallelizing
//! only the subscripted-subscript loops, at 2/4/6/8 threads.
//!
//! By default the sweep uses scaled-down instances so it finishes in about a
//! minute; pass `--full` to run the official NPB class sizes (slow) or
//! `--classes S,W,A` to choose classes.
//!
//! `cargo run --release --example cg_speedup -- [--full] [--classes A,B,C]`

use ss_npb::{figure10_sweep, render_figure10, Class};
use ss_runtime::hardware_threads;

fn parse_classes(arg: &str) -> Vec<Class> {
    arg.split(',')
        .filter_map(|s| match s.trim() {
            "S" => Some(Class::S),
            "W" => Some(Class::W),
            "A" => Some(Class::A),
            "B" => Some(Class::B),
            "C" => Some(Class::C),
            _ => None,
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let classes = args
        .iter()
        .position(|a| a == "--classes")
        .and_then(|i| args.get(i + 1))
        .map(|s| parse_classes(s))
        .unwrap_or_else(|| vec![Class::A, Class::B, Class::C]);
    let fraction = if full { 1.0 } else { 0.05 };
    let threads = [2usize, 4, 6, 8];
    println!(
        "CG speedups (paper Figure 10): {} instances, host has {} hardware threads",
        if full {
            "official"
        } else {
            "scaled (5% of official size; use --full for the real thing)"
        },
        hardware_threads()
    );
    let points = figure10_sweep(&classes, &threads, fraction);
    println!("{}", render_figure10(&points));
    // Highlight the paper's headline number: speedup at 4 threads.
    for p in &points {
        if p.threads == 4 {
            println!(
                "class {} at 4 threads: {:.2}x (paper reports ~3.8x for Class A on a 4-core machine)",
                p.class.name(),
                p.speedup
            );
        }
    }
}
