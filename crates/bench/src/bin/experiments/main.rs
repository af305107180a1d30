//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p milr-bench --bin experiments -- [--quick] [--seed N] <id>...
//! cargo run --release -p milr-bench --bin experiments -- all
//! ```
//!
//! Experiment ids (see DESIGN.md §4 for the full index):
//!
//! | id        | paper artifact                                        |
//! |-----------|-------------------------------------------------------|
//! | fig3-1    | correlation of 1-D signals                            |
//! | table3-1  | correlation coefficients of sample image pairs        |
//! | fig3-4    | whole-image vs region correlation                     |
//! | fig3-7    | DD weight outputs per weight policy (Figs 3-7/3-8/3-9)|
//! | fig4-1    | sample database images (Figs 4-1/4-2 montages)        |
//! | fig4-3    | waterfall run, 3 rounds (+ Figs 4-5/4-6 curves)       |
//! | fig4-4    | car run, 3 rounds                                     |
//! | fig4-7    | the misleading precision-recall curve                 |
//! | fig4-8    | policy comparison: waterfalls                         |
//! | fig4-9    | policy comparison: fields                             |
//! | fig4-10   | policy comparison: sunsets                            |
//! | fig4-11   | policy comparison: cars                               |
//! | fig4-12   | policy comparison: pants                              |
//! | fig4-13   | policy comparison: airplanes                          |
//! | fig4-14   | cars with β = 0.25                                    |
//! | fig4-15   | β sweep (Figs 4-15/4-16/4-17)                         |
//! | fig4-18   | instances per bag (18 / 40 / 84)                      |
//! | fig4-19   | resolution sweep (6 / 10 / 15)                        |
//! | fig4-20   | comparison with the colour baseline (Figs 4-20/4-21)  |
//! | fig4-22   | start-subset speed-up                                 |
//! | ext-color | §5 extension: per-channel colour features (3h² dims)  |
//! | ext-edges | §5 extension: Sobel-magnitude preprocessing           |
//! | ext-rot   | §5 extension: rotated region instances                |
//! | ext-solver| CFSQP-substitution ablation (projected grad vs penalty)|
//! | ext-scale | §5 claim: scaling changes are absorbed                |
//! | ext-qbic  | §1.1 motivation: global histogram vs MIL regions      |
//! | ext-agg   | aggregate policy stats (mean ± std over cats × seeds) |
//! | ext-alpha | §3.6.2 gradient-hack sweep (α = 1 … ∞)                |
//! | ext-beta  | §5 future work: automatic β selection on the pool     |
//! | scenarios | sub-image feedback grid → BENCH_scenarios.json        |

mod ch3;
mod ch4;
mod scenarios;

use std::time::Instant;

use milr_bench::Scale;

/// All experiment ids in execution order.
const ALL: &[&str] = &[
    "fig3-1",
    "table3-1",
    "fig3-4",
    "fig3-7",
    "fig4-3",
    "fig4-4",
    "fig4-7",
    "fig4-8",
    "fig4-9",
    "fig4-10",
    "fig4-11",
    "fig4-12",
    "fig4-13",
    "fig4-14",
    "fig4-15",
    "fig4-18",
    "fig4-19",
    "fig4-20",
    "fig4-22",
    "ext-color",
    "ext-edges",
    "ext-rot",
    "ext-solver",
    "ext-scale",
    "ext-qbic",
    "ext-agg",
    "ext-alpha",
];

/// Ids runnable on request but excluded from `all`: the β-selection
/// sweep is far slower than any figure, and the scenario grid pins its
/// own corpus (it ignores `--quick`/`--seed` so its artifact can be
/// gated for exact reproducibility).
const STANDALONE: &[&str] = &["ext-beta", "scenarios"];

fn main() {
    let mut scale = Scale::Full;
    let mut seed = 0u64;
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs an integer"));
            }
            "--help" | "-h" => usage(""),
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        usage("no experiment id given");
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|s| (*s).to_owned()).collect();
    }

    for id in &ids {
        let start = Instant::now();
        println!("\n{}", "=".repeat(78));
        println!("== {id}");
        println!("{}", "=".repeat(78));
        match id.as_str() {
            "fig3-1" => ch3::fig3_1(),
            "table3-1" => ch3::table3_1(seed),
            "fig3-4" => ch3::fig3_4(seed),
            "fig3-7" => ch3::fig3_7(scale, seed),
            "fig4-1" => ch4::sample_images(scale, seed),
            "fig4-3" => ch4::sample_run_scenes(scale, seed),
            "fig4-4" => ch4::sample_run_objects(scale, seed),
            "fig4-7" => ch4::misleading_pr(),
            "fig4-8" => ch4::policy_comparison_scene(scale, seed, "waterfall"),
            "fig4-9" => ch4::policy_comparison_scene(scale, seed, "field"),
            "fig4-10" => ch4::policy_comparison_scene(scale, seed, "sunset"),
            "fig4-11" => ch4::policy_comparison_object(scale, seed, "car"),
            "fig4-12" => ch4::policy_comparison_object(scale, seed, "pants"),
            "fig4-13" => ch4::policy_comparison_object(scale, seed, "airplane"),
            "fig4-14" => ch4::car_beta_quarter(scale, seed),
            "fig4-15" => ch4::beta_sweep(scale, seed),
            "fig4-18" => ch4::instances_per_bag(scale, seed),
            "fig4-19" => ch4::resolution_sweep(scale, seed),
            "fig4-20" => ch4::baseline_comparison(scale, seed),
            "fig4-22" => ch4::start_subset(scale, seed),
            "ext-color" => ch4::ext_color(scale, seed),
            "ext-edges" => ch4::ext_edges(scale, seed),
            "ext-rot" => ch4::ext_rotations(scale, seed),
            "ext-solver" => ch4::ext_solver(scale, seed),
            "ext-scale" => ch4::ext_scale(scale, seed),
            "ext-qbic" => ch4::ext_qbic(scale, seed),
            "ext-agg" => ch4::ext_aggregate(scale, seed),
            "ext-alpha" => ch4::ext_alpha(scale, seed),
            "ext-beta" => ch4::ext_beta(scale, seed),
            "scenarios" => scenarios::scenarios(),
            other => usage(&format!("unknown experiment id {other:?}")),
        }
        println!("\n[{id} finished in {:.1}s]", start.elapsed().as_secs_f64());
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: experiments [--quick] [--seed N] <id>... | all\n\nids: {}\n\
         standalone (not part of `all`): {}",
        ALL.join(", "),
        STANDALONE.join(", ")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}
