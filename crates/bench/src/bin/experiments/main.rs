//! Experiment harness: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p milr-bench --bin experiments -- [--quick] [--seed N] <id>...
//! cargo run --release -p milr-bench --bin experiments -- all
//! cargo run --release -p milr-bench --bin experiments -- train-probe [--budgets 2,5,100] [--check]
//! cargo run --release -p milr-bench --bin experiments -- --check scenarios train-probe
//! ```
//!
//! `scenarios` and `train-probe` write their committed accuracy
//! artifacts; with `--check` they compare a fresh run with the committed
//! file instead and exit 1 on any difference beyond the tolerances the
//! file states.
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
//! | ext-scale | §5 claim: scaling changes are absorbed                |
//! | ext-qbic  | §1.1 motivation: global histogram vs MIL regions      |
//! | ext-agg   | aggregate policy stats (mean ± std over cats × seeds) |
//! | ext-alpha | §3.6.2 gradient-hack sweep (α = 1 … ∞)                |
//! | ext-beta  | §5 future work: automatic β selection on the pool     |
//! | scenarios | sub-image feedback grid → BENCH_scenarios.json        |
//! | train-probe | exact DD training counts → BENCH_train_probe.json   |

mod ch3;
mod ch4;
mod scenarios;
mod train_probe;

use std::time::Instant;

use milr_bench::Scale;
use milr_serve::Json;
use milr_testkit::artifact;

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
    "ext-scale",
    "ext-qbic",
    "ext-agg",
    "ext-alpha",
];

/// Ids runnable on request but excluded from `all`: the Fig 4-1/4-2
/// montages are image files rather than numbers, the β-selection sweep
/// is far slower than any figure, and the scenario grid and the
/// training probe pin their own corpora (they ignore `--quick`/`--seed`
/// so their artifacts can be checked for exact reproducibility).
const STANDALONE: &[&str] = &["fig4-1", "ext-beta", "scenarios", "train-probe"];

/// The ids `--check` applies to: those that write a committed artifact.
const CHECKED: &[&str] = &["scenarios", "train-probe"];

/// The first of `ids` that names no experiment (`all` included).
fn unknown_id(ids: &[String]) -> Option<&str> {
    ids.iter()
        .map(String::as_str)
        .find(|id| *id != "all" && !ALL.contains(id) && !STANDALONE.contains(id))
}

/// The first of the given flags that applies to none of `ids`:
/// `--check` needs one of [`CHECKED`], `--budgets` needs `train-probe`.
fn inapplicable_flag(ids: &[String], check: bool, budgets: bool) -> Option<&'static str> {
    let names = |wanted: &[&str]| ids.iter().any(|id| wanted.contains(&id.as_str()));
    if check && !names(CHECKED) {
        Some("--check")
    } else if budgets && !names(&["train-probe"]) {
        Some("--budgets")
    } else {
        None
    }
}

/// Writes `fresh` to `path` through the shared artifact writer, or with
/// `check` compares it with the committed file there, printing one
/// path-qualified line (rooted at `root`) per difference. Returns
/// whether the file now holds, or already held, this run.
fn bless_or_check(root: &str, path: &str, fresh: &Json, check: bool) -> bool {
    if !check {
        std::fs::write(path, artifact::render(fresh))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("\nwrote {path}");
        return true;
    }
    let committed = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e} (write it without --check)"));
    let committed = Json::parse(&committed).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"));
    let diffs = artifact::diff(root, &committed, fresh);
    if diffs.is_empty() {
        println!("\n{path}: every value holds at the tolerances it states");
    } else {
        println!("\n{path} differs in {} place(s):", diffs.len());
        for diff in &diffs {
            println!("  {diff}");
        }
    }
    diffs.is_empty()
}

fn main() {
    let mut scale = Scale::Full;
    let mut seed = 0u64;
    let mut ids: Vec<String> = Vec::new();
    let mut budgets: Option<Vec<usize>> = None;
    let mut check = false;
    let mut failed = false;
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
            "--budgets" => {
                let parsed = args
                    .next()
                    .and_then(|s| s.split(',').map(|b| b.parse().ok()).collect())
                    .filter(|b: &Vec<usize>| !b.is_empty() && !b.contains(&0))
                    .unwrap_or_else(|| usage("--budgets needs positive integers, like 2,5,100"));
                budgets = Some(parsed);
            }
            "--check" => check = true,
            "--help" | "-h" => usage(""),
            id => ids.push(id.to_owned()),
        }
    }
    if ids.is_empty() {
        usage("no experiment id given");
    }
    // Every id is checked before the first one runs, so a typo late in
    // the list does not cost the minutes the earlier experiments take.
    if let Some(id) = unknown_id(&ids) {
        usage(&format!("unknown experiment id {id:?}"));
    }
    if let Some(flag) = inapplicable_flag(&ids, check, budgets.is_some()) {
        usage(&format!("{flag} applies to none of the given ids"));
    }
    let budgets = budgets.unwrap_or_else(|| train_probe::DEFAULT_BUDGETS.to_vec());
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
            "ext-scale" => ch4::ext_scale(scale, seed),
            "ext-qbic" => ch4::ext_qbic(scale, seed),
            "ext-agg" => ch4::ext_aggregate(scale, seed),
            "ext-alpha" => ch4::ext_alpha(scale, seed),
            "ext-beta" => ch4::ext_beta(scale, seed),
            "scenarios" => failed |= !scenarios::scenarios(check),
            "train-probe" => failed |= !train_probe::train_probe(&budgets, check),
            other => unreachable!("id {other:?} passed validation"),
        }
        println!("\n[{id} finished in {:.1}s]", start.elapsed().as_secs_f64());
    }
    if failed {
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}\n");
    }
    eprintln!(
        "usage: experiments [--quick] [--seed N] [--budgets B,B,...] [--check] <id>... | all\n\n\
         --check applies to scenarios and train-probe: it compares a fresh run with the\n\
         committed BENCH_scenarios.json / BENCH_train_probe.json instead of writing it\n\
         --budgets applies to train-probe\n\nids: {}\n\
         standalone (not part of `all`): {}",
        ALL.join(", "),
        STANDALONE.join(", ")
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn unknown_id_is_found_behind_valid_ones() {
        let listed: Vec<&str> = ALL.iter().chain(STANDALONE).copied().collect();
        assert_eq!(unknown_id(&ids(&listed)), None);
        assert_eq!(
            unknown_id(&ids(&["fig4-3", "ext-solvr"])),
            Some("ext-solvr")
        );
        assert_eq!(unknown_id(&ids(&["all", "fig4-2"])), Some("fig4-2"));
    }

    #[test]
    fn flags_that_apply_to_no_given_id_are_found() {
        for (list, check, budgets, found) in [
            (&["fig4-8"][..], true, false, Some("--check")),
            (&["all"], true, false, Some("--check")),
            (&["scenarios"], false, true, Some("--budgets")),
            (&["scenarios"], true, true, Some("--budgets")),
            (&["fig4-8"], false, false, None),
            (&["fig4-8", "scenarios"], true, false, None),
            (&["train-probe"], true, true, None),
        ] {
            assert_eq!(
                inapplicable_flag(&ids(list), check, budgets),
                found,
                "{list:?}"
            );
        }
    }
}
