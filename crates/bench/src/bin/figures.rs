//! Regenerate the paper's evaluation artifacts.
//!
//! ```text
//! cargo run -p il-bench --release --bin figures -- all
//! cargo run -p il-bench --release --bin figures -- fig5 fig10 table2
//! cargo run -p il-bench --release --bin figures -- fig4 --max-nodes 64
//! cargo run -p il-bench --release --bin figures -- all --repeats 5
//! cargo run -p il-bench --release --bin figures -- fig4 --out-dir /tmp/r
//! cargo run -p il-bench --release --bin figures -- scale --scale-max-nodes 65536
//! ```
//!
//! ASCII tables print to stdout; CSVs land in `--out-dir` (default
//! `results/`). The DES is deterministic, so each figure point runs once
//! by default; `--repeats 5` restores the paper's 5-run methodology with
//! every rerun asserted identical. `--pool N` sizes the sweep thread
//! pool (default: one worker per hardware thread — the CSVs are
//! byte-identical at any width). `scale` prints its table and writes no
//! file. Performance is recorded by the `perfbench` benchmark
//! (`BENCHMARK.json`), not by this binary.
//!
//! An unknown target, an unknown flag, or a flag without a valid value
//! exits with status 2 and a usage line.

use il_bench::figures::{fig10, fig4, fig5, fig6, fig7, fig8, fig9, Figure, SweepOpts};
use il_bench::machine_scale;
use il_bench::render::{render_figure, render_table, write_figure_csv, write_table_csv};
use il_bench::tables::{extrapolate_checks, table2, table3};
use il_runtime::ThreadPool;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Every target the binary accepts.
const TARGETS: [&str; 12] = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table2", "table3", "extrapolate",
    "scale", "all",
];

fn usage_error(msg: &str) -> ! {
    eprintln!("figures: {msg}");
    eprintln!(
        "usage: figures [{}]... [--max-nodes N] [--scale-max-nodes N] [--repeats N] [--pool N] \
         [--out-dir DIR]",
        TARGETS.join("|")
    );
    std::process::exit(2);
}

/// The value following `flag`, which must be present.
fn value(flag: &str, next: Option<String>) -> String {
    next.unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
}

/// The value following `flag`, parsed as a number.
fn number<T: FromStr>(flag: &str, next: Option<String>) -> T {
    let v = value(flag, next);
    v.parse()
        .unwrap_or_else(|_| usage_error(&format!("{flag} takes a number, got {v:?}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut targets: Vec<String> = Vec::new();
    let mut max_nodes = 1024usize;
    let mut scale_max_nodes = 1_048_576usize;
    let mut repeats = 1u32;
    let mut pool_size = 0usize;
    let mut out_dir = PathBuf::from("results");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--max-nodes" => max_nodes = number(&arg, args.next()),
            "--scale-max-nodes" => scale_max_nodes = number(&arg, args.next()),
            "--repeats" => repeats = number(&arg, args.next()),
            "--pool" => pool_size = number(&arg, args.next()),
            "--out-dir" => out_dir = PathBuf::from(value(&arg, args.next())),
            t if TARGETS.contains(&t) => targets.push(arg),
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag:?}")),
            other => usage_error(&format!("unknown target {other:?}")),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = TARGETS
            .iter()
            .filter(|t| !matches!(**t, "scale" | "all"))
            .map(|t| t.to_string())
            .collect();
    }

    let pool = if pool_size == 0 {
        ThreadPool::with_default_parallelism()
    } else {
        ThreadPool::new(pool_size)
    };
    let opts = SweepOpts::new(max_nodes).repeats(repeats);

    for target in &targets {
        match target.as_str() {
            "fig4" => emit(fig4(&pool, opts), false, &out_dir),
            "fig5" => emit(fig5(&pool, opts), true, &out_dir),
            "fig6" => emit(fig6(&pool, opts), true, &out_dir),
            "fig7" => emit(fig7(&pool, opts), false, &out_dir),
            "fig8" => emit(fig8(&pool, opts), true, &out_dir),
            "fig9" => emit(fig9(&pool, opts), true, &out_dir),
            "fig10" => emit(fig10(&pool, opts), true, &out_dir),
            "table2" => {
                let rows = table2();
                print!("{}", render_table("Table 2: dynamic self-checks", "Projection functor", &rows));
                write_table_csv("table2", &rows, &out_dir).expect("write table2.csv");
                println!();
            }
            "extrapolate" => {
                let rows = extrapolate_checks();
                print!(
                    "{}",
                    render_table(
                        "Extrapolation (§6.3): dynamic-check cost at future machine scales",
                        "Launch domain size ->",
                        &rows
                    )
                );
                write_table_csv("extrapolate", &rows, &out_dir).expect("write extrapolate.csv");
                println!();
            }
            // Not part of "all": the machine-scale sweep measures the
            // raw DES, not a paper figure, and the 1M-node point takes
            // a while. `--scale-max-nodes 65536` is the CI smoke size.
            "scale" => {
                print!("{}", machine_scale::weak_scaling(scale_max_nodes).render());
                println!();
            }
            "table3" => {
                let rows = table3();
                print!("{}", render_table("Table 3: dynamic cross-checks", "Number of arguments", &rows));
                write_table_csv("table3", &rows, &out_dir).expect("write table3.csv");
                println!();
            }
            _ => unreachable!("targets are checked while parsing"),
        }
    }
}

fn emit(fig: Figure, per_node: bool, out_dir: &Path) {
    print!("{}", render_figure(&fig, per_node));
    write_figure_csv(&fig, out_dir).expect("write figure csv");
    println!();
}
