//! `paper` — every number the repository reports that `streambench`
//! does not.
//!
//! ```text
//! paper <experiment>                 print one model table (results/*.txt)
//! paper host [--quick] [--out PATH]  time this host, write results/host.json
//! ```
//!
//! The experiments are the rows of DESIGN.md's per-experiment index;
//! run without arguments for the list.  `--quick` shortens `host` to a
//! smoke run (shorter windows, three repetitions, no 10 000-instance
//! tier); `--out` changes where its report goes.

mod host;
mod model;

/// Subcommand, the `results/*.txt` its output is checked in as, table;
/// in the order of DESIGN.md's per-experiment index (E1–E9, A1, A2).
const MODEL: [(&str, &str, fn()); 11] = [
    ("benchchar", "table_benchchar", model::benchchar),
    ("main_comp", "fig_main_comp", model::main_comp),
    ("fine_dup", "fig_fine_dup", model::fine_dup),
    ("softpipe", "fig_softpipe", model::softpipe),
    ("thruput", "fig_thruput", model::thruput),
    ("vs_space", "fig_vs_space", model::vs_space),
    ("linear", "table_linear", model::linear),
    ("teleport", "table_teleport", model::teleport),
    ("verify", "table_verify", model::verify),
    ("granularity", "ablation_granularity", model::granularity),
    ("scaling", "ablation_scaling", model::scaling),
];

const HOST_OUT: &str = "results/host.json";

fn usage() -> ! {
    eprintln!("usage: paper <experiment> | paper host [--quick] [--out PATH]");
    for (sub, stem, _) in MODEL {
        eprintln!("  {sub:<12} results/{stem}.txt");
    }
    eprintln!("  {:<12} {HOST_OUT}", "host");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(sub) = argv.first() else { usage() };
    if sub == "host" {
        let quick = argv.iter().any(|a| a == "--quick");
        let out = argv.iter().position(|a| a == "--out");
        let out = out
            .and_then(|i| argv.get(i + 1))
            .map_or(HOST_OUT, String::as_str);
        return host::run(quick, out);
    }
    match MODEL.iter().find(|m| m.0 == sub) {
        Some((.., table)) => table(),
        None => usage(),
    }
}
