//! The `paper` binary against what is checked in and what the documents
//! say about it:
//!
//! 1. every model subcommand prints its `results/*.txt` byte for byte,
//!    so the files cannot drift from the binary;
//! 2. `paper host --quick` exits 0 and its report has every cell, each
//!    with at least three repetitions and ordered quartiles;
//! 3. README.md, DESIGN.md and EXPERIMENTS.md name only `results/` files
//!    and `paper` subcommands that exist, and none of the harnesses
//!    this binary replaced.

use std::path::PathBuf;
use std::process::Command;

const PAPER: &str = env!("CARGO_BIN_EXE_paper");

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(subcommand, output file)` as `paper`'s own usage text lists them.
fn subcommands() -> Vec<(String, String)> {
    let usage = Command::new(PAPER).output().expect("paper runs");
    assert_eq!(
        usage.status.code(),
        Some(2),
        "bare `paper` is a usage error"
    );
    let listed = String::from_utf8(usage.stderr).expect("utf-8 usage");
    let rows = listed.lines().filter(|l| l.starts_with("  "));
    rows.map(|l| {
        let words: Vec<&str> = l.split_whitespace().collect();
        (words[0].to_string(), words[1].to_string())
    })
    .collect()
}

// ---- 1. model tables ---------------------------------------------------

fn reproduces(subs: &[&str]) {
    let listed = subcommands();
    for sub in subs {
        let (_, file) = listed
            .iter()
            .find(|(s, _)| s == sub)
            .unwrap_or_else(|| panic!("`paper` does not list `{sub}`"));
        let run = Command::new(PAPER).arg(sub).output().expect("paper runs");
        assert!(run.status.success(), "paper {sub}: {:?}", run.status);
        let want = std::fs::read(repo().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert!(
            run.stdout == want,
            "`paper {sub}` no longer prints {file}; regenerate it with \
             `cargo run --release -p streamit-bench --bin paper -- {sub} > {file}`"
        );
    }
}

// Three tests, so the two slow tables (fine-grained partitions of the
// whole suite, unoptimized) run beside the rest.
const FINE: [&str; 1] = ["fine_dup"];
const SYNC: [&str; 1] = ["granularity"];
const REST: [&str; 9] = [
    "benchchar",
    "main_comp",
    "softpipe",
    "thruput",
    "vs_space",
    "linear",
    "teleport",
    "verify",
    "scaling",
];

#[test]
fn fine_dup_reproduces_its_results_file() {
    reproduces(&FINE);
}

#[test]
fn granularity_reproduces_its_results_file() {
    reproduces(&SYNC);
}

#[test]
fn the_other_model_tables_reproduce_their_results_files() {
    reproduces(&REST);
    let mut checked: Vec<&str> = FINE.iter().chain(&SYNC).chain(&REST).copied().collect();
    let listed = subcommands();
    let mut model: Vec<&str> = listed.iter().map(|(s, _)| s.as_str()).collect();
    model.retain(|s| *s != "host");
    checked.sort_unstable();
    model.sort_unstable();
    assert_eq!(checked, model, "a model subcommand has no results check");
}

// ---- 2. the host report ------------------------------------------------

/// Just enough JSON to read the report back.
#[derive(Debug, PartialEq)]
enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    fn parse(text: &str) -> J {
        let mut p = Parser {
            s: text.as_bytes(),
            at: 0,
        };
        let v = p.value();
        p.space();
        assert_eq!(p.at, p.s.len(), "trailing text after the JSON value");
        v
    }

    fn get(&self, key: &str) -> &J {
        let J::Obj(fields) = self else {
            panic!("`{key}` asked of a non-object: {self:?}")
        };
        let field = fields.iter().find(|(k, _)| k == key);
        &field
            .unwrap_or_else(|| panic!("no `{key}` in the report"))
            .1
    }

    fn num(&self) -> f64 {
        match self {
            J::Num(v) => *v,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        let hit = self.s[self.at..].starts_with(word.as_bytes());
        self.at += if hit { word.len() } else { 0 };
        hit
    }

    fn string(&mut self) -> String {
        assert!(self.eat("\""), "string expected at byte {}", self.at);
        let mut out = Vec::new();
        loop {
            match self.s[self.at] {
                b'"' => break,
                b'\\' => {
                    out.push(self.s[self.at + 1]);
                    self.at += 2;
                }
                c => {
                    out.push(c);
                    self.at += 1;
                }
            }
        }
        self.at += 1;
        String::from_utf8(out).expect("utf-8 string")
    }

    /// `[` or `{` … `]` or `}`: `item` parses one element.
    fn sequence<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
        let mut items = Vec::new();
        self.space();
        while !self.eat(close) {
            assert!(
                items.is_empty() || self.eat(","),
                "comma expected at {}",
                self.at
            );
            items.push(item(self));
            self.space();
        }
        items
    }

    fn value(&mut self) -> J {
        self.space();
        if self.eat("null") {
            J::Null
        } else if self.eat("true") {
            J::Bool(true)
        } else if self.eat("false") {
            J::Bool(false)
        } else if self.eat("[") {
            J::Arr(self.sequence("]", Self::value))
        } else if self.eat("{") {
            J::Obj(self.sequence("}", |p| {
                p.space();
                let key = p.string();
                p.space();
                assert!(p.eat(":"), "colon expected at {}", p.at);
                (key, p.value())
            }))
        } else if self.s[self.at] == b'"' {
            J::Str(self.string())
        } else {
            let number = |c: &u8| c.is_ascii_digit() || b"+-.eE".contains(c);
            let len = self.s[self.at..].iter().take_while(|c| number(c)).count();
            let text = std::str::from_utf8(&self.s[self.at..self.at + len]).expect("ascii");
            self.at += len;
            J::Num(
                text.parse()
                    .unwrap_or_else(|e| panic!("number `{text}`: {e}")),
            )
        }
    }
}

/// Every cell `paper host --quick` must report: `(name, timed)`.  A
/// timed cell carries median, quartiles and repetitions; the others are
/// checks and counts.
fn expected_cells() -> Vec<(String, bool)> {
    let mut cells = Vec::new();
    let mut timed = |name: String| cells.push((name, true));
    timed("host.control".into());
    for app in ["fmradio", "filterbank", "beamformer", "bitonic"] {
        for cell in ["opt0", "opt1", "opt1_over_opt0"] {
            timed(format!("opt.{app}.{cell}"));
        }
        timed(format!("threads.{app}.serial"));
        for t in [1, 2, 4, 8] {
            timed(format!("threads.{app}.t{t}"));
            timed(format!("threads.{app}.t{t}_over_serial"));
        }
    }
    for app in ["fmradio", "filterbank", "beamformer"] {
        for mode in ["off", "replacement", "frequency"] {
            for engine in ["compiled", "parallel"] {
                timed(format!("linear.{app}.{engine}.{mode}"));
                if mode != "off" {
                    timed(format!("linear.{app}.{engine}.{mode}_over_off"));
                }
            }
        }
    }
    for graph in [
        "FIRCascade",
        "RateConvert",
        "DToA",
        "TargetDetect",
        "Equalizer",
        "Oversampler",
        "FilterBankLin",
        "OneBigFIR",
    ] {
        for cell in ["off", "frequency", "frequency_over_off"] {
            timed(format!("linear_suite.{graph}.{cell}"));
        }
    }
    for taps in [16, 64, 256, 1024] {
        for cell in ["direct", "overlap_save", "overlap_save_over_direct"] {
            timed(format!("crossover.taps{taps}.{cell}"));
        }
    }
    for taps in [8, 64, 256] {
        timed(format!("extraction.taps{taps}"));
    }
    for n in [100, 1000] {
        timed(format!("streamd.i{n}.items_out"));
    }
    for n in [100, 1000] {
        cells.push((format!("streamd.i{n}.feed"), false));
    }
    for app in ["fmradio", "filterbank", "beamformer"] {
        for mode in ["off", "replacement", "frequency"] {
            cells.push((format!("linear.{app}.check.{mode}"), false));
        }
    }
    cells
}

#[test]
fn host_quick_exits_zero_and_reports_every_cell() {
    let out = std::env::temp_dir().join(format!("paper_host_{}.json", std::process::id()));
    let run = Command::new(PAPER)
        .args(["host", "--quick", "--out"])
        .arg(&out)
        .output()
        .expect("paper runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "paper host --quick: {stderr}");
    let report = J::parse(&std::fs::read_to_string(&out).expect("report written"));
    std::fs::remove_file(&out).expect("report removed");

    assert_eq!(report.get("quick"), &J::Bool(true));
    assert!(
        matches!(report.get("steady"), J::Bool(_)),
        "`steady` is a bool"
    );
    assert!(report.get("host").get("cores").num() >= 1.0);
    assert!(report.get("reps").num() >= 3.0);
    let cells = report.get("cells");
    for (name, timed) in expected_cells() {
        let cell = cells.get(&name);
        if !timed {
            continue;
        }
        let [q1, median, q3] = ["q1", "median", "q3"].map(|k| cell.get(k).num());
        assert!(cell.get("reps").num() >= 3.0, "{name}: {cell:?}");
        assert!(0.0 < q1 && q1 <= median && median <= q3, "{name}: {cell:?}");
        if name.contains("_over_") {
            let J::Str(base) = cell.get("base") else {
                panic!("{name}: a ratio names its base")
            };
            assert_eq!(cells.get(base).get("reps"), cell.get("reps"), "{name}");
        }
    }
    for n in [100, 1000] {
        let feed = cells.get(&format!("streamd.i{n}.feed"));
        let [p50, p99, samples] = ["p50_us", "p99_us", "samples"].map(|k| feed.get(k).num());
        assert!(0.0 < p50 && p50 <= p99 && samples >= 100.0, "{feed:?}");
    }
}

// ---- 3. the documents --------------------------------------------------

/// Every maximal run of `[A-Za-z0-9_./*-]` in `text` that starts at a
/// word boundary with `prefix`.
fn tokens<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
    let word = |c: char| c.is_ascii_alphanumeric() || "_./*-".contains(c);
    let mut found = Vec::new();
    for (at, _) in text.match_indices(prefix) {
        if text[..at].chars().next_back().is_some_and(word) {
            continue;
        }
        let end = text[at..].find(|c| !word(c)).map_or(text.len(), |n| at + n);
        found.push(text[at..end].trim_end_matches('.'));
    }
    found
}

#[test]
fn documents_name_only_what_exists() {
    let listed = subcommands();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(repo().join(doc)).expect(doc);

        for path in tokens(&text, "results/") {
            let exists = path.contains('*') || repo().join(path).exists();
            assert!(exists, "{doc} names {path}, which does not exist");
        }
        // `paper <sub>` in code, and the cargo form `--bin paper -- <sub>`.
        for lead in ["`paper ", "--bin paper -- "] {
            for (at, _) in text.match_indices(lead) {
                let rest = &text[at + lead.len()..];
                let sub: String = rest
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                if rest.starts_with('<') {
                    continue;
                }
                assert!(
                    listed.iter().any(|(s, _)| *s == sub),
                    "{doc} names `paper {sub}`, which `paper` does not list"
                );
            }
        }
        for gone in [
            "BENCH_",
            "bench_engines",
            "bench_parallel",
            "bench_streamd",
            "microbench",
            "criterion",
            "Criterion",
        ] {
            assert!(!text.contains(gone), "{doc} still names {gone}");
        }
        // The old one-binary-per-figure names survive only as files.
        for prefix in ["fig_", "table_", "ablation_"] {
            let named = tokens(&text, prefix);
            assert!(
                named.is_empty(),
                "{doc} names {named:?}: say `paper <experiment>` or the `results/` file"
            );
        }
    }
}
