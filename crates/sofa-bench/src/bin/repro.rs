//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro [OPTIONS] <EXPERIMENT>...
//!
//! EXPERIMENT   tab1 fig1 fig2-3 fig4 fig7 fig8 tab2 tab3 fig10 fig11
//!              fig12 fig13 tab4 tab5 tab6 fig15 ext-approx ext-numeric
//!              ext-chaos | all
//!
//! OPTIONS
//!   --quick            small sizes for smoke runs
//!   --profile chaos    run the fault-injection robustness experiment
//!                      (ext-chaos) when no experiment is given
//!   --scale <N>        divide paper series counts by N   (default 5000)
//!   --queries <N>      queries per dataset               (default 15)
//!   --threads <list>   comma-separated core sweep        (default 1,2,4)
//!   --leaf <N>         leaf capacity                     (default 500)
//!   --write <path>     append rendered markdown to a file
//!   --json <path>      overwrite a machine-readable file with the
//!                      scalar metrics the experiments record (e.g.
//!                      ext-chaos's submission and fault tallies)
//! ```

use sofa_bench::experiments::{all_experiments, find, Suite};
use sofa_bench::BenchConfig;
use std::io::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage_and_exit();
    }

    let mut cfg = BenchConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut write_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut profile: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => cfg = BenchConfig::quick(),
            "--profile" => profile = Some(parse(it.next(), "--profile")),
            "--scale" => cfg.scale = parse(it.next(), "--scale"),
            "--queries" => cfg.n_queries = parse(it.next(), "--queries"),
            "--leaf" => cfg.leaf_capacity = parse(it.next(), "--leaf"),
            "--threads" => {
                let list: String = parse(it.next(), "--threads");
                cfg.threads = list
                    .split(',')
                    .map(|t| {
                        t.trim().parse().unwrap_or_else(|_| die(&format!("bad thread count: {t}")))
                    })
                    .collect();
            }
            "--write" => write_path = Some(parse(it.next(), "--write")),
            "--json" => json_path = Some(parse(it.next(), "--json")),
            "--help" | "-h" => usage_and_exit(),
            other if other.starts_with('-') => die(&format!("unknown option {other}")),
            id => ids.push(id.to_string()),
        }
    }
    // A named profile supplies its experiment when the command line
    // names none — `repro --quick --profile chaos` is a complete
    // invocation.
    match profile.as_deref() {
        None => {}
        Some("chaos") if ids.is_empty() => ids.push("ext-chaos".to_string()),
        Some("chaos") => {}
        Some(other) => die(&format!("unknown profile {other} (known: chaos)")),
    }
    if ids.is_empty() {
        die("no experiment given (try `all`)");
    }

    let suite = Suite::new(cfg.clone());
    let mut experiments: Vec<_> = if ids.iter().any(|i| i == "all") {
        all_experiments()
    } else {
        ids.iter()
            .map(|id| find(id).unwrap_or_else(|| die(&format!("unknown experiment {id}"))))
            .collect()
    };
    // Dedupe while keeping first-mention order: repeated ids would run
    // twice and emit duplicate object keys in `--json` output.
    let mut seen = std::collections::HashSet::new();
    experiments.retain(|e| seen.insert(e.id));

    let mut rendered = String::new();
    let mut reports = Vec::new();
    for e in &experiments {
        eprintln!("== running {} ({}) ...", e.id, e.title);
        let (report, secs) = sofa_bench::timed(|| (e.run)(&suite));
        eprintln!("   done in {secs:.1}s");
        let section = report.render();
        println!("{section}");
        rendered.push_str(&section);
        rendered.push('\n');
        reports.push(report);
    }

    if let Some(path) = json_path {
        let json = sofa_bench::report::render_json(&reports);
        std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("wrote metrics for {} experiment(s) to {path}", reports.len());
    }

    if let Some(path) = write_path {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| die(&format!("cannot open {path}: {e}")));
        f.write_all(rendered.as_bytes())
            .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        eprintln!("appended {} experiment section(s) to {path}", experiments.len());
    }
}

fn parse<T: std::str::FromStr>(v: Option<String>, flag: &str) -> T {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn usage_and_exit() -> ! {
    eprintln!(
        "usage: repro [--quick] [--profile chaos] [--scale N] [--queries N] \
         [--threads a,b,c] [--leaf N] [--write FILE] [--json FILE] \
         <experiment>...\nexperiments: {} | all",
        all_experiments().iter().map(|e| e.id).collect::<Vec<_>>().join(" ")
    );
    std::process::exit(0);
}
