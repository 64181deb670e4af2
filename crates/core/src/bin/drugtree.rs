//! The `drugtree` command-line shell.
//!
//! ```sh
//! cargo run --release -p drugtree --bin drugtree -- --leaves 256 --ligands 32
//! ```
//!
//! Builds a synthetic deployment and drops into a query REPL:
//!
//! ```text
//! drugtree> activities in subtree('clade1') where p_activity >= 6.5
//! drugtree> \explain aggregate count in tree
//! drugtree> \report
//! ```

use drugtree::prelude::*;
use std::io::{BufRead, Write};

struct Options {
    leaves: usize,
    ligands: usize,
    seed: u64,
    sources: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        leaves: 256,
        ligands: 32,
        seed: 7,
        sources: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| -> Result<u64, String> {
            args.next()
                .ok_or_else(|| format!("{name} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--leaves" => opts.leaves = take("--leaves")? as usize,
            "--ligands" => opts.ligands = take("--ligands")? as usize,
            "--seed" => opts.seed = take("--seed")?,
            "--sources" => opts.sources = take("--sources")? as usize,
            "--help" | "-h" => {
                println!("usage: drugtree [--leaves N] [--ligands N] [--seed N] [--sources N]");
                println!("       drugtree top <export.jsonl>   fold a trace export into a workload summary");
                println!("       drugtree advisor <export.jsonl>  show what the self-driving layer decided");
                println!(
                    "       drugtree rules                list the rewrite-rule registry by phase"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(opts)
}

fn print_result(result: &QueryResult) {
    // Column widths over header + up to 40 shown rows.
    let shown = result.rows.len().min(40);
    let mut widths: Vec<usize> = result.columns.iter().map(String::len).collect();
    let cells: Vec<Vec<String>> = result.rows[..shown]
        .iter()
        .map(|row| row.iter().map(render_value).collect())
        .collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            widths[i] = widths[i].max(c.len());
        }
    }
    let line = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(&result.columns));
    for row in &cells {
        println!("{}", line(row));
    }
    if result.rows.len() > shown {
        println!("... ({} more rows)", result.rows.len() - shown);
    }
    println!(
        "{} rows in {:?} virtual | {} round-trips | cache_hit={:?} | pruned={}",
        result.rows.len(),
        result.metrics.virtual_cost,
        result.metrics.source_requests,
        result.metrics.cache_hit,
        result.metrics.pruned_leaves,
    );
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("{f:.3}"),
        Value::Text(s) if s.chars().count() > 24 => {
            let cut: String = s.chars().take(23).collect();
            format!("{cut}…")
        }
        other => other.to_string(),
    }
}

/// `drugtree rules`: dump the rewrite-rule registry, phase by phase.
fn run_rules() -> i32 {
    println!(
        "{:<12} {:<22} {:<9} description",
        "phase", "rule", "ablatable"
    );
    for phase in drugtree_query::phases::PHASE_ORDER {
        for rule in drugtree_query::phases::rules_in(phase) {
            println!(
                "{:<12} {:<22} {:<9} {}",
                phase.label(),
                rule.name,
                if rule.ablatable() { "yes" } else { "-" },
                rule.description,
            );
        }
    }
    0
}

/// `drugtree top <export.jsonl>`: fold a fleet-observability JSONL
/// export into a workload summary table.
fn run_top(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: drugtree top <export.jsonl>");
        return 2;
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return 2;
        }
    };
    let report = TopReport::from_lines(content.lines());
    if report.queries() == 0 && report.windows() == 0 {
        eprintln!("error: {path}: no query or window events found");
        return 1;
    }
    print!("{}", report.render());
    0
}

/// `drugtree advisor <export.jsonl>`: fold the adaptation decisions
/// out of a fleet-observability JSONL export.
fn run_advisor(args: &[String]) -> i32 {
    let Some(path) = args.first() else {
        eprintln!("usage: drugtree advisor <export.jsonl>");
        return 2;
    };
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return 2;
        }
    };
    let report = AdvisorReport::from_lines(content.lines());
    if report.adaptations() == 0 {
        eprintln!("error: {path}: no adaptation records found (is the adaptive layer enabled?)");
        return 1;
    }
    print!("{}", report.render());
    0
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("top") {
        std::process::exit(run_top(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("advisor") {
        std::process::exit(run_advisor(&raw[1..]));
    }
    if raw.first().map(String::as_str) == Some("rules") {
        std::process::exit(run_rules());
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    println!(
        "generating synthetic deployment: {} leaves, {} ligands, {} assay source(s), seed {}",
        opts.leaves, opts.ligands, opts.sources, opts.seed
    );
    let bundle = SyntheticBundle::generate(
        &WorkloadSpec::default()
            .leaves(opts.leaves)
            .ligands(opts.ligands)
            .seed(opts.seed)
            .assay_sources(opts.sources),
    );
    let mut system = match DrugTree::builder()
        .dataset(bundle.build_dataset())
        .optimizer(OptimizerConfig::full())
        .with_columnar()
        .build()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("build failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}\n", system.report());
    println!("type a query, \\help for commands, \\q to quit\n");

    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("drugtree> ");
        let _ = stdout.flush();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "\\q" | "\\quit" | "exit" => break,
            "\\help" => {
                println!("  <query>            run a query (see README for the language)");
                println!("  \\explain <query>   show the plan without running it");
                println!("  \\analyze <query>   run the query and show plan + metrics");
                println!("  \\report            deployment + cache summary");
                println!("  \\refresh           invalidate caches, re-collect statistics");
                println!("  \\newick            print the tree");
                println!("  \\q                 quit");
            }
            "\\report" => println!("{}", system.report()),
            "\\refresh" => match system.refresh() {
                Ok(()) => println!("caches invalidated, statistics re-collected"),
                Err(e) => println!("refresh failed: {e}"),
            },
            "\\newick" => println!("{}", to_newick(&system.dataset().tree)),
            other => {
                if let Some(q) = other.strip_prefix("\\explain ") {
                    match system.explain(q) {
                        Ok(text) => println!("{text}"),
                        Err(e) => println!("error: {e}"),
                    }
                } else if let Some(q) = other.strip_prefix("\\analyze ") {
                    match system
                        .explain(q)
                        .and_then(|plan| system.query(q).map(|result| (plan, result)))
                    {
                        Ok((plan, result)) => {
                            println!("{plan}");
                            print_result(&result);
                        }
                        Err(e) => println!("error: {e}"),
                    }
                } else {
                    match system.query(other) {
                        Ok(result) => print_result(&result),
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
        }
    }
}
