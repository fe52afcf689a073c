//! `thicket` — a small CLI for exploring on-disk profile ensembles.
//!
//! ```text
//! thicket <PROFILE_DIR> [COMMAND]
//!
//! COMMANDS:
//!   summary                     ensemble overview (default)
//!   metadata                    print the metadata table
//!   perf [N]                    print the first N perf-data rows (default 20)
//!   stats <METRIC>              mean/std/min/max of METRIC per node
//!   tree <METRIC>               call tree annotated with METRIC (first profile)
//!   query <QUERY> <METRIC>      apply a string-dialect query, print the tree
//!   csv  <perf|metadata|stats>  CSV to stdout
//! ```

use std::io::Write;
use std::process::ExitCode;
use thicket::prelude::*;
use thicket_dataframe::AggFn;

#[path = "common/output.rs"]
mod output;
use output::{run_to_stdout, Failure};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_to_stdout(
        "thicket",
        "usage: thicket <PROFILE_DIR> [summary|metadata|perf [N]|stats <METRIC>|tree <METRIC>|query <QUERY> <METRIC>|csv <perf|metadata|stats>]",
        |out| run(&args, out),
    )
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let dir = args.first().ok_or("missing profile directory")?;
    let mut tk = Thicket::loader(LoadSource::ensemble(dir))
        .load()
        .map_err(|e| format!("loading {dir}: {e}"))?
        .0;

    let command = args.get(1).map(String::as_str).unwrap_or("summary");
    match command {
        "summary" => {
            write!(out, "{tk}")?;
            writeln!(out, "metric columns:")?;
            for key in tk.perf_data().column_keys() {
                writeln!(out, "  {key}")?;
            }
            writeln!(out, "metadata columns:")?;
            for key in tk.metadata().column_keys() {
                writeln!(out, "  {key}")?;
            }
        }
        "metadata" => write!(out, "{}", tk.metadata())?,
        "perf" => {
            let n: usize = args
                .get(2)
                .map(|s| s.parse().map_err(|_| format!("bad row count {s:?}")))
                .transpose()?
                .unwrap_or(20);
            write!(out, "{}", tk.perf_data_named().head(n))?;
        }
        "stats" => {
            let metric = args.get(2).ok_or("stats needs a metric name")?;
            tk.compute_stats(&[(
                ColKey::new(metric),
                vec![AggFn::Mean, AggFn::Std, AggFn::Min, AggFn::Max],
            )])
            .map_err(|e| e.to_string())?;
            write!(out, "{}", tk.statsframe_named())?;
        }
        "tree" => {
            let metric = args.get(2).ok_or("tree needs a metric name")?;
            let profile = tk.profiles()[0].clone();
            write!(out, "{}", tk.tree(&ColKey::new(metric), &profile))?;
        }
        "query" => {
            let query = args.get(2).ok_or("query needs a query string")?;
            let metric = args.get(3).ok_or("query needs a metric name")?;
            let sub = tk.query_str(query).map_err(|e| e.to_string())?;
            if sub.graph().is_empty() {
                writeln!(out, "(no nodes matched)")?;
            } else {
                let profile = sub.profiles()[0].clone();
                write!(out, "{}", sub.tree(&ColKey::new(metric), &profile))?;
            }
        }
        "csv" => {
            let what = args.get(2).map(String::as_str).unwrap_or("perf");
            match what {
                "perf" => write!(out, "{}", tk.perf_csv())?,
                "metadata" => write!(out, "{}", tk.metadata_csv())?,
                "stats" => {
                    tk.compute_stats_all(AggFn::Mean).map_err(|e| e.to_string())?;
                    write!(out, "{}", tk.stats_csv())?;
                }
                other => return Err(format!("unknown csv target {other:?}").into()),
            }
        }
        other => return Err(format!("unknown command {other:?}").into()),
    }
    Ok(())
}
