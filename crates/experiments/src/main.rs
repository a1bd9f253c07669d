//! CLI entry point: regenerate any table/figure of the paper.
//!
//! ```text
//! eddie-experiments <id>... [--scale quick|full]
//! eddie-experiments all [--scale quick|full]
//! eddie-experiments serve [--addr HOST:PORT] [--scale quick|full]
//! eddie-experiments replay-client [--addr HOST:PORT] [--chunk N] [--scale quick|full]
//! eddie-experiments stats --addr HOST:PORT [--raw]
//! eddie-experiments chaos [--plan GRAMMAR] [--chunk N] [--scale quick|full]
//! eddie-experiments cluster [--shards N] [--clients N] [--chunk N] [--plan GRAMMAR] [--scale quick|full]
//! eddie-experiments soak [--devices N] [--programs P] [--budget N] [--chunk N] [--rounds N]
//! eddie-experiments --list
//! ```

use std::process::ExitCode;

use eddie_experiments::{clustercli, exps, servecli, soakcli, Scale};

fn usage() -> String {
    format!(
        "usage: eddie-experiments <id>... [--scale quick|full]\n\
         \x20      eddie-experiments serve [--addr HOST:PORT] [--scale quick|full]\n\
         \x20      eddie-experiments replay-client [--addr HOST:PORT] [--chunk N] [--scale quick|full]\n\
         \x20      eddie-experiments stats --addr HOST:PORT [--raw]\n\
         \x20      eddie-experiments chaos [--plan GRAMMAR] [--chunk N] [--scale quick|full]\n\
         \x20      eddie-experiments cluster [--shards N] [--clients N] [--chunk N] [--plan GRAMMAR] [--scale quick|full]\n\
         \x20      eddie-experiments soak [--devices N] [--programs P] [--budget N] [--chunk N] [--rounds N]\n\
         ids: {} | all\n\
         default scale: quick\n\
         env: EDDIE_THREADS=<n> sets the worker-pool width (default: all cores);\n\
         results are byte-identical for every thread count",
        exps::ALL.join(" | ")
    )
}

/// Runs the network-mode subcommands (`serve` / `replay-client`),
/// which take their own flags rather than an experiment id list.
fn run_servecli(cmd: &str, rest: &[String]) -> ExitCode {
    let started = std::time::Instant::now();
    let result = match cmd {
        "serve" => servecli::serve(rest),
        "replay-client" => servecli::replay_client(rest),
        "stats" => servecli::stats(rest),
        "chaos" => servecli::chaos(rest),
        "cluster" => clustercli::cluster(rest),
        "soak" => soakcli::soak(rest),
        _ => unreachable!(),
    };
    match result {
        Ok(output) => {
            println!("{output}");
            eprintln!(
                "[{cmd} finished in {:.1}s]\n",
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{cmd}: {e}\n{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list") {
        for id in exps::ALL {
            println!("{id}");
        }
        println!("serve");
        println!("replay-client");
        println!("stats");
        println!("chaos");
        println!("cluster");
        println!("soak");
        return ExitCode::SUCCESS;
    }
    if matches!(
        args[0].as_str(),
        "serve" | "replay-client" | "stats" | "chaos" | "cluster" | "soak"
    ) {
        return run_servecli(&args[0], &args[1..]);
    }

    let mut scale = Scale::Quick;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => match it.next().as_deref() {
                Some("quick") => scale = Scale::Quick,
                Some("full") => scale = Scale::Full,
                other => {
                    eprintln!("unknown scale {other:?}\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "all" => ids.extend(exps::ALL.iter().map(|s| s.to_string())),
            id => ids.push(id.to_string()),
        }
    }

    for id in &ids {
        let started = std::time::Instant::now();
        match exps::run(id, scale) {
            Some(output) => {
                println!("{output}");
                eprintln!(
                    "[{id} finished in {:.1}s]\n",
                    started.elapsed().as_secs_f64()
                );
            }
            None => {
                eprintln!("unknown experiment id `{id}`\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
