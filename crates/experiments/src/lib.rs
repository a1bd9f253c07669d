//! Experiment harness: regenerates every table and figure of the
//! paper's evaluation (§5), plus the ablations listed in `DESIGN.md`.
//!
//! Each experiment is a module under [`exps`] with a `run(scale) ->
//! String` function that prints the same rows/series the paper reports.
//! The binary (`cargo run --release -p eddie-experiments -- <id>`)
//! dispatches on the experiment id; `--scale full` uses paper-scale run
//! counts, while the default `quick` scale finishes in seconds per
//! experiment.
//!
//! ## Scaling note
//!
//! Our workloads are deliberately ~100–1000× shorter than full MiBench
//! runs (they execute on a from-scratch simulator), so every time scale
//! shrinks proportionally: power-trace sampling, STFT windows, and the
//! absolute detection latencies. The *shape* of each result — who wins,
//! how curves move with the swept parameter — is what reproduces the
//! paper; `EXPERIMENTS.md` records paper-vs-measured for each artifact.

pub mod clustercli;
pub mod diff;
pub mod exps;
pub mod harness;
pub mod servecli;
pub mod soakcli;
pub mod sweep;

use std::fmt::Write as _;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-experiment sizing for smoke runs and CI.
    Quick,
    /// Paper-scale run counts (Table 1: 25 train + 25 monitor runs per
    /// benchmark; Table 2: 10 + 10).
    Full,
}

impl Scale {
    /// Training runs for the IoT (EM) setup (paper: 25).
    pub fn train_runs_iot(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 25,
        }
    }

    /// Monitoring runs for the IoT setup (paper: 25).
    pub fn monitor_runs_iot(self) -> usize {
        match self {
            Scale::Quick => 4,
            Scale::Full => 25,
        }
    }

    /// Training runs for the simulator setup (paper: 10).
    pub fn train_runs_sim(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// Monitoring runs for the simulator setup (paper: 10).
    pub fn monitor_runs_sim(self) -> usize {
        match self {
            Scale::Quick => 3,
            Scale::Full => 10,
        }
    }

    /// Workload scale factor (iteration-count multiplier).
    pub fn workload_scale(self) -> u32 {
        match self {
            Scale::Quick => 6,
            Scale::Full => 12,
        }
    }
}

/// Formats a simple aligned text table: a header row plus data rows.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize], out: &mut String| {
        for (i, cell) in cells.iter().enumerate() {
            let w = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "{cell:<w$}  ");
        }
        let _ = writeln!(out);
    };
    fmt_row(
        &header.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
        &widths,
        &mut out,
    );
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    let _ = writeln!(out, "{}", "-".repeat(total));
    for row in rows {
        fmt_row(row, &widths, &mut out);
    }
    out
}

/// Rounds to one decimal for table output.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Rounds to two decimals for table output.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_order_sensibly() {
        assert!(Scale::Quick.train_runs_iot() < Scale::Full.train_runs_iot());
        assert!(Scale::Quick.workload_scale() <= Scale::Full.workload_scale());
    }

    #[test]
    fn table_is_aligned() {
        let t = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "2".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(f2(1.259), "1.26");
    }
}
