//! Gnuplot script generation for the figure series.
//!
//! Each [`Series`] the study produces is a TSV; the
//! emitters here write a matching gnuplot script so a reproduction run can
//! be turned into actual figures with `gnuplot fig1.gnuplot`. No plotting
//! library is linked — the scripts are plain text artifacts.

use crate::report::Series;
use std::fmt::Write as _;

/// Plot styling for one emitted script.
#[derive(Debug, Clone)]
pub struct PlotSpec {
    /// Output PNG file name.
    pub output: String,
    /// Plot title.
    pub title: String,
    /// Y-axis label.
    pub ylabel: String,
    /// Whether the y-axis is a percentage (fixes the range to 0-100).
    pub percent: bool,
}

impl PlotSpec {
    /// Spec with a percentage y-axis.
    pub fn percent(output: &str, title: &str) -> Self {
        PlotSpec {
            output: output.to_owned(),
            title: title.to_owned(),
            ylabel: "share of domains (%)".to_owned(),
            percent: true,
        }
    }

    /// Spec with a free y-axis.
    pub fn counts(output: &str, title: &str, ylabel: &str) -> Self {
        PlotSpec {
            output: output.to_owned(),
            title: title.to_owned(),
            ylabel: ylabel.to_owned(),
            percent: false,
        }
    }
}

/// Columns of `series` (beyond the first, which must be a date) plotted as
/// lines against time. `data_file` is the TSV path the script will read
/// (write it with [`Series::render`]).
pub fn gnuplot_script(series: &Series, data_file: &str, spec: &PlotSpec) -> String {
    let columns = series.columns();
    let mut out = String::new();
    let _ = writeln!(out, "# generated by ruwhere — gnuplot {data_file}");
    let _ = writeln!(out, "set terminal pngcairo size 1100,520 font 'sans,11'");
    let _ = writeln!(out, "set output '{}'", spec.output);
    let _ = writeln!(out, "set title '{}'", spec.title.replace('\'', ""));
    let _ = writeln!(out, "set xdata time");
    let _ = writeln!(out, "set timefmt '%Y-%m-%d'");
    let _ = writeln!(out, "set format x '%Y-%m'");
    let _ = writeln!(out, "set ylabel '{}'", spec.ylabel.replace('\'', ""));
    if spec.percent {
        let _ = writeln!(out, "set yrange [0:100]");
    }
    let _ = writeln!(out, "set key outside right");
    let _ = writeln!(out, "set grid ytics");
    // Mark the paper's period boundaries.
    let _ = writeln!(
        out,
        "set arrow from '2022-02-24', graph 0 to '2022-02-24', graph 1 nohead dt 2 lc rgb 'gray40'"
    );
    let _ = writeln!(
        out,
        "set arrow from '2022-03-26', graph 0 to '2022-03-26', graph 1 nohead dt 2 lc rgb 'gray40'"
    );
    let mut plot_parts = Vec::new();
    for (i, col) in columns.iter().enumerate().skip(1) {
        plot_parts.push(format!(
            "'{data_file}' using 1:{} with lines lw 2 title '{}'",
            i + 1,
            col.replace('\'', "")
        ));
    }
    let _ = writeln!(out, "plot \\\n  {}", plot_parts.join(", \\\n  "));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> Series {
        let mut s = Series::new("fig1", &["date", "full_pct", "partial_pct", "non_pct"]);
        s.push(["2022-02-24", "67.0", "16.5", "16.5"]);
        s.push(["2022-03-03", "68.5", "15.0", "16.5"]);
        s
    }

    #[test]
    fn script_structure() {
        let spec = PlotSpec::percent("fig1.png", "Figure 1: NS composition");
        let script = gnuplot_script(&series(), "fig1.tsv", &spec);
        assert!(script.contains("set output 'fig1.png'"));
        assert!(script.contains("set yrange [0:100]"));
        assert!(script.contains("set timefmt '%Y-%m-%d'"));
        // One plot clause per data column.
        assert_eq!(script.matches("with lines").count(), 3);
        assert!(script.contains("using 1:2"));
        assert!(script.contains("using 1:4"));
        // Period boundary markers.
        assert_eq!(script.matches("set arrow").count(), 2);
        assert!(script.contains("title 'full_pct'"));
    }

    #[test]
    fn counts_spec_has_free_axis() {
        let spec = PlotSpec::counts("x.png", "counts", "domains");
        let script = gnuplot_script(&series(), "x.tsv", &spec);
        assert!(!script.contains("set yrange"));
        assert!(script.contains("set ylabel 'domains'"));
    }

    #[test]
    fn quotes_are_stripped() {
        let mut s = Series::new("q", &["date", "it's"]);
        s.push(["2022-01-01", "1"]);
        let spec = PlotSpec::percent("q.png", "don't break");
        let script = gnuplot_script(&s, "q.tsv", &spec);
        assert!(script.contains("title 'its'"));
        assert!(script.contains("set title 'dont break'"));
    }
}
