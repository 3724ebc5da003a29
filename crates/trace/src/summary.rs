//! Rendering an event log into a per-phase timing table — the engine of
//! the CLI's `trace summarize` subcommand.

use crate::event::{EventData, TraceLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Default)]
struct PhaseStats {
    count: u64,
    total_us: u64,
    min_us: u64,
    max_us: u64,
    /// Percentile estimates, present for histogram rows only — spans
    /// carry one duration each, so a percentile column would just repeat
    /// the mean.
    percentiles: Option<(u64, u64)>,
}

impl PhaseStats {
    fn add(&mut self, duration_us: u64) {
        if self.count == 0 {
            self.min_us = duration_us;
            self.max_us = duration_us;
        } else {
            self.min_us = self.min_us.min(duration_us);
            self.max_us = self.max_us.max(duration_us);
        }
        self.count += 1;
        self.total_us = self.total_us.saturating_add(duration_us);
    }
}

fn ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1000.0)
}

fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            if i == 0 {
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            } else {
                let _ = write!(out, "{cell:>width$}", width = widths[i]);
            }
        }
        out.push('\n');
    };
    let header_cells: Vec<String> = header.iter().map(|h| (*h).to_string()).collect();
    render_row(&mut out, &header_cells);
    let rule: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
    out.push_str(&"-".repeat(rule));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders `log` as a human-readable per-phase summary: one row per span
/// or histogram name (count, total/mean/min/max milliseconds, sorted by
/// total time descending), followed by the counters.
///
/// # Example
///
/// ```
/// use muffin_trace::{summarize, Tracer};
/// use std::time::Duration;
///
/// let tracer = Tracer::capturing();
/// tracer.record_span("phase.a", Vec::new(), Duration::from_millis(2));
/// tracer.count("hits", 3);
/// let text = summarize(&tracer.finish());
/// assert!(text.contains("phase.a"));
/// assert!(text.contains("hits"));
/// ```
pub fn summarize(log: &TraceLog) -> String {
    let mut phases: BTreeMap<&str, PhaseStats> = BTreeMap::new();
    let mut counters: Vec<(&str, u64)> = Vec::new();
    for event in &log.events {
        match &event.data {
            EventData::Span { .. } => {
                phases
                    .entry(&event.name)
                    .or_default()
                    .add(event.timing.duration_us);
            }
            EventData::Histogram { count } => {
                let stats = phases.entry(&event.name).or_default();
                stats.count += count;
                stats.total_us = stats.total_us.saturating_add(event.timing.duration_us);
                stats.min_us = event.timing.min_us;
                stats.max_us = event.timing.max_us;
                stats.percentiles = Some((event.timing.p50_us, event.timing.p99_us));
            }
            EventData::Counter { value } => counters.push((&event.name, *value)),
        }
    }

    let mut out = format!("trace log v{}: {} events\n", log.version, log.events.len());
    if !phases.is_empty() {
        let mut ranked: Vec<(&str, PhaseStats)> = phases.into_iter().collect();
        // Heaviest phases first; ties broken by name so the table is
        // deterministic.
        ranked.sort_by(|a, b| b.1.total_us.cmp(&a.1.total_us).then(a.0.cmp(b.0)));
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .map(|(name, s)| {
                let mean = if s.count > 0 { s.total_us / s.count } else { 0 };
                let (p50, p99) = match s.percentiles {
                    Some((p50, p99)) => (ms(p50), ms(p99)),
                    None => ("-".to_string(), "-".to_string()),
                };
                vec![
                    (*name).to_string(),
                    s.count.to_string(),
                    ms(s.total_us),
                    ms(mean),
                    ms(s.min_us),
                    p50,
                    p99,
                    ms(s.max_us),
                ]
            })
            .collect();
        out.push('\n');
        out.push_str(&render_table(
            &[
                "phase", "count", "total ms", "mean ms", "min ms", "p50 ms", "p99 ms", "max ms",
            ],
            &rows,
        ));
    }
    if !counters.is_empty() {
        counters.sort();
        let rows: Vec<Vec<String>> = counters
            .iter()
            .map(|(n, v)| vec![(*n).to_string(), v.to_string()])
            .collect();
        out.push('\n');
        out.push_str(&render_table(&["counter", "value"], &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;
    use std::time::Duration;

    #[test]
    fn summary_groups_spans_by_name() {
        let tracer = Tracer::capturing();
        tracer.record_span("a", Vec::new(), Duration::from_millis(3));
        tracer.record_span("a", Vec::new(), Duration::from_millis(1));
        tracer.record_span("b", Vec::new(), Duration::from_millis(10));
        tracer.count("hits", 2);
        let text = summarize(&tracer.finish());
        // b is heavier, so it ranks first.
        let a_pos = text.find("\na ").expect("a row");
        let b_pos = text.find("\nb ").expect("b row");
        assert!(b_pos < a_pos, "heaviest phase first:\n{text}");
        assert!(text.contains("hits"));
        assert!(text.contains("4 events"));
    }

    #[test]
    fn histograms_appear_as_phases() {
        let tracer = Tracer::capturing();
        tracer.observe("h", Duration::from_micros(500));
        tracer.observe("h", Duration::from_micros(1500));
        let text = summarize(&tracer.finish());
        assert!(text.contains('h'), "{text}");
        assert!(text.contains("2.000"), "total 2 ms:\n{text}");
    }

    #[test]
    fn empty_log_renders_header_only() {
        let text = summarize(&Tracer::capturing().finish());
        assert!(text.contains("0 events"));
        assert!(!text.contains("phase"));
    }
}
