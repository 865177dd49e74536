//! In-memory span recorder for the traced run.
//!
//! A span is one timed call: name, start, end, parent span, and the study
//! day it belongs to. Spans stay in memory while the study runs and are
//! written out once it ends, so recording costs one `Instant::now()` pair
//! and a `Vec` push per call.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the study day the span belongs to (`None` outside the
    /// day loop). Every span of one day shares the day's id.
    pub day: Option<u32>,
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<usize>,
    day: Option<u32>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            day: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            day: self.day,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Open the span of study day `index`; spans opened until
    /// [`Recorder::end_day`] carry its id.
    pub fn begin_day(&mut self, index: u32) -> usize {
        self.day = Some(index);
        self.open("day")
    }

    pub fn end_day(&mut self, id: usize) {
        self.close(id);
        self.day = None;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children of one span never overlap — calls are sequential).
    pub fn self_secs(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::secs).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.secs();
            }
        }
        own
    }

    /// Self time summed per span name, largest first.
    pub fn self_by_name(&self) -> Vec<(&'static str, f64)> {
        let own = self.self_secs();
        let mut by: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(own) {
            match by.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, acc)) => *acc += t,
                None => by.push((s.name, t)),
            }
        }
        by.sort_by(|a, b| b.1.total_cmp(&a.1));
        by
    }

    /// Tab-separated dump: one line per span.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tday\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("-".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{}\t{}",
                opt(s.parent),
                opt(s.day.map(|d| d as usize)),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_days_tag_their_spans() {
        let mut rec = Recorder::new();
        let study = rec.open("study");
        let day = rec.begin_day(0);
        rec.time("leaf", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.end_day(day);
        rec.time("after", || ());
        rec.close(study);

        let spans = rec.spans();
        assert_eq!(spans[2].day, Some(0));
        assert_eq!(spans[2].parent, Some(day));
        assert_eq!(spans[3].day, None);
        let own = rec.self_secs();
        let day_total = spans[day].secs();
        assert!((own[day] - (day_total - spans[2].secs())).abs() < 1e-12);
        assert!(own.iter().all(|&t| t >= -1e-9));
    }
}
