//! Deterministic JSON rendering for metric exports.
//!
//! Metric files are rendered by hand rather than through a serialization
//! framework, which makes the byte-identical contract easy to audit: keys appear in fixed (sorted) order and every value is a `u64`,
//! so there is no float formatting or map-ordering nondeterminism anywhere
//! in an exported file.

use std::fmt::Write;

use crate::{Histogram, Recorder};

/// Append a histogram as a JSON object:
/// `{"count":…,"sum":…,"min":…,"max":…,"p50":…,"p90":…,"p99":…,"buckets":[[lo,count],…]}`.
///
/// Percentile values are bucket lower bounds (integer arithmetic), and
/// `buckets` lists only non-empty buckets in value order.
pub fn push_histogram(out: &mut String, h: &Histogram) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        h.quantile_permille(500),
        h.quantile_permille(900),
        h.quantile_permille(990),
    );
    for (i, (lo, n)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{lo},{n}]");
    }
    out.push_str("]}");
}

/// Append a recorder as a JSON object with sorted keys:
/// `{"counters":{"k":v,…},"histograms":{"k":{…},…}}`.
pub fn push_recorder(out: &mut String, rec: &Recorder) {
    out.push_str("{\"counters\":{");
    for (i, (k, v)) in rec.counters().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":{v}");
    }
    out.push_str("},\"histograms\":{");
    for (i, (k, h)) in rec.histograms().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        push_histogram(out, h);
    }
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_deterministic_and_sorted() {
        let mut a = Recorder::new();
        a.incr("zeta");
        a.incr("alpha");
        a.record("lat_us", 40);
        a.record("lat_us", 17);
        let mut out = String::new();
        push_recorder(&mut out, &a);
        assert!(out.starts_with("{\"counters\":{\"alpha\":1,\"zeta\":1}"));
        assert!(out.contains("\"lat_us\":{\"count\":2,\"sum\":57,\"min\":17,\"max\":40"));

        // Same data recorded in another order renders byte-identically.
        let mut b = Recorder::new();
        b.record("lat_us", 17);
        b.incr("alpha");
        b.record("lat_us", 40);
        b.incr("zeta");
        let mut out2 = String::new();
        push_recorder(&mut out2, &b);
        assert_eq!(out, out2);
    }

    #[test]
    fn empty_histogram_renders_zeroes() {
        let mut out = String::new();
        push_histogram(&mut out, &Histogram::new());
        assert_eq!(
            out,
            "{\"count\":0,\"sum\":0,\"min\":0,\"max\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"buckets\":[]}"
        );
    }
}
