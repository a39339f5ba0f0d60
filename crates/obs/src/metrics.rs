//! The labeled metric registry: counters, gauges and histograms as plain
//! values in one sorted map.

use crate::hist::Histogram;
use crate::json;
use std::collections::BTreeMap;

enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

type Key = (String, Vec<(String, String)>);

/// Labeled metrics keyed by name + labels, sorted for export.
///
/// One owner writes it through `&mut self`: an exporter takes
/// `&mut Registry`, so a second writer does not compile.
#[derive(Default)]
pub struct Registry {
    metrics: BTreeMap<Key, Metric>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name` + `labels`, created at 0 on first
    /// use.
    ///
    /// Panics if the same name+labels was registered as another type —
    /// that is a schema bug worth failing loudly on (as do [`set`] and
    /// [`install_histogram`]).
    ///
    /// [`set`]: Registry::set
    /// [`install_histogram`]: Registry::install_histogram
    pub fn add(&mut self, name: &str, labels: &[(&str, &str)], n: u64) {
        match self.slot(name, labels, || Metric::Counter(0)) {
            Metric::Counter(c) => *c += n,
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// Sets the gauge `name` + `labels` to `value`.
    pub fn set(&mut self, name: &str, labels: &[(&str, &str)], value: i64) {
        match self.slot(name, labels, || Metric::Gauge(0)) {
            Metric::Gauge(g) => *g = value,
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    /// Registers an already-built histogram (e.g. one the fabric has
    /// been recording into) under `name` + `labels`, replacing any
    /// previous histogram there.
    pub fn install_histogram(&mut self, name: &str, labels: &[(&str, &str)], hist: Histogram) {
        match self.slot(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => *h = hist,
            other => panic!("{name} already registered as {}", other.kind()),
        }
    }

    fn slot(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> &mut Metric {
        self.metrics.entry(key(name, labels)).or_insert_with(make)
    }

    /// The counter `name` + `labels`, if one is registered.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.metrics.get(&key(name, labels))? {
            Metric::Counter(c) => Some(*c),
            _ => None,
        }
    }

    /// The gauge `name` + `labels`, if one is registered.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<i64> {
        match self.metrics.get(&key(name, labels))? {
            Metric::Gauge(g) => Some(*g),
            _ => None,
        }
    }

    /// The histogram `name` + `labels`, if one is registered.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        match self.metrics.get(&key(name, labels))? {
            Metric::Histogram(h) => Some(h),
            _ => None,
        }
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// One JSON object per metric, one per line, sorted by name+labels.
    ///
    /// Counters and gauges: `{"name","labels","type","value"}`.
    /// Histograms carry `count/sum/mean/min/max/p50/p90/p99` plus the
    /// non-empty `[lower_bound, count]` buckets.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ((name, labels), metric) in &self.metrics {
            out.push('{');
            out.push_str(&format!("\"name\":{},", json::string(name)));
            out.push_str("\"labels\":{");
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}:{}", json::string(k), json::string(v)));
            }
            out.push_str("},");
            out.push_str(&format!("\"type\":\"{}\",", metric.kind()));
            match metric {
                Metric::Counter(c) => out.push_str(&format!("\"value\":{c}")),
                Metric::Gauge(g) => out.push_str(&format!("\"value\":{g}")),
                Metric::Histogram(h) => {
                    out.push_str(&format!(
                        "\"count\":{},\"sum\":{},\"mean\":{:.3},\"min\":{},\"max\":{},\
                         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
                        h.count(),
                        h.sum(),
                        h.mean(),
                        h.min(),
                        h.max(),
                        h.p50(),
                        h.p90(),
                        h.p99()
                    ));
                    for (i, (lo, n)) in h.snapshot().iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!("[{lo},{n}]"));
                    }
                    out.push(']');
                }
            }
            out.push_str("}\n");
        }
        out
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry({} metrics)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_reuses_handles_by_name_and_labels() {
        let mut r = Registry::new();
        r.add("x", &[("q", "1")], 1);
        r.add("x", &[("q", "1")], 1);
        r.add("x", &[("q", "2")], 1);
        assert_eq!(r.counter("x", &[("q", "1")]), Some(2));
        assert_eq!(r.counter("x", &[("q", "2")]), Some(1));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn label_order_does_not_matter() {
        let mut r = Registry::new();
        r.add("x", &[("a", "1"), ("b", "2")], 1);
        assert_eq!(r.counter("x", &[("b", "2"), ("a", "1")]), Some(1));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let mut r = Registry::new();
        r.add("x", &[], 0);
        r.set("x", &[], 0);
    }

    #[test]
    fn jsonl_is_deterministically_ordered() {
        // Register in scrambled order; the dump must come out sorted by
        // name then labels so metric snapshots diff cleanly in goldens.
        let mut r = Registry::new();
        r.add("z.last", &[], 1);
        r.add("a.first", &[("shard", "2")], 1);
        r.add("a.first", &[("shard", "1")], 1);
        r.set("m.middle", &[], 3);
        let dump = r.to_jsonl();
        let names: Vec<&str> = dump
            .lines()
            .map(|l| {
                let start = l.find("\"name\":\"").unwrap() + 8;
                &l[start..start + l[start..].find('"').unwrap()]
            })
            .collect();
        assert_eq!(names, ["a.first", "a.first", "m.middle", "z.last"]);
        assert!(dump.lines().next().unwrap().contains("\"shard\":\"1\""));
        assert!(dump.lines().nth(1).unwrap().contains("\"shard\":\"2\""));
        // Byte-identical on re-export: the snapshot is diffable.
        assert_eq!(dump, r.to_jsonl());
    }

    #[test]
    fn jsonl_is_valid_json_per_line() {
        let mut r = Registry::new();
        r.add("runs", &[], 2);
        r.set("depth", &[("queue", "w0->tc")], 5);
        let mut h = Histogram::new();
        for v in [1u64, 50, 999, 12345] {
            h.record(v);
        }
        r.install_histogram("lat_us", &[("stage", "0")], h);
        let dump = r.to_jsonl();
        assert_eq!(dump.lines().count(), 3);
        for line in dump.lines() {
            crate::json::validate(line).expect("each JSONL line parses");
        }
        assert!(dump.contains("\"type\":\"histogram\""));
        assert!(dump.contains("\"p99\":"));
        assert!(dump.contains(r#""type":"gauge","value":5}"#));
    }
}
