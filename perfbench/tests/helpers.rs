//! Tests of the benchmark's own helpers: the percentile rule, span self
//! time, metric and workload names, and seeded input generation.

use perfbench::gen::{pool_draw, serve_traffic, Class, SplitMix64};
use perfbench::report::{valid_name, Report};
use perfbench::stats::{beyond, median, percentile, supported_percentile, tail};
use perfbench::trace::{covered_ns, self_time_ns, Span, Tracer};
use perfbench::workloads::{END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn percentile_rule_keeps_ten_samples_beyond() {
    assert_eq!(supported_percentile(1000), Some(99.0));
    assert_eq!(supported_percentile(999), Some(95.0));
    assert_eq!(supported_percentile(10_000), Some(99.9));
    assert_eq!(supported_percentile(200), Some(95.0));
    assert_eq!(supported_percentile(100), Some(90.0));
    assert_eq!(supported_percentile(20), Some(50.0));
    assert_eq!(supported_percentile(19), None);
    for n in [21, 100, 999, 1000, 4321, 10_000] {
        let p = supported_percentile(n).expect("enough samples");
        assert!(beyond(n, p) >= 10, "n={n} p={p}");
    }
}

#[test]
fn percentile_reports_value_and_counts() {
    let values: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
    let p99 = percentile(&values, 99.0);
    assert_eq!(p99.value, 990.0);
    assert_eq!((p99.n, p99.beyond), (1000, 10));
    assert_eq!(percentile(&values, 50.0).value, 500.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name: "x",
        start_ns,
        end_ns,
        parent,
        request: 0,
    }
}

#[test]
fn self_time_subtracts_covered_child_intervals() {
    let spans = vec![
        span(0, 100, None),
        // Overlapping children count once; a child running past the
        // parent's end is clipped to it.
        span(10, 30, Some(0)),
        span(20, 50, Some(0)),
        span(90, 120, Some(0)),
        // A grandchild is covered by its own parent, not by the root.
        span(15, 25, Some(1)),
    ];
    assert_eq!(self_time_ns(&spans, 0), 100 - 40 - 10);
    assert_eq!(self_time_ns(&spans, 1), 20 - 10);
    assert_eq!(self_time_ns(&spans, 4), 10);
    assert_eq!(covered_ns(&[(5, 5), (7, 3)], 0, 10), 0);
}

#[test]
fn tracer_records_nested_spans_only_when_enabled() {
    let off = Tracer::new(false);
    assert_eq!(off.span("a", None, 1, |id| id), None);
    assert!(off.spans().is_empty());

    let on = Tracer::new(true);
    let child = on.span("outer", None, 7, |outer| {
        on.span("inner", outer, 7, |inner| (outer, inner))
    });
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(child, (Some(0), Some(1)));
    assert_eq!(spans[1].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    assert!(spans.iter().all(|s| s.request == 7));
}

#[test]
fn workload_and_metric_names_are_well_formed() {
    for name in WORKLOADS {
        assert!(valid_name(name), "{name}");
    }
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json next to the benchmark directory");
    let names: Vec<&str> = manifest
        .split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.trim_start()
                .trim_start_matches('"')
                .split('"')
                .next()
                .unwrap_or("")
        })
        .collect();
    assert!(names.len() > WORKLOADS.len(), "no names found");
    for name in &names {
        assert!(valid_name(name), "{name:?}");
    }
    // Names in manifest order: workloads, end-to-end metrics, per-layer
    // metrics. Every run must report exactly the metrics listed for it.
    let listed: Vec<&str> = WORKLOADS
        .iter()
        .chain(&END_TO_END)
        .chain(&PER_LAYER)
        .copied()
        .collect();
    assert_eq!(names, listed, "BENCHMARK.json and the workloads disagree");
    for bad in ["", "has space", "_lead", "semi;colon", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

#[test]
fn result_line_has_exactly_the_result_keys() {
    let mut report = Report::new();
    report.attempted = 3;
    report.push("latency_p50_ms", 1.25, "ms");
    report.push("setup_s", 1e-7, "s");
    assert_eq!(
        report.to_json(),
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
         {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
         \"setup_s\": {\"value\": 1e-7, \"unit\": \"s\"}}}"
    );
    report.failed = 1;
    assert!(!report.correct());
}

#[test]
fn conform_orders_metrics_and_rejects_missing_or_unlisted_ones() {
    let mut report = Report::new();
    report.push("b", 2.0, "s");
    report.push("a", 1.0, "s");
    assert!(report.conform(&["a", "b"]).is_ok());
    let order: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
    assert_eq!(order, ["a", "b"]);
    assert!(report.conform(&["a", "b", "c"]).is_err());
    assert!(report.conform(&["a"]).is_err());
}

#[test]
fn tail_falls_back_to_the_maximum_on_few_samples() {
    let few = [3.0, 9.0, 1.0];
    let t = tail(&few);
    assert_eq!((t.p, t.value, t.beyond), (100.0, 9.0, 0));
    let many: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&many);
    assert_eq!((t.p, t.value, t.beyond), (99.0, 990.0, 10));
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    assert_eq!(pool_draw(5, 64, 32), pool_draw(5, 64, 32));
    assert_ne!(pool_draw(5, 64, 32), pool_draw(6, 64, 32));
    let mut draw = pool_draw(9, 64, 32);
    draw.sort_unstable();
    draw.dedup();
    assert_eq!(draw.len(), 32, "draws are distinct");
    assert!(draw.iter().all(|&i| i < 64));

    assert_eq!(serve_traffic(1, 500), serve_traffic(1, 500));
    assert_ne!(serve_traffic(1, 500), serve_traffic(2, 500));
    let mut a = SplitMix64::new(3);
    let mut b = SplitMix64::new(3);
    assert_eq!(a.next_u64(), b.next_u64());
}

#[test]
fn served_traffic_mixes_ten_to_one_to_one() {
    let (jobs, sequence) = serve_traffic(42, 12_000);
    let count = |class: Class| sequence.iter().filter(|&&j| jobs[j].class == class).count();
    let (w, f, c) = (
        count(Class::WireSizing),
        count(Class::Fusing),
        count(Class::Campaign),
    );
    assert_eq!(w + f + c, 12_000);
    assert!((9_600..10_400).contains(&w), "wire_sizing {w}");
    assert!((850..1_150).contains(&f), "fusing {f}");
    assert!((850..1_150).contains(&c), "campaign {c}");
    assert!(jobs
        .iter()
        .all(|j| j.seed > 0 && j.seed < 1 << 53 && j.model < 2));
}
