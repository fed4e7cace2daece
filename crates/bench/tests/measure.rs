//! The one measurement helper and the one report writer of
//! `streamit_bench`, through their public interface.

use streamit_bench::{report, Cell, Timing};

/// A side with a known constant cost — 200 µs of sleep per unit —
/// yields ordered quartiles, the requested repetition count and a
/// rate that cannot exceed 5 000 units/s (a sleep only overshoots).
#[test]
fn measure_orders_quartiles_and_keeps_every_repetition() {
    let mut timing = Timing {
        window_s: 0.004,
        reps: 5,
        control: Vec::new(),
    };
    let unit = std::time::Duration::from_micros(200);
    let mut slow = |n: u64| {
        std::thread::sleep(unit * n as u32);
        n
    };
    let mut slower = |n: u64| {
        std::thread::sleep(unit * 2 * n as u32);
        n
    };
    let cells = timing.measure(&mut [&mut slow, &mut slower]);
    assert_eq!(cells.len(), 2);
    assert_eq!(timing.control.len(), 5, "one control per repetition");
    assert!(timing.control.iter().all(|&ns| ns > 0.0), "{timing:?}");
    for c in &cells {
        assert_eq!(c.samples.len(), 5);
        assert!(c.q1 <= c.median && c.median <= c.q3, "{c:?}");
    }
    assert!(
        cells[0].median <= 5_000.0 && cells[0].median > 500.0,
        "{cells:?}"
    );
    let ratio = cells[0].ratio_to(&cells[1]);
    assert!(ratio.q1 <= ratio.median && ratio.median <= ratio.q3);
    assert!(ratio.median > 1.2 && ratio.median < 3.0, "{ratio:?}");
}

#[test]
fn quantiles_interpolate() {
    let c = Cell::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
    assert_eq!((c.q1, c.median, c.q3), (1.75, 2.5, 3.25));
    assert_eq!(c.samples, [4.0, 1.0, 3.0, 2.0]);
}

#[test]
fn report_is_one_object_per_cell() {
    let mut timing = Timing {
        window_s: 0.5,
        reps: 3,
        control: Vec::new(),
    };
    let ratio = Cell::from_samples(vec![2.0, f64::NAN, 2.0]).json("x", Some("a \"b\""));
    let text = report(true, &timing, &[("r".into(), ratio.clone())]);
    assert!(text.contains("\"window_s\": 0.500,\n  \"reps\": 3,\n  \"cells\": {\n"));
    assert!(text.contains("\"steady\": true,\n") && !text.contains("host.control"));
    assert!(text.contains(
        "    \"r\": {\"median\": 2.000, \"q1\": 2.000, \"q3\": null, \"reps\": 3, \
         \"unit\": \"x\", \"base\": \"a \\\"b\\\"\"}\n  }\n}\n"
    ));
    // Once the control has run it leads the cells, and a spread past
    // 10 % of its median marks the report unsteady.
    timing.control = vec![2.0, 2.0, 3.0, 3.0];
    let text = report(true, &timing, &[("r".into(), ratio)]);
    assert!(text.contains("\"steady\": false,\n"));
    assert!(text.contains(
        "\"cells\": {\n    \"host.control\": {\"median\": 2.500, \"q1\": 2.000, \"q3\": 3.000, \
         \"reps\": 4, \"unit\": \"ns/step\"},\n    \"r\": "
    ));
}

#[test]
fn steady_reads_the_control_spread() {
    let mut timing = Timing::new(true);
    assert!(timing.steady(), "nothing measured yet");
    timing.control = vec![2.0, 2.05, 2.1, 2.0, 2.02];
    assert!(timing.steady(), "{timing:?}");
    timing.control.extend([2.6, 2.7, 2.9]);
    assert!(!timing.steady(), "{timing:?}");
    let ns = streamit_bench::control_ns_per_step();
    assert!(ns > 0.0 && ns < 1e3, "{ns} ns per dependent multiply-add");
}
