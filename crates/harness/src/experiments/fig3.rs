//! Figure 3: per-node throughput across partitions — the Equation-2 peak
//! bisection bandwidth per node vs what AR achieves with one packet and
//! with large messages.

use super::{pct, Experiment, Line, Rows};
use crate::runner::{RunResult, Runner, Scale, Unit};
use bgl_core::StrategyKind;
use bgl_model::peak;
use bgl_torus::Partition;

/// Partitions plotted per scale (the paper plots its Table 1/2 set).
fn shapes(scale: Scale) -> &'static [&'static str] {
    match scale {
        Scale::Quick => &["8x1x1", "8x8", "8x8x8", "8x4x4"],
        Scale::Paper => &[
            "8x1x1", "16x1x1", "8x8", "16x16", "8x8x8", "8x8x16", "8x16x16", "8x32x16", "16x16x16",
        ],
    }
}

/// One 240-byte payload packet per destination (the paper's "1 packet"
/// series; 240+48 B rides two packets, so we use 192 B = exactly one full
/// packet with the header).
const ONE_PACKET_M: u64 = 192;

pub(super) const FIG3: Experiment = Experiment {
    id: "fig3",
    title: "Per-node throughput: peak vs AR one-packet vs AR large (paper Figure 3)",
    columns: &[
        "Partition",
        "Peak MB/s/node",
        "AR 1-pkt MB/s/node",
        "AR large MB/s/node",
        "AR large %",
    ],
    notes: &[
        "peak per-node bandwidth falls as the longest dimension grows (≈ 8/(M·β))",
        "a one-packet AA already runs close to the large-message bandwidth",
    ],
    rows,
};

fn rows(runner: &Runner) -> Rows {
    let ar = StrategyKind::ar();
    let row = |&shape: &&'static str| {
        let part: Partition = shape.parse().unwrap();
        let peak_bw = peak::peak_per_node_bandwidth(&part, &runner.params) / 1e6;
        let points = [
            runner.point(shape, &ar, ONE_PACKET_M),
            runner.point(shape, &ar, runner.large_m_for(&part)),
        ];
        Unit::new(points, move |[one, large]| {
            let bw = |r: &RunResult| match r {
                Ok(r) => format!("{:.1}", r.per_node_bandwidth / 1e6),
                Err(e) => format!("ERROR: {e}"),
            };
            Line::Row(vec![
                shape.to_string(),
                format!("{peak_bw:.1}"),
                bw(one),
                bw(large),
                large
                    .as_ref()
                    .map_or("-".into(), |r| pct(r.percent_of_peak)),
            ])
        })
    };
    shapes(runner.scale).iter().map(row).collect()
}

#[cfg(test)]
mod tests {
    use crate::experiments::quick;

    #[test]
    fn quick_fig3_bandwidth_sane() {
        let rep = quick("fig3");
        for row in &rep.rows {
            let peak_bw: f64 = row[1].parse().unwrap();
            let large: f64 = row[3].parse().unwrap();
            assert!(large <= peak_bw * 1.05, "{row:?}");
            assert!(large > peak_bw * 0.3, "{row:?}");
        }
    }

    #[test]
    fn peak_bw_drops_with_longest_dimension() {
        let rep = quick("fig3");
        let bw_of = |shape: &str| -> f64 {
            rep.rows.iter().find(|row| row[0] == shape).unwrap()[1]
                .parse()
                .unwrap()
        };
        // 8-line and 8x8x8 share M=8: peak/node differs only by the
        // (P-1)/P self-traffic factor, so the cube is slightly higher.
        let (line, cube) = (bw_of("8x1x1"), bw_of("8x8x8"));
        assert!(cube >= line && cube / line < 1.2, "line {line} cube {cube}");
    }
}
