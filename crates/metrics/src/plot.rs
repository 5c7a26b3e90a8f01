//! Minimal self-contained SVG line charts — used by the harness to render
//! Figure 8-style latency and throughput curves without external plotting
//! dependencies.
//!
//! The output is deliberately simple: one chart, linear axes with rounded
//! tick labels, one polyline + legend entry per series.

use std::fmt::Write as _;

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// Data points.
    pub points: Vec<(f64, f64)>,
}

/// Chart description.
#[derive(Debug, Clone)]
pub struct LineChart {
    /// Chart title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The plotted series.
    pub series: Vec<Series>,
    /// Pixel width (default 720).
    pub width: u32,
    /// Pixel height (default 480).
    pub height: u32,
}

/// A qualitative 6-color palette (colorblind-safe Okabe–Ito subset).
const COLORS: [&str; 6] = [
    "#0072B2", "#D55E00", "#009E73", "#CC79A7", "#E69F00", "#56B4E9",
];

impl LineChart {
    /// A chart with default size.
    pub fn new(title: &str, x_label: &str, y_label: &str) -> LineChart {
        LineChart {
            title: title.to_string(),
            x_label: x_label.to_string(),
            y_label: y_label.to_string(),
            series: Vec::new(),
            width: 720,
            height: 480,
        }
    }

    /// Adds a series; non-finite points are dropped.
    pub fn add_series(&mut self, label: &str, points: impl IntoIterator<Item = (f64, f64)>) {
        let points: Vec<(f64, f64)> = points
            .into_iter()
            .filter(|(x, y)| x.is_finite() && y.is_finite())
            .collect();
        self.series.push(Series {
            label: label.to_string(),
            points,
        });
    }

    /// Whether no series holds a point, so there is nothing to plot.
    pub fn is_empty(&self) -> bool {
        self.series.iter().all(|s| s.points.is_empty())
    }

    /// Renders the chart to an SVG document. Panics if the chart
    /// [`is_empty`](LineChart::is_empty).
    pub fn to_svg(&self) -> String {
        let (w, h) = (self.width as f64, self.height as f64);
        let (ml, mr, mt, mb) = (70.0, 20.0, 40.0, 55.0); // margins
        let pw = w - ml - mr;
        let ph = h - mt - mb;

        let all: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().copied())
            .collect();
        assert!(!all.is_empty(), "cannot plot an empty chart");
        let (mut x0, mut x1) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(x, _)| {
            (lo.min(x), hi.max(x))
        });
        let (mut y0, mut y1) = all.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &(_, y)| {
            (lo.min(y), hi.max(y))
        });
        if (x1 - x0).abs() < 1e-12 {
            x0 -= 0.5;
            x1 += 0.5;
        }
        if (y1 - y0).abs() < 1e-12 {
            y0 -= 0.5;
            y1 += 0.5;
        }
        // Pad the y range a little; anchor at zero when close.
        if y0 > 0.0 && y0 < 0.25 * y1 {
            y0 = 0.0;
        }
        let ypad = 0.05 * (y1 - y0);
        y1 += ypad;

        let sx = move |x: f64| ml + (x - x0) / (x1 - x0) * pw;
        let sy = move |y: f64| mt + ph - (y - y0) / (y1 - y0) * ph;

        let mut svg = String::new();
        let _ = writeln!(
            svg,
            r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" viewBox="0 0 {w} {h}" font-family="sans-serif">"#
        );
        let _ = writeln!(svg, r#"<rect width="{w}" height="{h}" fill="white"/>"#);
        // Title and axis labels.
        let _ = writeln!(
            svg,
            r#"<text x="{}" y="24" text-anchor="middle" font-size="16">{}</text>"#,
            w / 2.0,
            xml_escape(&self.title)
        );
        let _ = writeln!(
            svg,
            r#"<text x="{}" y="{}" text-anchor="middle" font-size="13">{}</text>"#,
            ml + pw / 2.0,
            h - 12.0,
            xml_escape(&self.x_label)
        );
        let _ = writeln!(
            svg,
            r#"<text x="16" y="{}" text-anchor="middle" font-size="13" transform="rotate(-90 16 {})">{}</text>"#,
            mt + ph / 2.0,
            mt + ph / 2.0,
            xml_escape(&self.y_label)
        );
        // Axes and ticks.
        let _ = writeln!(
            svg,
            r##"<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#333"/>"##
        );
        for i in 0..=5 {
            let fx = x0 + (x1 - x0) * i as f64 / 5.0;
            let fy = y0 + (y1 - y0) * i as f64 / 5.0;
            let px = sx(fx);
            let py = sy(fy);
            let _ = writeln!(
                svg,
                r##"<line x1="{px}" y1="{}" x2="{px}" y2="{}" stroke="#ccc"/>"##,
                mt,
                mt + ph
            );
            let _ = writeln!(
                svg,
                r##"<line x1="{ml}" y1="{py}" x2="{}" y2="{py}" stroke="#ccc"/>"##,
                ml + pw
            );
            let _ = writeln!(
                svg,
                r#"<text x="{px}" y="{}" text-anchor="middle" font-size="11">{}</text>"#,
                mt + ph + 16.0,
                fmt_tick(fx)
            );
            let _ = writeln!(
                svg,
                r#"<text x="{}" y="{}" text-anchor="end" font-size="11">{}</text>"#,
                ml - 6.0,
                py + 4.0,
                fmt_tick(fy)
            );
        }
        // Series.
        for (i, s) in self.series.iter().enumerate() {
            if s.points.is_empty() {
                continue;
            }
            let color = COLORS[i % COLORS.len()];
            let mut d = String::new();
            for &(x, y) in &s.points {
                let _ = write!(d, "{:.2},{:.2} ", sx(x), sy(y));
            }
            let _ = writeln!(
                svg,
                r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="2"/>"#,
                d.trim_end()
            );
            for &(x, y) in &s.points {
                let _ = writeln!(
                    svg,
                    r#"<circle cx="{:.2}" cy="{:.2}" r="3" fill="{color}"/>"#,
                    sx(x),
                    sy(y)
                );
            }
            // Legend.
            let ly = mt + 16.0 + 18.0 * i as f64;
            let _ = writeln!(
                svg,
                r#"<line x1="{}" y1="{ly}" x2="{}" y2="{ly}" stroke="{color}" stroke-width="3"/>"#,
                ml + 10.0,
                ml + 34.0
            );
            let _ = writeln!(
                svg,
                r#"<text x="{}" y="{}" font-size="12">{}</text>"#,
                ml + 40.0,
                ly + 4.0,
                xml_escape(&s.label)
            );
        }
        svg.push_str("</svg>\n");
        svg
    }
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn fmt_tick(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> LineChart {
        let mut c = LineChart::new("Latency vs load", "offered", "latency");
        c.add_series("L-turn", vec![(0.01, 140.0), (0.1, 600.0), (0.3, 2500.0)]);
        c.add_series("DOWN/UP", vec![(0.01, 140.0), (0.1, 300.0), (0.3, 1500.0)]);
        c
    }

    #[test]
    fn renders_well_formed_svg() {
        let svg = chart().to_svg();
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert!(svg.contains("DOWN/UP"));
        assert!(svg.contains("L-turn"));
        // Every circle marker is inside the canvas.
        for cap in svg.split("<circle ").skip(1) {
            let cx: f64 = cap
                .split("cx=\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!((0.0..=720.0).contains(&cx));
        }
    }

    #[test]
    fn drops_non_finite_points() {
        let mut c = LineChart::new("t", "x", "y");
        c.add_series("s", vec![(0.0, 1.0), (1.0, f64::NAN), (2.0, 3.0)]);
        assert_eq!(c.series[0].points.len(), 2);
        assert!(!c.is_empty());
        let svg = c.to_svg();
        assert_eq!(svg.matches("<circle").count(), 2);
    }

    #[test]
    fn escapes_labels() {
        let mut c = LineChart::new("a < b & c", "x", "y");
        c.add_series("s<1>", vec![(0.0, 0.0), (1.0, 1.0)]);
        let svg = c.to_svg();
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(svg.contains("s&lt;1&gt;"));
        assert!(!svg.contains("a < b"));
    }

    #[test]
    fn a_chart_of_non_finite_points_is_empty() {
        let mut c = LineChart::new("t", "x", "y");
        assert!(c.is_empty());
        c.add_series("s", vec![(0.0, f64::NAN), (1.0, f64::INFINITY)]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "empty chart")]
    fn empty_chart_panics() {
        LineChart::new("t", "x", "y").to_svg();
    }

    #[test]
    fn degenerate_ranges_are_widened() {
        let mut c = LineChart::new("t", "x", "y");
        c.add_series("s", vec![(1.0, 2.0), (1.0, 2.0)]);
        let svg = c.to_svg();
        assert!(svg.contains("<polyline"));
    }
}
