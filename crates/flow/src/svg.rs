//! SVG rendering of placed-and-routed designs: the visual the paper's GUI
//! shows after the Placement and Routing stage. Tiles, pads, routed wire
//! segments, and the critical path are drawn to scale on the device grid.

use std::fmt::Write as _;

use fpga_place::BlockRef;
use fpga_route::rrgraph::RrKind;

use crate::pipeline::FlowArtifacts;

const TILE: f64 = 40.0;
const PAD: f64 = 8.0;

fn tile_xy(x: u32, y: u32, h: u32) -> (f64, f64) {
    // Grid y grows upward; SVG y grows downward.
    (x as f64 * TILE, (h - y) as f64 * TILE)
}

/// Render the layout as a standalone SVG document.
pub fn render_layout(art: &FlowArtifacts) -> String {
    let device = &art.placement.device;
    let (ex, ey) = device.extent();
    let w_px = ex as f64 * TILE + 2.0 * PAD;
    let h_px = ey as f64 * TILE + 2.0 * PAD;
    let mut s = String::new();
    let _ = writeln!(
        s,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{w_px}" height="{h_px}" viewBox="{} {} {w_px} {h_px}">"#,
        -PAD, -PAD
    );
    let _ = writeln!(
        s,
        r#"<rect x="{}" y="{}" width="{w_px}" height="{h_px}" fill="white"/>"#,
        -PAD, -PAD
    );

    // Tiles.
    for y in 0..ey {
        for x in 0..ex {
            let loc = fpga_arch::GridLoc::new(x, y);
            let (px, py) = tile_xy(x, y, ey - 1);
            let (fill, label) = match device.block_at(loc) {
                fpga_arch::BlockKind::Clb => ("#dfe9f5", "clb"),
                fpga_arch::BlockKind::Io => ("#eeeeee", "io"),
                fpga_arch::BlockKind::Empty => continue,
            };
            let _ = writeln!(
                s,
                r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="{fill}" stroke="#999" stroke-width="0.5"><title>{label} ({x},{y})</title></rect>"##,
                px + 2.0,
                py + 2.0,
                TILE - 4.0,
                TILE - 4.0
            );
        }
    }

    // Occupied blocks.
    for (block, slot) in &art.placement.slots {
        let (px, py) = tile_xy(slot.loc.x, slot.loc.y, ey - 1);
        match block {
            BlockRef::Cluster(c) => {
                let _ = writeln!(
                    s,
                    r##"<rect x="{:.1}" y="{:.1}" width="{:.1}" height="{:.1}" fill="#4f81bd" opacity="0.85"><title>clb_{}</title></rect>"##,
                    px + 4.0,
                    py + 4.0,
                    TILE - 8.0,
                    TILE - 8.0,
                    c.0
                );
            }
            BlockRef::InputPad(n) | BlockRef::OutputPad(n) => {
                let color = if matches!(block, BlockRef::InputPad(_)) {
                    "#70ad47"
                } else {
                    "#c0504d"
                };
                let off = 4.0 + slot.sub as f64 * 12.0;
                let _ = writeln!(
                    s,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="4.5" fill="{color}"><title>{}</title></circle>"#,
                    px + off + 5.0,
                    py + TILE / 2.0,
                    art.clustering.netlist.net_name(*n)
                );
            }
        }
    }

    // Routed wires: each chanx/chany segment as a line in its channel.
    let g = &art.graph;
    let cw = art.routing.channel_width.max(1) as f64;
    let critical: std::collections::HashSet<_> = art
        .routing
        .nets
        .iter()
        .filter(|n| art.critical_nets.contains(&n.net))
        .flat_map(|n| n.tree.iter().map(|(id, _)| *id))
        .collect();
    for rn in &art.routing.nets {
        for (node, _) in &rn.tree {
            let (x1, y1, x2, y2) = match g.kind(*node) {
                RrKind::Chanx { x, y, t } => {
                    let (px, py) = tile_xy(x, y, ey - 1);
                    let yy = py - 2.0 - (t as f64 / cw) * (TILE * 0.3);
                    (px + 2.0, yy, px + TILE - 2.0, yy)
                }
                RrKind::Chany { x, y, t } => {
                    let (px, py) = tile_xy(x, y, ey - 1);
                    let xx = px + TILE + 2.0 + (t as f64 / cw) * (TILE * 0.3) - TILE;
                    (xx + TILE, py + 2.0, xx + TILE, py + TILE - 2.0)
                }
                _ => continue,
            };
            let (color, width) = if critical.contains(node) {
                ("#d62728", 2.2)
            } else {
                ("#e8a33d", 1.2)
            };
            let _ = writeln!(
                s,
                r#"<line x1="{x1:.1}" y1="{y1:.1}" x2="{x2:.1}" y2="{y2:.1}" stroke="{color}" stroke-width="{width}" opacity="0.8"><title>{}</title></line>"#,
                art.clustering.netlist.net_name(rn.net)
            );
        }
    }

    let _ = writeln!(s, "</svg>");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run_blif, run_netlist, FlowOptions};

    /// Two separate runs draw one picture: blocks come out of the
    /// placement's block table in its one order.
    #[test]
    fn layout_is_byte_identical_across_runs() {
        let blif = include_str!("../../../examples/majority.blif");
        let svg = || render_layout(&run_blif(blif, &FlowOptions::default()).unwrap());
        assert_eq!(svg(), svg());
    }

    #[test]
    fn svg_renders_all_elements() {
        let nl = fpga_circuits::ripple_adder(4);
        let art = run_netlist(nl, &FlowOptions::default()).unwrap();
        let svg = render_layout(&art);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // One filled rect per cluster.
        let clb_rects = svg.matches("clb_").count();
        assert!(clb_rects >= art.clustering.clusters.len());
        // IO pads drawn as circles.
        assert!(svg.matches("<circle").count() >= art.mapped.inputs.len());
        // Routed segments drawn as lines.
        assert!(svg.matches("<line").count() >= art.routing.wirelength / 2);
    }
}
