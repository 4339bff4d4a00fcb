//! DUTYS text architecture format.
//!
//! Besides JSON, DUTYS emits the paper-era line-oriented architecture
//! description (one `keyword value` pair per line, `#` comments), which is
//! what the VPR-descended tools of the flow historically parsed.

use crate::{Architecture, ClbArch, RoutingArch, SwitchType};

/// Render an architecture as the line-oriented text format.
pub fn write_arch_text(arch: &Architecture) -> String {
    let mut out = String::new();
    out.push_str("# DUTYS architecture description\n");
    out.push_str(&format!("name {}\n", arch.name));
    out.push_str(&format!("lut_k {}\n", arch.clb.lut_k));
    out.push_str(&format!("cluster_size {}\n", arch.clb.cluster_size));
    out.push_str(&format!("clb_inputs {}\n", arch.clb.inputs));
    out.push_str(&format!("clb_outputs {}\n", arch.clb.outputs));
    out.push_str(&format!("clb_clocks {}\n", arch.clb.clocks));
    out.push_str(&format!(
        "full_crossbar {}\n",
        if arch.clb.full_crossbar { 1 } else { 0 }
    ));
    out.push_str(&format!("channel_width {}\n", arch.routing.channel_width));
    out.push_str(&format!("segment_length {}\n", arch.routing.segment_length));
    out.push_str(&format!("fc_in {}\n", arch.routing.fc_in));
    out.push_str(&format!("fc_out {}\n", arch.routing.fc_out));
    out.push_str(&format!("fs {}\n", arch.routing.fs));
    out.push_str(&format!(
        "switch_type {}\n",
        match arch.routing.switch {
            SwitchType::PassTransistor => "pass_transistor",
            SwitchType::TristateBuffer => "tristate_buffer",
        }
    ));
    out.push_str(&format!(
        "switch_width {}\n",
        arch.routing.switch_width_mult
    ));
    out.push_str(&format!("io_per_tile {}\n", arch.io_per_tile));
    if let Some((w, h)) = arch.grid {
        out.push_str(&format!("grid {w} {h}\n"));
    }
    out
}

/// Parse the line-oriented text format.
pub fn parse_arch_text(text: &str) -> Result<Architecture, String> {
    let mut arch = Architecture {
        name: "unnamed".to_string(),
        clb: ClbArch::paper_default(),
        routing: RoutingArch::paper_default(),
        io_per_tile: 2,
        grid: None,
    };
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut toks = line.split_whitespace();
        let key = toks.next().unwrap();
        let mut val = || -> Result<String, String> {
            toks.next()
                .map(|s| s.to_string())
                .ok_or_else(|| format!("line {}: '{}' needs a value", lineno + 1, key))
        };
        let parse_usize = |s: String| -> Result<usize, String> {
            s.parse()
                .map_err(|_| format!("line {}: bad integer '{s}'", lineno + 1))
        };
        let parse_f64 = |s: String| -> Result<f64, String> {
            s.parse()
                .map_err(|_| format!("line {}: bad number '{s}'", lineno + 1))
        };
        match key {
            "name" => arch.name = val()?,
            "lut_k" => arch.clb.lut_k = parse_usize(val()?)?,
            "cluster_size" => arch.clb.cluster_size = parse_usize(val()?)?,
            "clb_inputs" => arch.clb.inputs = parse_usize(val()?)?,
            "clb_outputs" => arch.clb.outputs = parse_usize(val()?)?,
            "clb_clocks" => arch.clb.clocks = parse_usize(val()?)?,
            "full_crossbar" => arch.clb.full_crossbar = parse_usize(val()?)? != 0,
            "channel_width" => arch.routing.channel_width = parse_usize(val()?)?,
            "segment_length" => arch.routing.segment_length = parse_usize(val()?)?,
            "fc_in" => arch.routing.fc_in = parse_f64(val()?)?,
            "fc_out" => arch.routing.fc_out = parse_f64(val()?)?,
            "fs" => arch.routing.fs = parse_usize(val()?)?,
            "switch_type" => {
                arch.routing.switch = match val()?.as_str() {
                    "pass_transistor" => SwitchType::PassTransistor,
                    "tristate_buffer" => SwitchType::TristateBuffer,
                    other => return Err(format!("line {}: unknown switch '{other}'", lineno + 1)),
                }
            }
            "switch_width" => arch.routing.switch_width_mult = parse_f64(val()?)?,
            "io_per_tile" => arch.io_per_tile = parse_usize(val()?)?,
            "grid" => {
                let w = parse_usize(val()?)?;
                let h = toks
                    .next()
                    .ok_or_else(|| format!("line {}: grid needs two values", lineno + 1))?
                    .parse()
                    .map_err(|_| format!("line {}: bad grid height", lineno + 1))?;
                arch.grid = Some((w, h));
            }
            other => return Err(format!("line {}: unknown keyword '{other}'", lineno + 1)),
        }
    }
    arch.validate()?;
    Ok(arch)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let arch = Architecture::paper_default();
        let text = write_arch_text(&arch);
        let back = parse_arch_text(&text).unwrap();
        assert_eq!(back, arch);
    }

    #[test]
    fn grid_roundtrip() {
        let mut arch = Architecture::paper_default();
        arch.grid = Some((9, 6));
        let back = parse_arch_text(&write_arch_text(&arch)).unwrap();
        assert_eq!(back.grid, Some((9, 6)));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\nname t # trailing\nlut_k 4\ncluster_size 5\nclb_outputs 5\n";
        let arch = parse_arch_text(text).unwrap();
        assert_eq!(arch.name, "t");
    }

    #[test]
    fn errors_reported() {
        assert!(parse_arch_text("bogus 1\n").is_err());
        assert!(parse_arch_text("lut_k\n").is_err());
        assert!(parse_arch_text("lut_k nine\n").is_err());
        assert!(parse_arch_text("lut_k 9\n").is_err());
        assert!(parse_arch_text("switch_type magic\n").is_err());
        assert!(parse_arch_text("cluster_size 4\n").is_err(), "outputs != N");
    }
}
