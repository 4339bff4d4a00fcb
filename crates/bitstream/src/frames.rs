//! Binary frame format: serialize/parse a [`Bitstream`] with CRC-32
//! protection (readback must return exactly what was written).
//!
//! Layout (little endian):
//!
//! ```text
//! magic "DAGR" | version u16 | width u16 | height u16 | chan u16
//! lut_k u8 | cluster u8 | inputs u8 | pad u8
//! n_clbs u32 | n_ios u32 | n_sb u32 | n_cbi u32 | n_cbo u32
//! [CLB frames] [IO frames] [SB pairs] [CB inputs] [CB outputs]
//! crc32 u32   (over everything before it)
//! ```

use bytes::{Buf, BufMut, Bytes, BytesMut};

use fpga_arch::device::GridLoc;
use fpga_route::rrgraph::RrKind;

use crate::config::{Bitstream, BleConfig, ClbConfig, IoConfig, IoMode, XbarSel};
use crate::{crc32, BitstreamError, Result};

const MAGIC: &[u8; 4] = b"DAGR";
const VERSION: u16 = 1;
/// Bytes from the magic through `n_cbo`.
const HEADER_BYTES: usize = 36;

fn put_wire(buf: &mut BytesMut, k: &RrKind) {
    let (tag, x, y, t): (u8, u32, u32, u32) = match *k {
        RrKind::Chanx { x, y, t } => (0, x, y, t),
        RrKind::Chany { x, y, t } => (1, x, y, t),
        RrKind::Opin { x, y, pin } => (2, x, y, pin),
        RrKind::Ipin { x, y, pin } => (3, x, y, pin),
    };
    buf.put_u8(tag);
    buf.put_u16_le(x as u16);
    buf.put_u16_le(y as u16);
    buf.put_u16_le(t as u16);
}

fn get_wire(buf: &mut Bytes) -> Result<RrKind> {
    if buf.remaining() < 7 {
        return Err(BitstreamError::Format("truncated wire key".into()));
    }
    let tag = buf.get_u8();
    let x = buf.get_u16_le() as u32;
    let y = buf.get_u16_le() as u32;
    let t = buf.get_u16_le() as u32;
    Ok(match tag {
        0 => RrKind::Chanx { x, y, t },
        1 => RrKind::Chany { x, y, t },
        2 => RrKind::Opin { x, y, pin: t },
        3 => RrKind::Ipin { x, y, pin: t },
        other => return Err(BitstreamError::Format(format!("bad wire tag {other}"))),
    })
}

/// Serialize a bitstream.
pub fn write(bs: &Bitstream) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(4096);
    buf.put_slice(MAGIC);
    buf.put_u16_le(VERSION);
    buf.put_u16_le(bs.width as u16);
    buf.put_u16_le(bs.height as u16);
    buf.put_u16_le(bs.channel_width as u16);
    buf.put_u8(bs.lut_k as u8);
    buf.put_u8(bs.cluster_size as u8);
    buf.put_u8(bs.clb_inputs as u8);
    buf.put_u8(0);
    buf.put_u32_le(bs.clbs.len() as u32);
    buf.put_u32_le(bs.ios.len() as u32);
    buf.put_u32_le(bs.sb_switches.len() as u32);
    buf.put_u32_le(bs.cb_inputs.len() as u32);
    buf.put_u32_le(bs.cb_outputs.len() as u32);

    for clb in &bs.clbs {
        buf.put_u16_le(clb.loc.x as u16);
        buf.put_u16_le(clb.loc.y as u16);
        buf.put_u8(clb.clock_enable as u8);
        for ble in &clb.bles {
            buf.put_u8(ble.used as u8);
            buf.put_u64_le(ble.truth);
            for sel in &ble.inputs {
                buf.put_u8(sel.encode(bs.clb_inputs));
            }
            let mode =
                (ble.registered as u8) | ((ble.clock_enable as u8) << 1) | ((ble.init as u8) << 2);
            buf.put_u8(mode);
        }
    }

    for io in &bs.ios {
        buf.put_u16_le(io.loc.x as u16);
        buf.put_u16_le(io.loc.y as u16);
        buf.put_u8(io.sub as u8);
        buf.put_u8(match io.mode {
            IoMode::Input => 0,
            IoMode::Output => 1,
            IoMode::Unused => 2,
        });
        let name = io.net.as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
    }

    for (a, b) in &bs.sb_switches {
        put_wire(&mut buf, a);
        put_wire(&mut buf, b);
    }
    for ((x, y, pin), wire) in &bs.cb_inputs {
        buf.put_u16_le(*x as u16);
        buf.put_u16_le(*y as u16);
        buf.put_u8(*pin as u8);
        put_wire(&mut buf, wire);
    }
    for ((x, y, pin), wire) in &bs.cb_outputs {
        buf.put_u16_le(*x as u16);
        buf.put_u16_le(*y as u16);
        buf.put_u8(*pin as u8);
        put_wire(&mut buf, wire);
    }

    let crc = crc32(&buf);
    buf.put_u32_le(crc);
    buf.to_vec()
}

/// Parse (readback) a bitstream, verifying the CRC.
pub fn parse(data: &[u8]) -> Result<Bitstream> {
    if data.len() < HEADER_BYTES + 4 {
        return Err(BitstreamError::Format("too short".into()));
    }
    let (payload, crc_bytes) = data.split_at(data.len() - 4);
    let stored = u32::from_le_bytes(crc_bytes.try_into().unwrap());
    let computed = crc32(payload);
    if stored != computed {
        return Err(BitstreamError::Crc { stored, computed });
    }
    let mut buf = Bytes::copy_from_slice(payload);
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(BitstreamError::Format("bad magic".into()));
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(BitstreamError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let width = buf.get_u16_le() as usize;
    let height = buf.get_u16_le() as usize;
    let channel_width = buf.get_u16_le() as usize;
    let lut_k = buf.get_u8() as usize;
    if !(2..=6).contains(&lut_k) {
        return Err(BitstreamError::Format(format!(
            "lut_k {lut_k} out of the supported 2..=6 range"
        )));
    }
    let cluster_size = buf.get_u8() as usize;
    let clb_inputs = buf.get_u8() as usize;
    let _pad = buf.get_u8();
    let n_clbs = buf.get_u32_le() as usize;
    let n_ios = buf.get_u32_le() as usize;
    let n_sb = buf.get_u32_le() as usize;
    let n_cbi = buf.get_u32_le() as usize;
    let n_cbo = buf.get_u32_le() as usize;

    let mut bs = Bitstream {
        width,
        height,
        channel_width,
        lut_k,
        cluster_size,
        clb_inputs,
        ..Default::default()
    };

    for _ in 0..n_clbs {
        if buf.remaining() < 5 {
            return Err(BitstreamError::Format("truncated CLB frame".into()));
        }
        let x = buf.get_u16_le() as u32;
        let y = buf.get_u16_le() as u32;
        let clock_enable = buf.get_u8() != 0;
        let mut bles = Vec::with_capacity(cluster_size);
        for _ in 0..cluster_size {
            if buf.remaining() < 9 + lut_k + 1 {
                return Err(BitstreamError::Format("truncated BLE frame".into()));
            }
            let used = buf.get_u8() != 0;
            let truth = buf.get_u64_le();
            let mut inputs = Vec::with_capacity(lut_k);
            for _ in 0..lut_k {
                let code = buf.get_u8();
                inputs.push(XbarSel::decode(code, clb_inputs, cluster_size)?);
            }
            let mode = buf.get_u8();
            bles.push(BleConfig {
                used,
                truth,
                inputs,
                registered: mode & 1 != 0,
                clock_enable: mode & 2 != 0,
                init: mode & 4 != 0,
            });
        }
        bs.clbs.push(ClbConfig {
            loc: GridLoc::new(x, y),
            bles,
            clock_enable,
        });
    }

    for _ in 0..n_ios {
        if buf.remaining() < 8 {
            return Err(BitstreamError::Format("truncated IO frame".into()));
        }
        let x = buf.get_u16_le() as u32;
        let y = buf.get_u16_le() as u32;
        let sub = buf.get_u8() as u32;
        let mode = match buf.get_u8() {
            0 => IoMode::Input,
            1 => IoMode::Output,
            2 => IoMode::Unused,
            other => return Err(BitstreamError::Format(format!("bad IO mode {other}"))),
        };
        let len = buf.get_u16_le() as usize;
        if buf.remaining() < len {
            return Err(BitstreamError::Format("truncated IO symbol".into()));
        }
        let mut name = vec![0u8; len];
        buf.copy_to_slice(&mut name);
        let net = String::from_utf8(name)
            .map_err(|_| BitstreamError::Format("bad IO symbol utf-8".into()))?;
        bs.ios.push(IoConfig {
            loc: GridLoc::new(x, y),
            sub,
            mode,
            net,
        });
    }

    for _ in 0..n_sb {
        let a = get_wire(&mut buf)?;
        let b = get_wire(&mut buf)?;
        bs.sb_switches.insert((a, b));
    }
    for _ in 0..n_cbi {
        if buf.remaining() < 5 {
            return Err(BitstreamError::Format("truncated CB input".into()));
        }
        let x = buf.get_u16_le() as u32;
        let y = buf.get_u16_le() as u32;
        let pin = buf.get_u8() as u32;
        let wire = get_wire(&mut buf)?;
        bs.cb_inputs.insert((x, y, pin), wire);
    }
    for _ in 0..n_cbo {
        if buf.remaining() < 5 {
            return Err(BitstreamError::Format("truncated CB output".into()));
        }
        let x = buf.get_u16_le() as u32;
        let y = buf.get_u16_le() as u32;
        let pin = buf.get_u8() as u32;
        let wire = get_wire(&mut buf)?;
        bs.cb_outputs.insert(((x, y, pin), wire));
    }
    if buf.has_remaining() {
        return Err(BitstreamError::Format(format!(
            "{} trailing bytes",
            buf.remaining()
        )));
    }
    Ok(bs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BleConfig;

    fn sample() -> Bitstream {
        let mut bs = Bitstream {
            width: 2,
            height: 2,
            channel_width: 4,
            lut_k: 4,
            cluster_size: 5,
            clb_inputs: 12,
            ..Default::default()
        };
        let mut bles = vec![BleConfig::unused(4); 5];
        bles[0] = BleConfig {
            used: true,
            truth: 0xCAFE,
            inputs: vec![
                XbarSel::ClusterInput(3),
                XbarSel::Feedback(1),
                XbarSel::Unused,
                XbarSel::ClusterInput(0),
            ],
            registered: true,
            clock_enable: true,
            init: true,
        };
        bs.clbs.push(ClbConfig {
            loc: GridLoc::new(1, 1),
            bles,
            clock_enable: true,
        });
        bs.ios.push(IoConfig {
            loc: GridLoc::new(0, 1),
            sub: 1,
            mode: IoMode::Input,
            net: "data_in".to_string(),
        });
        bs.sb_switches.insert((
            RrKind::Chanx { x: 1, y: 0, t: 2 },
            RrKind::Chany { x: 0, y: 1, t: 2 },
        ));
        bs.cb_inputs
            .insert((1, 1, 3), RrKind::Chanx { x: 1, y: 1, t: 0 });
        bs.cb_outputs
            .insert(((1, 1, 12), RrKind::Chany { x: 1, y: 1, t: 1 }));
        bs
    }

    #[test]
    fn roundtrip() {
        let bs = sample();
        let bytes = write(&bs);
        let back = parse(&bytes).unwrap();
        assert_eq!(back.width, bs.width);
        assert_eq!(back.clbs, bs.clbs);
        assert_eq!(back.ios, bs.ios);
        assert_eq!(back.sb_switches, bs.sb_switches);
        assert_eq!(back.cb_inputs, bs.cb_inputs);
        assert_eq!(back.cb_outputs, bs.cb_outputs);
    }

    #[test]
    fn corruption_detected() {
        let bs = sample();
        let mut bytes = write(&bs);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(parse(&bytes), Err(BitstreamError::Crc { .. })));
    }

    #[test]
    fn truncation_detected() {
        let bs = sample();
        let bytes = write(&bs);
        assert!(parse(&bytes[..bytes.len() - 6]).is_err());
        assert!(parse(&bytes[..4]).is_err());
    }

    #[test]
    fn bad_magic_detected() {
        let bs = sample();
        let mut bytes = write(&bs);
        bytes[0] = b'X';
        // CRC covers the magic, so this reports as a CRC error; flipping
        // after re-signing reports bad magic.
        assert!(parse(&bytes).is_err());
        let mut body = write(&bs);
        let n = body.len();
        body.truncate(n - 4);
        body[0] = b'X';
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        assert!(matches!(parse(&body), Err(BitstreamError::Format(_))));
    }

    #[test]
    fn short_header_and_unsupported_lut_k_are_format_errors() {
        // Every CRC-valid prefix of a real header is refused, not read
        // past its end.
        let bytes = write(&sample());
        for n in 6..HEADER_BYTES {
            let mut data = bytes[..n].to_vec();
            let crc = crc32(&data);
            data.extend_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(parse(&data), Err(BitstreamError::Format(_))),
                "{n}-byte payload"
            );
        }
        // A well-formed stream for 7-input LUTs: more than any truth
        // table holds.
        let mut bs = sample();
        bs.lut_k = 7;
        for ble in &mut bs.clbs[0].bles {
            ble.inputs.resize(7, XbarSel::Unused);
        }
        assert!(matches!(
            parse(&write(&bs)),
            Err(BitstreamError::Format(m)) if m.contains("lut_k 7")
        ));
    }
}
