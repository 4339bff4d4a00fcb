//! Deterministic binary wire codec for netlists, plus the little-endian
//! reader/writer primitives every other artifact codec in the workspace
//! builds on.
//!
//! The flow server persists stage outputs to disk (content-addressed,
//! crash-safe); those artifacts need a byte encoding that is (a) exact —
//! `decode(encode(x))` reproduces `x`, including cell names, which the
//! human-facing `canonical_text` deliberately drops — and (b) stable
//! across runs, so equal values always produce equal bytes. JSON is out:
//! the vendored serde stub cannot round-trip maps, and float text is a
//! classic corruption vector. This codec writes fixed-width little-endian
//! integers, `f64` bit patterns, and length-prefixed strings instead.
//!
//! Encodings carry no type tags; each reader must mirror its writer
//! field-for-field. The disk store guards against mismatched readers
//! with an outer header (format version + payload digest), so decoding
//! here can assume the right codec was chosen and only defends against
//! truncation and garbage values.

use crate::ir::{Cell, CellKind, Net, NetId, Netlist};
use crate::sop::{Cube, SopCover};

/// A decode failure: truncated input, a bad tag, or trailing bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

pub type CodecResult<T> = std::result::Result<T, CodecError>;

/// Append-only encoder. All integers are little-endian; strings and byte
/// blobs are `u64` length-prefixed; floats are stored as IEEE-754 bit
/// patterns (never as text).
#[derive(Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub fn new() -> Self {
        ByteWriter::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` travels as `u64` so 32- and 64-bit builds interoperate.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Append bytes with no length prefix — for fixed-width fields like
    /// magic numbers whose size is part of the format itself.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Write a length prefix, then each element through `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }

    pub fn opt<T>(&mut self, v: &Option<T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

/// The matching decoder. Every read checks bounds; collection lengths
/// are sanity-capped against the remaining input so a corrupt length
/// cannot trigger a huge allocation.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decoding must consume the input exactly; call this last.
    pub fn finish(&self) -> CodecResult<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError(format!(
                "{} trailing byte(s) after decode",
                self.remaining()
            )))
        }
    }

    /// Consume exactly `n` bytes — the inverse of [`ByteWriter::raw`]
    /// for fixed-width fields.
    pub fn take(&mut self, n: usize) -> CodecResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(CodecError(format!(
                "truncated: need {n} byte(s), have {}",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub fn u8(&mut self) -> CodecResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> CodecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("bad bool byte {other}"))),
        }
    }

    pub fn u32(&mut self) -> CodecResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    pub fn u64(&mut self) -> CodecResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a `u32` id into a table of `len` entries, refusing one that
    /// lies outside it: a digest proves only that these are the bytes
    /// the writer wrote, and an id past its table would panic the first
    /// stage that indexes with it.
    pub fn index(&mut self, table: &str, len: usize) -> CodecResult<u32> {
        let id = self.u32()?;
        if id as usize >= len {
            return Err(CodecError(format!(
                "{table} id {id} out of range: the table holds {len}"
            )));
        }
        Ok(id)
    }

    pub fn usize(&mut self) -> CodecResult<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CodecError(format!("length {v} exceeds usize")))
    }

    pub fn f64(&mut self) -> CodecResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bytes(&mut self) -> CodecResult<&'a [u8]> {
        let len = self.usize()?;
        self.take(len)
    }

    pub fn str(&mut self) -> CodecResult<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError("non-UTF-8 string".into()))
    }

    /// Read a length prefix, then that many elements through `f`. The
    /// length is checked against a per-element lower bound of one byte,
    /// so a corrupt prefix fails fast instead of reserving gigabytes.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> CodecResult<T>,
    ) -> CodecResult<Vec<T>> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(CodecError(format!(
                "sequence length {len} exceeds {} remaining byte(s)",
                self.remaining()
            )));
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> CodecResult<T>,
    ) -> CodecResult<Option<T>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(CodecError(format!("bad option tag {other}"))),
        }
    }
}

fn write_net_id(w: &mut ByteWriter, id: NetId) {
    w.u32(id.0);
}

fn read_net_id(r: &mut ByteReader, nets: usize) -> CodecResult<NetId> {
    Ok(NetId(r.index("net", nets)?))
}

fn write_cell_kind(w: &mut ByteWriter, kind: &CellKind) {
    match kind {
        CellKind::Const0 => w.u8(0),
        CellKind::Const1 => w.u8(1),
        CellKind::Buf => w.u8(2),
        CellKind::Not => w.u8(3),
        CellKind::And => w.u8(4),
        CellKind::Or => w.u8(5),
        CellKind::Nand => w.u8(6),
        CellKind::Nor => w.u8(7),
        CellKind::Xor => w.u8(8),
        CellKind::Xnor => w.u8(9),
        CellKind::Mux2 => w.u8(10),
        CellKind::Lut { k, truth } => {
            w.u8(11);
            w.u8(*k);
            w.u64(*truth);
        }
        CellKind::Sop(cover) => {
            w.u8(12);
            w.usize(cover.n_inputs);
            w.seq(&cover.cubes, |w, cube| {
                w.u64(cube.care);
                w.u64(cube.value);
            });
        }
        CellKind::Dff { clock, init } => {
            w.u8(13);
            write_net_id(w, *clock);
            w.bool(*init);
        }
    }
}

fn read_cell_kind(r: &mut ByteReader, nets: usize) -> CodecResult<CellKind> {
    Ok(match r.u8()? {
        0 => CellKind::Const0,
        1 => CellKind::Const1,
        2 => CellKind::Buf,
        3 => CellKind::Not,
        4 => CellKind::And,
        5 => CellKind::Or,
        6 => CellKind::Nand,
        7 => CellKind::Nor,
        8 => CellKind::Xor,
        9 => CellKind::Xnor,
        10 => CellKind::Mux2,
        11 => CellKind::Lut {
            k: r.u8()?,
            truth: r.u64()?,
        },
        12 => {
            let n_inputs = r.usize()?;
            let cubes = r.seq(|r| {
                Ok(Cube {
                    care: r.u64()?,
                    value: r.u64()?,
                })
            })?;
            CellKind::Sop(SopCover { n_inputs, cubes })
        }
        13 => CellKind::Dff {
            clock: read_net_id(r, nets)?,
            init: r.bool()?,
        },
        other => return Err(CodecError(format!("bad cell-kind tag {other}"))),
    })
}

/// Serialize a netlist into `w` (full fidelity, including cell names).
pub fn write_netlist(w: &mut ByteWriter, nl: &Netlist) {
    w.str(&nl.name);
    w.seq(&nl.nets, |w, net: &Net| w.str(&net.name));
    w.seq(&nl.cells, |w, cell: &Cell| {
        w.str(&cell.name);
        write_cell_kind(w, &cell.kind);
        w.seq(&cell.inputs, |w, &id| write_net_id(w, id));
        write_net_id(w, cell.output);
    });
    w.seq(&nl.inputs, |w, &id| write_net_id(w, id));
    w.seq(&nl.outputs, |w, &id| write_net_id(w, id));
    w.seq(&nl.clocks, |w, &id| write_net_id(w, id));
}

/// Inverse of [`write_netlist`]; rebuilds the name index. Every net id
/// must index the net table.
pub fn read_netlist(r: &mut ByteReader) -> CodecResult<Netlist> {
    let mut nl = Netlist::new(&r.str()?);
    nl.nets = r.seq(|r| Ok(Net { name: r.str()? }))?;
    let n = nl.nets.len();
    let net = |r: &mut ByteReader| read_net_id(r, n);
    nl.cells = r.seq(|r| {
        Ok(Cell {
            name: r.str()?,
            kind: read_cell_kind(r, n)?,
            inputs: r.seq(net)?,
            output: net(r)?,
        })
    })?;
    nl.inputs = r.seq(net)?;
    nl.outputs = r.seq(net)?;
    nl.clocks = r.seq(net)?;
    nl.rebuild_index();
    Ok(nl)
}

/// One-shot [`write_netlist`].
pub fn netlist_to_bytes(nl: &Netlist) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_netlist(&mut w, nl);
    w.into_bytes()
}

/// One-shot [`read_netlist`], rejecting trailing bytes.
pub fn netlist_from_bytes(bytes: &[u8]) -> CodecResult<Netlist> {
    let mut r = ByteReader::new(bytes);
    let nl = read_netlist(&mut r)?;
    r.finish()?;
    Ok(nl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::CellKind;

    fn sample() -> Netlist {
        let mut n = Netlist::new("sample");
        let a = n.net("a");
        let b = n.net("b");
        let clk = n.net("clk");
        let w = n.net("w");
        let q = n.net("q");
        n.add_input(a);
        n.add_input(b);
        n.add_clock(clk);
        n.add_output(q);
        n.add_cell(
            "g1",
            CellKind::Lut {
                k: 2,
                truth: 0b1000,
            },
            vec![a, b],
            w,
        );
        n.add_cell(
            "ff1",
            CellKind::Dff {
                clock: clk,
                init: true,
            },
            vec![w],
            q,
        );
        let y = n.net("y");
        n.add_cell(
            "s1",
            CellKind::Sop(SopCover {
                n_inputs: 2,
                cubes: vec![Cube { care: 3, value: 1 }],
            }),
            vec![a, b],
            y,
        );
        n
    }

    #[test]
    fn netlist_round_trips_exactly() {
        let nl = sample();
        let bytes = netlist_to_bytes(&nl);
        let back = netlist_from_bytes(&bytes).unwrap();
        // Re-encoding the decoded value reproduces the bytes: the codec
        // is deterministic and loses nothing (names included).
        assert_eq!(netlist_to_bytes(&back), bytes);
        assert_eq!(back.name, nl.name);
        assert_eq!(back.cells.len(), nl.cells.len());
        assert_eq!(back.cells[0].name, "g1");
        assert_eq!(back.find_net("clk"), nl.find_net("clk"), "index rebuilt");
    }

    #[test]
    fn truncation_is_detected_at_every_length() {
        let bytes = netlist_to_bytes(&sample());
        for cut in 0..bytes.len() {
            assert!(
                netlist_from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn net_ids_outside_the_net_table_are_refused() {
        let corruptions: [fn(&mut Netlist); 4] = [
            |n| n.cells[0].inputs[1] = NetId(99),
            |n| n.cells[0].output = NetId(99),
            |n| {
                n.cells[1].kind = CellKind::Dff {
                    clock: NetId(99),
                    init: true,
                }
            },
            |n| n.outputs[0] = NetId(99),
        ];
        for corrupt in corruptions {
            let mut nl = sample();
            corrupt(&mut nl);
            let err = netlist_from_bytes(&netlist_to_bytes(&nl)).unwrap_err();
            assert_eq!(err.0, "net id 99 out of range: the table holds 6");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = netlist_to_bytes(&sample());
        bytes.push(0);
        assert!(netlist_from_bytes(&bytes).is_err());
    }

    #[test]
    fn corrupt_length_prefix_fails_fast() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // absurd sequence length
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.seq(|r| r.u8()).is_err());
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-0.15625);
        w.str("héllo");
        w.opt(&Some(9u32), |w, v| w.u32(*v));
        w.opt(&None::<u32>, |w, v| w.u32(*v));
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap(), -0.15625);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt(|r| r.u32()).unwrap(), Some(9));
        assert_eq!(r.opt(|r| r.u32()).unwrap(), None);
        r.finish().unwrap();
    }
}
