//! Program representation, layout, and loading.
//!
//! A [`Program`] is the output of the assembler: encoded text, initialised
//! data, a symbol table, and an entry point. [`Program::boot`] materialises
//! it into a runnable [`GuestState`] — text mapped read-execute, data
//! read-write, a stack, and registers pointing at the entry — which is the
//! root state handed to the backtracking engine. Loading is demand-zero:
//! an all-zero page of the image gets no frame until the guest writes it.

use std::collections::BTreeMap;

use lwsnap_core::{GuestState, Reg, RegisterFile};
use lwsnap_fs::FsView;
use lwsnap_mem::{round_up_pages, AddressSpace, AsLayout, Prot, RegionKind, PAGE_SIZE};

use crate::isa::{Instr, Opcode, INSTR_SIZE};

/// Assembler and loader errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// Syntax error at a source line (1-based).
    Syntax {
        /// Source line number.
        line: usize,
        /// Description of the problem.
        msg: String,
    },
    /// A label was defined twice.
    DuplicateLabel {
        /// The offending label.
        name: String,
    },
    /// An operand referenced an undefined symbol.
    UndefinedSymbol {
        /// The unresolved name.
        name: String,
    },
    /// A data directive appeared in `.text` (not supported).
    DataInText,
    /// An instruction appeared in `.data`.
    CodeInData,
    /// Loading failed (layout collision or out-of-range addresses).
    Load {
        /// Description of the problem.
        msg: String,
    },
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            AsmError::DuplicateLabel { name } => write!(f, "duplicate label `{name}`"),
            AsmError::UndefinedSymbol { name } => write!(f, "undefined symbol `{name}`"),
            AsmError::DataInText => write!(f, "data directive inside .text"),
            AsmError::CodeInData => write!(f, "instruction inside .data"),
            AsmError::Load { msg } => write!(f, "load error: {msg}"),
        }
    }
}

impl std::error::Error for AsmError {}

/// A symbol reference plus constant offset (`label+8`), or a plain
/// constant when `sym` is `None`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SymExpr {
    /// Referenced symbol, if any.
    pub sym: Option<String>,
    /// Constant addend.
    pub offset: i64,
}

impl SymExpr {
    /// A plain constant.
    pub fn imm(v: i64) -> SymExpr {
        SymExpr {
            sym: None,
            offset: v,
        }
    }

    /// A symbol reference with optional addend.
    pub fn sym(name: impl Into<String>, offset: i64) -> SymExpr {
        SymExpr {
            sym: Some(name.into()),
            offset,
        }
    }

    fn resolve(&self, symbols: &BTreeMap<String, u64>) -> Result<i64, AsmError> {
        match &self.sym {
            None => Ok(self.offset),
            Some(name) => symbols
                .get(name)
                .map(|&v| v as i64 + self.offset)
                .ok_or_else(|| AsmError::UndefinedSymbol { name: name.clone() }),
        }
    }
}

/// Current assembly section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Section {
    /// Executable code.
    #[default]
    Text,
    /// Initialised read-write data.
    Data,
}

/// One assembly item (produced by the parser or the builder).
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// Switch the active section.
    Section(Section),
    /// Define a label at the current position.
    Label(String),
    /// One instruction (text only).
    Ins {
        /// Operation.
        op: Opcode,
        /// Destination register operand.
        dst: Reg,
        /// Source register operand.
        src: Reg,
        /// Immediate operand, possibly symbolic.
        imm: SymExpr,
    },
    /// Raw bytes (`.byte`, `.asciz`) — data only.
    Bytes(Vec<u8>),
    /// 64-bit little-endian values (`.quad`) — data only.
    Quads(Vec<SymExpr>),
    /// `n` zero bytes (`.space`) — data only.
    Space(u64),
    /// Align the current data offset to `n` bytes (`.align`).
    Align(u64),
}

/// An assembled, relocatable-into-fixed-layout program image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Encoded instructions.
    pub text: Vec<u8>,
    /// Initialised data bytes.
    pub data: Vec<u8>,
    /// Base address of `.text`.
    pub text_base: u64,
    /// Base address of `.data`.
    pub data_base: u64,
    /// Entry point (`_start`, or the start of `.text`).
    pub entry: u64,
    /// All labels with their resolved addresses.
    pub symbols: BTreeMap<String, u64>,
}

/// Assembles items into a program using the default layout.
pub fn assemble(items: &[Item]) -> Result<Program, AsmError> {
    assemble_with_layout(items, &AsLayout::default())
}

/// Assembles items with an explicit address-space layout.
pub fn assemble_with_layout(items: &[Item], layout: &AsLayout) -> Result<Program, AsmError> {
    // Pass 1: measure sections and collect label offsets.
    let mut text_len = 0u64;
    let mut data_len = 0u64;
    let mut section = Section::Text;
    let mut labels: Vec<(String, Section, u64)> = Vec::new();
    for item in items {
        let cursor = match section {
            Section::Text => &mut text_len,
            Section::Data => &mut data_len,
        };
        match item {
            Item::Section(s) => section = *s,
            Item::Label(name) => {
                if labels.iter().any(|(n, _, _)| n == name) {
                    return Err(AsmError::DuplicateLabel { name: name.clone() });
                }
                labels.push((name.clone(), section, *cursor));
            }
            Item::Ins { .. } => {
                if section != Section::Text {
                    return Err(AsmError::CodeInData);
                }
                text_len += INSTR_SIZE;
            }
            Item::Bytes(b) => {
                if section != Section::Data {
                    return Err(AsmError::DataInText);
                }
                data_len += b.len() as u64;
            }
            Item::Quads(q) => {
                if section != Section::Data {
                    return Err(AsmError::DataInText);
                }
                data_len += 8 * q.len() as u64;
            }
            Item::Space(n) => {
                if section != Section::Data {
                    return Err(AsmError::DataInText);
                }
                data_len += n;
            }
            Item::Align(n) => {
                if *n == 0 || !n.is_power_of_two() {
                    return Err(AsmError::Syntax {
                        line: 0,
                        msg: format!(".align {n}: not a power of two"),
                    });
                }
                *cursor = cursor.div_ceil(*n) * n;
            }
        }
    }

    let text_base = layout.code_base;
    let data_base = text_base + round_up_pages(text_len).max(PAGE_SIZE as u64);
    let mut symbols = BTreeMap::new();
    for (name, sec, off) in labels {
        let addr = match sec {
            Section::Text => text_base + off,
            Section::Data => data_base + off,
        };
        symbols.insert(name, addr);
    }

    // Pass 2: encode.
    let mut text = Vec::with_capacity(text_len as usize);
    let mut data = Vec::with_capacity(data_len as usize);
    let mut section = Section::Text;
    for item in items {
        match item {
            Item::Section(s) => section = *s,
            Item::Label(_) => {}
            Item::Ins { op, dst, src, imm } => {
                let value = imm.resolve(&symbols)?;
                let ins = Instr {
                    op: *op,
                    dst: *dst,
                    src: *src,
                    imm: value,
                };
                text.extend_from_slice(&ins.encode());
            }
            Item::Bytes(b) => data.extend_from_slice(b),
            Item::Quads(q) => {
                for e in q {
                    data.extend_from_slice(&e.resolve(&symbols)?.to_le_bytes());
                }
            }
            Item::Space(n) => data.extend(std::iter::repeat_n(0u8, *n as usize)),
            Item::Align(n) => {
                let cursor = match section {
                    Section::Text => text.len() as u64,
                    Section::Data => data.len() as u64,
                };
                let target = cursor.div_ceil(*n) * n;
                let pad = (target - cursor) as usize;
                match section {
                    Section::Text => {
                        // Pad with NOPs to keep text decodable.
                        debug_assert_eq!(pad as u64 % INSTR_SIZE, 0, "text align is instr-sized");
                        for _ in 0..pad / INSTR_SIZE as usize {
                            text.extend_from_slice(&Instr::new(Opcode::Nop).encode());
                        }
                    }
                    Section::Data => data.extend(std::iter::repeat_n(0u8, pad)),
                }
            }
        }
    }

    let entry = symbols.get("_start").copied().unwrap_or(text_base);
    Ok(Program {
        text,
        data,
        text_base,
        data_base,
        entry,
        symbols,
    })
}

impl Program {
    /// Loads the program into a fresh address space.
    ///
    /// Loading is demand-zero: `.text` and `.data` are mapped in full,
    /// but only a page holding a non-zero byte of the image gets a frame.
    /// An all-zero page (a `.space` buffer, alignment padding) stays
    /// frameless, reads as zeros, and is zero-filled on its first write,
    /// exactly like the stack and the heap. Guest-visible bytes,
    /// protections and regions are those of a full copy; only
    /// [`AddressSpace::resident_pages`] and the [`lwsnap_mem::MemStats`]
    /// counters differ.
    pub fn load(&self, layout: &AsLayout) -> Result<(AddressSpace, RegisterFile), AsmError> {
        let mut mem = AddressSpace::with_layout(*layout);
        let map_err = |e: lwsnap_mem::MemError| AsmError::Load { msg: e.to_string() };
        let text_span = round_up_pages(self.text.len() as u64).max(PAGE_SIZE as u64);
        mem.map_fixed(
            self.text_base,
            text_span,
            Prot::RX,
            RegionKind::Code,
            ".text",
        )
        .map_err(map_err)?;
        poke_nonzero_pages(&mut mem, self.text_base, &self.text)?;
        if !self.data.is_empty() {
            let data_span = round_up_pages(self.data.len() as u64);
            mem.map_fixed(
                self.data_base,
                data_span,
                Prot::RW,
                RegionKind::Data,
                ".data",
            )
            .map_err(map_err)?;
            poke_nonzero_pages(&mut mem, self.data_base, &self.data)?;
        }
        let sp = mem.map_stack().map_err(map_err)?;
        let mut regs = RegisterFile::new();
        regs.rip = self.entry;
        regs.set(Reg::Rsp, sp);
        Ok((mem, regs))
    }

    /// Boots the program: loaded address space + default file view.
    ///
    /// The image is loaded demand-zero (see [`Program::load`]): the root
    /// state holds frames only for the pages the image initialises, so a
    /// zero-initialised buffer costs nothing until the guest writes it.
    pub fn boot(&self) -> Result<GuestState, AsmError> {
        let layout = AsLayout::default();
        let (mem, regs) = self.load(&layout)?;
        Ok(GuestState::with_parts(regs, mem, FsView::default()))
    }

    /// Boots with a pre-populated file view (e.g. input files).
    pub fn boot_with_fs(&self, fs: FsView) -> Result<GuestState, AsmError> {
        let layout = AsLayout::default();
        let (mem, regs) = self.load(&layout)?;
        Ok(GuestState::with_parts(regs, mem, fs))
    }

    /// Number of instructions in `.text`.
    pub fn instr_count(&self) -> u64 {
        self.text.len() as u64 / INSTR_SIZE
    }

    /// Number of `.data` pages [`Program::load`] gives a frame: those
    /// holding a non-zero byte.
    pub fn resident_data_pages(&self) -> u64 {
        nonzero_pages(&self.data).count() as u64
    }
}

/// The pages of `image` that hold a non-zero byte, as (offset, bytes):
/// the only pages [`Program::load`] gives a frame.
fn nonzero_pages(image: &[u8]) -> impl Iterator<Item = (u64, &[u8])> {
    image
        .chunks(PAGE_SIZE)
        .enumerate()
        .filter(|(_, page)| page.iter().any(|&b| b != 0))
        .map(|(i, page)| ((i * PAGE_SIZE) as u64, page))
}

/// Copies the non-zero pages of `image` to `base`, which `map_fixed` has
/// already mapped and so checked to be page-aligned; a frameless page
/// reads as zeros.
fn poke_nonzero_pages(mem: &mut AddressSpace, base: u64, image: &[u8]) -> Result<(), AsmError> {
    for (off, page) in nonzero_pages(image) {
        mem.poke_bytes(base + off, page)
            .map_err(|e| AsmError::Load { msg: e.to_string() })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_simple_program() {
        let items = vec![
            Item::Label("_start".into()),
            Item::Ins {
                op: Opcode::MovRI,
                dst: Reg::Rax,
                src: Reg::Rax,
                imm: SymExpr::imm(7),
            },
            Item::Ins {
                op: Opcode::MovRI,
                dst: Reg::Rbx,
                src: Reg::Rax,
                imm: SymExpr::sym("value", 0),
            },
            Item::Section(Section::Data),
            Item::Label("value".into()),
            Item::Quads(vec![SymExpr::imm(99)]),
        ];
        let prog = assemble(&items).unwrap();
        assert_eq!(prog.instr_count(), 2);
        assert_eq!(prog.entry, prog.text_base);
        let value_addr = prog.symbols["value"];
        assert_eq!(value_addr, prog.data_base);
        // The second instruction's immediate is the data address.
        let ins = Instr::decode(prog.text[16..32].try_into().unwrap()).unwrap();
        assert_eq!(ins.imm as u64, value_addr);
        assert_eq!(prog.data, 99i64.to_le_bytes());
    }

    #[test]
    fn duplicate_label_rejected() {
        let items = vec![Item::Label("a".into()), Item::Label("a".into())];
        assert_eq!(
            assemble(&items),
            Err(AsmError::DuplicateLabel { name: "a".into() })
        );
    }

    #[test]
    fn undefined_symbol_rejected() {
        let items = vec![Item::Ins {
            op: Opcode::Jmp,
            dst: Reg::Rax,
            src: Reg::Rax,
            imm: SymExpr::sym("nowhere", 0),
        }];
        assert_eq!(
            assemble(&items),
            Err(AsmError::UndefinedSymbol {
                name: "nowhere".into()
            })
        );
    }

    #[test]
    fn section_rules_enforced() {
        let items = vec![Item::Bytes(vec![1])];
        assert_eq!(assemble(&items), Err(AsmError::DataInText));
        let items = vec![
            Item::Section(Section::Data),
            Item::Ins {
                op: Opcode::Nop,
                dst: Reg::Rax,
                src: Reg::Rax,
                imm: SymExpr::imm(0),
            },
        ];
        assert_eq!(assemble(&items), Err(AsmError::CodeInData));
    }

    #[test]
    fn align_and_space() {
        let items = vec![
            Item::Section(Section::Data),
            Item::Bytes(vec![1, 2, 3]),
            Item::Align(8),
            Item::Label("aligned".into()),
            Item::Quads(vec![SymExpr::imm(5)]),
            Item::Space(4),
        ];
        let prog = assemble(&items).unwrap();
        assert_eq!(prog.symbols["aligned"] % 8, 0);
        assert_eq!(prog.data.len(), 8 + 8 + 4);
        assert_eq!(&prog.data[..3], &[1, 2, 3]);
    }

    #[test]
    fn sym_plus_offset() {
        let items = vec![
            Item::Section(Section::Data),
            Item::Label("arr".into()),
            Item::Space(64),
            Item::Label("ptr".into()),
            Item::Quads(vec![SymExpr::sym("arr", 16)]),
        ];
        let prog = assemble(&items).unwrap();
        let stored = i64::from_le_bytes(prog.data[64..72].try_into().unwrap());
        assert_eq!(stored as u64, prog.symbols["arr"] + 16);
    }

    #[test]
    fn boot_sets_up_machine() {
        let items = vec![
            Item::Label("_start".into()),
            Item::Ins {
                op: Opcode::Nop,
                dst: Reg::Rax,
                src: Reg::Rax,
                imm: SymExpr::imm(0),
            },
        ];
        let prog = assemble(&items).unwrap();
        let mut st = prog.boot().unwrap();
        assert_eq!(st.regs.rip, prog.entry);
        let sp = st.regs.get(Reg::Rsp);
        assert!(sp > 0);
        // Stack is writable; text is not.
        st.mem.write_u64(sp - 8, 1).unwrap();
        assert!(st.mem.write_u8(prog.text_base, 0).is_err());
        // Text is fetchable.
        let mut buf = [0u8; 16];
        st.mem.fetch_bytes(prog.text_base, &mut buf).unwrap();
        assert_eq!(Instr::decode(&buf).unwrap().op, Opcode::Nop);
    }

    /// Loads `prog`, then copies its whole image in, zeros included:
    /// the eager loader the demand-zero one must be indistinguishable from.
    fn eager_load(prog: &Program) -> AddressSpace {
        let (mut mem, _) = prog.load(&AsLayout::default()).unwrap();
        mem.poke_bytes(prog.text_base, &prog.text).unwrap();
        mem.poke_bytes(prog.data_base, &prog.data).unwrap();
        mem
    }

    #[test]
    fn load_gives_frames_only_to_nonzero_pages() {
        const P: u64 = PAGE_SIZE as u64;
        let prog = crate::parse::assemble_source(
            "_start: nop\n\
             .data\n\
             x: .quad 7\n\
             .align 4096\n\
             buf: .space 12288\n\
             last: .space 4095\n\
             .byte 1\n",
        )
        .unwrap();
        let buf = prog.symbols["buf"];
        let last = prog.symbols["last"];
        assert_eq!(buf, prog.data_base + P);
        assert_eq!(last, buf + 3 * P);
        assert_eq!(prog.data.len() as u64, 5 * P, "data still holds every byte");
        assert_eq!(prog.resident_data_pages(), 2);

        let layout = AsLayout::default();
        let (mut mem, _) = prog.load(&layout).unwrap();
        let eager = eager_load(&prog);
        // Text, `x`'s page and `last`'s page; the three `buf` pages are
        // frameless.
        assert_eq!(mem.resident_pages(), 3);
        assert_eq!(eager.resident_pages(), 6);
        assert_eq!(mem.render_maps(), eager.render_maps());

        // Which pages got a frame: a write zero-fills exactly the
        // frameless ones.
        for (page, resident) in [(0, true), (1, false), (2, false), (3, false), (4, true)] {
            let (mut m, _) = prog.load(&layout).unwrap();
            let before = *m.stats();
            m.write_u8(prog.data_base + page * P, 0xaa).unwrap();
            let d = m.stats().delta(&before);
            assert_eq!(d.zero_fills, u64::from(!resident), "page {page}");
            assert_eq!(d.cow_page_copies, 0, "page {page}");
        }

        // Every byte reads as the image says, and reading allocates
        // nothing.
        let mut got = vec![0u8; prog.data.len()];
        mem.read_bytes(prog.data_base, &mut got).unwrap();
        assert_eq!(got, prog.data);
        assert_eq!(mem.read_u64(prog.symbols["x"]).unwrap(), 7);
        assert_eq!(mem.read_u8(last + P - 1).unwrap(), 1, "last byte loaded");
        assert_eq!(mem.read_u64(buf + P).unwrap(), 0);
        assert_eq!(mem.resident_pages(), 3, "reads allocate no frame");

        // The first write into `buf` is a zero fill, not a copy.
        let before = *mem.stats();
        mem.write_u64(buf + 8, 42).unwrap();
        let d = mem.stats().delta(&before);
        assert_eq!((d.zero_fills, d.cow_page_copies), (1, 0));
        assert_eq!(mem.resident_pages(), 4);
        assert_eq!(mem.read_u64(buf + 8).unwrap(), 42);
        assert_eq!(mem.read_u64(buf).unwrap(), 0);
    }

    #[test]
    fn entry_defaults_and_start_label() {
        let items = vec![
            Item::Ins {
                op: Opcode::Nop,
                dst: Reg::Rax,
                src: Reg::Rax,
                imm: SymExpr::imm(0),
            },
            Item::Label("_start".into()),
            Item::Ins {
                op: Opcode::Nop,
                dst: Reg::Rax,
                src: Reg::Rax,
                imm: SymExpr::imm(0),
            },
        ];
        let prog = assemble(&items).unwrap();
        assert_eq!(prog.entry, prog.text_base + 16, "_start respected");
    }
}
