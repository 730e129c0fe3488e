package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sharing/internal/isa"
)

// Binary trace format ("STRC"):
//
//	magic     [4]byte  "STRC"
//	version   uvarint  (currently 1)
//	nameLen   uvarint, name bytes
//	nThreads  uvarint
//	per thread: nInsts uvarint, then nInsts records
//	nBarriers uvarint, each barrier: nThreads uvarints
//
// Each instruction record is delta-encoded against the previous instruction
// in the same thread:
//
//	op      byte
//	flags   byte (bit0 taken, bit1 hasAddr-delta-signed ...)
//	dest, src1, src2 bytes (only those the opcode uses)
//	pcDelta  svarint (pc - prevPC)
//	imm      svarint (if opcode uses imm)
//	addrDelta svarint (memory ops, vs previous memory address)
//	target   uvarint (branches, absolute)
//
// The format exists so cmd/tracegen output can be replayed by cmd/ssim and
// so failure-injection tests can exercise decoder robustness.

const magic = "STRC"

const codecVersion = 1

// maxInitialInsts caps the per-thread capacity Read preallocates from an
// instruction count it has not yet seen records for (~3 MB of isa.Inst).
const maxInitialInsts = 1 << 16

// ErrBadTrace is returned (wrapped) for any malformed trace input.
var ErrBadTrace = errors.New("trace: malformed trace data")

// Write encodes m to w in the binary trace format.
func Write(w io.Writer, m *MultiTrace) error {
	if err := m.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putU := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putS := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putU(codecVersion); err != nil {
		return err
	}
	if err := putU(uint64(len(m.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(m.Name); err != nil {
		return err
	}
	if err := putU(uint64(len(m.Threads))); err != nil {
		return err
	}
	for _, t := range m.Threads {
		if err := putU(uint64(len(t.Insts))); err != nil {
			return err
		}
		var prevPC, prevAddr uint64
		for _, in := range t.Insts {
			if !in.Op.Valid() {
				return fmt.Errorf("%w: invalid opcode %d", ErrBadTrace, in.Op)
			}
			if err := bw.WriteByte(byte(in.Op)); err != nil {
				return err
			}
			var flags byte
			if in.Taken {
				flags |= 1
			}
			if err := bw.WriteByte(flags); err != nil {
				return err
			}
			if in.Op.HasDest() {
				if err := bw.WriteByte(byte(in.Dest)); err != nil {
					return err
				}
			}
			if in.Op.NumSrc() >= 1 {
				if err := bw.WriteByte(byte(in.Src1)); err != nil {
					return err
				}
			}
			if in.Op.NumSrc() >= 2 {
				if err := bw.WriteByte(byte(in.Src2)); err != nil {
					return err
				}
			}
			if err := putS(int64(in.PC) - int64(prevPC)); err != nil {
				return err
			}
			prevPC = in.PC
			if in.Op == isa.OpAddI || in.Op.IsMemory() {
				if err := putS(int64(in.Imm)); err != nil {
					return err
				}
			}
			if in.Op.IsMemory() {
				if err := putS(int64(in.Addr) - int64(prevAddr)); err != nil {
					return err
				}
				prevAddr = in.Addr
			}
			if in.Op.IsBranch() {
				if err := putU(in.Target); err != nil {
					return err
				}
			}
		}
	}
	if err := putU(uint64(len(m.Barriers))); err != nil {
		return err
	}
	for _, b := range m.Barriers {
		for _, at := range b.At {
			if err := putU(uint64(at)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read decodes a MultiTrace from r.
func Read(r io.Reader) (*MultiTrace, error) {
	br := bufio.NewReader(r)
	var mg [4]byte
	if _, err := io.ReadFull(br, mg[:]); err != nil {
		return nil, fmt.Errorf("%w: missing magic: %v", ErrBadTrace, err)
	}
	if string(mg[:]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, mg)
	}
	getU := func() (uint64, error) { return binary.ReadUvarint(br) }
	getS := func() (int64, error) { return binary.ReadVarint(br) }
	ver, err := getU()
	if err != nil {
		return nil, fmt.Errorf("%w: version: %v", ErrBadTrace, err)
	}
	if ver != codecVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, ver)
	}
	nameLen, err := getU()
	if err != nil || nameLen > 1<<16 {
		return nil, fmt.Errorf("%w: name length", ErrBadTrace)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: name: %v", ErrBadTrace, err)
	}
	nThreads, err := getU()
	if err != nil || nThreads == 0 || nThreads > 1<<10 {
		return nil, fmt.Errorf("%w: thread count", ErrBadTrace)
	}
	m := &MultiTrace{Name: string(name)}
	for ti := uint64(0); ti < nThreads; ti++ {
		n, err := getU()
		if err != nil || n > 1<<31 {
			return nil, fmt.Errorf("%w: instruction count", ErrBadTrace)
		}
		// n comes from the input: trust it only up to maxInitialInsts and
		// let append grow the rest as records actually arrive, so a short
		// input cannot make Read allocate for 2^31 instructions.
		t := &Trace{Name: string(name), Insts: make([]isa.Inst, 0, min(n, maxInitialInsts))}
		var prevPC, prevAddr uint64
		for k := uint64(0); k < n; k++ {
			opb, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: opcode: %v", ErrBadTrace, err)
			}
			op := isa.Op(opb)
			if !op.Valid() {
				return nil, fmt.Errorf("%w: invalid opcode %d", ErrBadTrace, opb)
			}
			flags, err := br.ReadByte()
			if err != nil {
				return nil, fmt.Errorf("%w: flags: %v", ErrBadTrace, err)
			}
			in := isa.Inst{Op: op, Taken: flags&1 != 0}
			readReg := func(dst *isa.Reg) error {
				b, err := br.ReadByte()
				if err != nil {
					return err
				}
				if b >= isa.NumArchRegs {
					return fmt.Errorf("register %d out of range", b)
				}
				*dst = isa.Reg(b)
				return nil
			}
			if op.HasDest() {
				if err := readReg(&in.Dest); err != nil {
					return nil, fmt.Errorf("%w: dest: %v", ErrBadTrace, err)
				}
			}
			if op.NumSrc() >= 1 {
				if err := readReg(&in.Src1); err != nil {
					return nil, fmt.Errorf("%w: src1: %v", ErrBadTrace, err)
				}
			}
			if op.NumSrc() >= 2 {
				if err := readReg(&in.Src2); err != nil {
					return nil, fmt.Errorf("%w: src2: %v", ErrBadTrace, err)
				}
			}
			d, err := getS()
			if err != nil {
				return nil, fmt.Errorf("%w: pc delta: %v", ErrBadTrace, err)
			}
			in.PC = uint64(int64(prevPC) + d)
			prevPC = in.PC
			if op == isa.OpAddI || op.IsMemory() {
				imm, err := getS()
				if err != nil {
					return nil, fmt.Errorf("%w: imm: %v", ErrBadTrace, err)
				}
				in.Imm = imm
			}
			if op.IsMemory() {
				ad, err := getS()
				if err != nil {
					return nil, fmt.Errorf("%w: addr delta: %v", ErrBadTrace, err)
				}
				in.Addr = uint64(int64(prevAddr) + ad)
				prevAddr = in.Addr
			}
			if op.IsBranch() {
				tgt, err := getU()
				if err != nil {
					return nil, fmt.Errorf("%w: target: %v", ErrBadTrace, err)
				}
				in.Target = tgt
			}
			t.Insts = append(t.Insts, in)
		}
		m.Threads = append(m.Threads, t)
	}
	nBar, err := getU()
	if err != nil || nBar > 1<<20 {
		return nil, fmt.Errorf("%w: barrier count", ErrBadTrace)
	}
	for bi := uint64(0); bi < nBar; bi++ {
		b := BarrierSet{At: make([]int, nThreads)}
		for ti := range b.At {
			v, err := getU()
			if err != nil || v > 1<<31 {
				return nil, fmt.Errorf("%w: barrier index", ErrBadTrace)
			}
			b.At[ti] = int(v)
		}
		m.Barriers = append(m.Barriers, b)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTrace, err)
	}
	return m, nil
}
