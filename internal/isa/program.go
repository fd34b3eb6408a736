package isa

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// Program is a spatial NPU program: one instruction stream per core.
// Streams execute in order on their core; cross-core ordering comes only
// from send/receive pairs and barriers, exactly as on the real device.
type Program struct {
	streams map[CoreID][]Instr
	// fp caches the content fingerprint (0 = not yet computed); see
	// Fingerprint. Rebase and Remap return fresh programs, so a derived
	// program re-hashes rather than inheriting a stale value.
	fp atomic.Uint64
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{streams: make(map[CoreID][]Instr)}
}

// Append adds an instruction to the stream of core id.
func (p *Program) Append(id CoreID, in Instr) {
	p.streams[id] = append(p.streams[id], in)
}

// Stream returns the instruction stream of core id (nil if empty). The
// returned slice is owned by the program; callers must not modify it.
func (p *Program) Stream(id CoreID) []Instr { return p.streams[id] }

// Cores returns the IDs of all cores with non-empty streams, ascending.
func (p *Program) Cores() []CoreID {
	ids := make([]CoreID, 0, len(p.streams))
	for id, s := range p.streams {
		if len(s) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// NumInstrs returns the total instruction count across all cores.
func (p *Program) NumInstrs() int {
	total := 0
	for _, s := range p.streams {
		total += len(s)
	}
	return total
}

// TotalFLOPs sums the FLOPs of every compute instruction in the program.
func (p *Program) TotalFLOPs() int64 {
	var total int64
	for _, s := range p.streams {
		for _, in := range s {
			total += in.FLOPs()
		}
	}
	return total
}

// DMABytes sums the byte counts of all DMA load and store instructions —
// the program's global-memory traffic per iteration.
func (p *Program) DMABytes() int64 {
	var total int64
	for _, s := range p.streams {
		for _, in := range s {
			if in.Op == OpDMALoad || in.Op == OpDMAStore {
				total += int64(in.Size)
			}
		}
	}
	return total
}

// NoCBytes sums the byte counts of all send instructions — the program's
// inter-core traffic per iteration.
func (p *Program) NoCBytes() int64 {
	var total int64
	for _, s := range p.streams {
		for _, in := range s {
			if in.Op == OpSend {
				total += int64(in.Size)
			}
		}
	}
	return total
}

// Validate checks structural well-formedness:
//   - every opcode is defined and sizes/dims are non-negative,
//   - every send has exactly one matching receive (peer, tag, size) and
//     vice versa,
//   - sends and receives never target the issuing core itself.
//
// It does not prove deadlock freedom — that is a property of execution
// order — but it catches the program-construction bugs that matter when
// compiling workloads.
func (p *Program) Validate() error {
	type key struct {
		src, dst CoreID
		tag      uint16
	}
	sends := make(map[key][]uint32)
	recvs := make(map[key][]uint32)
	for id, stream := range p.streams {
		for i, in := range stream {
			if !in.Op.Valid() {
				return fmt.Errorf("core %d instr %d: invalid opcode %d", id, i, in.Op)
			}
			if in.M < 0 || in.K < 0 || in.N < 0 || in.H < 0 || in.W < 0 || in.C < 0 || in.OC < 0 || in.KDim < 0 {
				return fmt.Errorf("core %d instr %d: negative dimension in %s", id, i, in)
			}
			switch in.Op {
			case OpSend:
				if in.Peer == id {
					return fmt.Errorf("core %d instr %d: send to self", id, i)
				}
				k := key{src: id, dst: in.Peer, tag: in.Tag}
				sends[k] = append(sends[k], in.Size)
			case OpRecv:
				if in.Peer == id {
					return fmt.Errorf("core %d instr %d: recv from self", id, i)
				}
				k := key{src: in.Peer, dst: id, tag: in.Tag}
				recvs[k] = append(recvs[k], in.Size)
			case OpMatmul:
				if in.M == 0 || in.K == 0 || in.N == 0 {
					return fmt.Errorf("core %d instr %d: zero matmul dim", id, i)
				}
			case OpConv:
				if in.H == 0 || in.W == 0 || in.C == 0 || in.OC == 0 || in.KDim == 0 {
					return fmt.Errorf("core %d instr %d: zero conv dim", id, i)
				}
			}
		}
	}
	for k, sizes := range sends {
		rs, ok := recvs[k]
		if !ok || len(rs) != len(sizes) {
			return fmt.Errorf("unmatched send %d->%d tag %d: %d sends, %d recvs",
				k.src, k.dst, k.tag, len(sizes), len(rs))
		}
		for i := range sizes {
			if sizes[i] != rs[i] {
				return fmt.Errorf("size mismatch %d->%d tag %d: send %d vs recv %d",
					k.src, k.dst, k.tag, sizes[i], rs[i])
			}
		}
	}
	for k, rs := range recvs {
		if _, ok := sends[k]; !ok {
			return fmt.Errorf("recv without send %d->%d tag %d (%d recvs)", k.src, k.dst, k.tag, len(rs))
		}
	}
	return nil
}

// Rebase returns a copy of the program with every DMA virtual address
// translated from a guest memory region starting at from to one starting
// at to. Compiled programs address a contiguous [base, base+size) region,
// so a program compiled once can be relocated to another base without
// re-running the compiler. The serving path does not need it: every
// vNPU's guest memory starts at one shared base. Non-DMA instructions
// carry no addresses and are copied verbatim.
func (p *Program) Rebase(from, to uint64) *Program {
	if from == to {
		return p
	}
	out := NewProgram()
	delta := to - from // wraps correctly for to < from under uint64 arithmetic
	for id, stream := range p.streams {
		ns := make([]Instr, len(stream))
		for i, in := range stream {
			if in.Op == OpDMALoad || in.Op == OpDMAStore {
				in.VAddr += delta
			}
			ns[i] = in
		}
		out.streams[id] = ns
	}
	return out
}

// Remap returns a copy of the program with every core ID (stream owners and
// send/recv peers) translated through f. It is how a virtual program is
// lowered onto physical cores when no hardware vRouter is present — the
// software equivalent the baselines use.
func (p *Program) Remap(f func(CoreID) CoreID) *Program {
	out := NewProgram()
	for id, stream := range p.streams {
		nid := f(id)
		ns := make([]Instr, len(stream))
		for i, in := range stream {
			if in.Op == OpSend || in.Op == OpRecv {
				in.Peer = f(in.Peer)
			}
			ns[i] = in
		}
		out.streams[nid] = ns
	}
	return out
}
