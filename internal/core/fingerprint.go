package core

import (
	"encoding/binary"
	"math"

	"github.com/vnpu-sim/vnpu/internal/mem"
)

// TimingFingerprint hashes everything about this vNPU that shapes the
// cycle timeline of a program executed on it inside a private timing
// domain: the chip's timing configuration, the physical node per virtual
// core (routing and per-link contention follow from positions), each
// core's heterogeneous kind, the routing policy (confined vs DOR), the
// memory-virtualization mode and its translator parameters, the guest
// memory layout (base, size, backing blocks — the RTT rows), the HBM
// port shape (channel subset, bandwidth cap) and the KV reservation.
//
// Two vNPUs with equal fingerprints running equal programs for equal
// iteration counts produce byte-identical npu.Results, because domain
// execution is deterministic and starts from freshly reset private
// calendars (PR 9's cycle-identity property). That is the contract the
// memoizing timing backend keys on. The vNPU's identity (VMID) is not
// folded, and every vNPU shares one guest VA base, so a fresh vNPU shares
// entries with an earlier one only when it holds the same cores, channels
// and physical blocks; in practice entries are shared by reuse of one
// resident vNPU.
//
// The geometry is immutable after creation (nodes, blocks, ports and
// translators are fixed by the hypervisor), so the hash is cached.
func (v *VNPU) TimingFingerprint() uint64 {
	v.fpOnce.Do(func() { v.fp = v.timingFingerprint() })
	return v.fp
}

func (v *VNPU) timingFingerprint() uint64 {
	h := fpHasher{h: 14695981039346656037}
	h.fold(0x766e7075, v.dev.TimingFingerprint(), uint64(len(v.nodes))) // "vnpu"
	flags := uint64(0)
	if v.confined {
		flags |= 1
	}
	if v.interfering {
		flags |= 2
	}
	h.fold(flags, uint64(v.translation), v.memBase, v.memBytes, uint64(v.kvBytes))
	for _, b := range v.blocks {
		h.fold(b.va, b.pa, b.size)
	}
	if v.port != nil {
		h.fold(v.port.TimingFingerprint())
	}
	for _, node := range v.nodes {
		h.fold(uint64(node))
		c, err := v.dev.Core(node)
		if err != nil {
			continue
		}
		h.fold(uint64(len(c.Kind())))
		h.foldBytes([]byte(c.Kind()))
		// The translator's parameters change DMA stall timing; its mapping
		// content derives from blocks, already folded above.
		switch t := c.Translator().(type) {
		case *mem.RangeTranslator:
			h.fold(1)
		case *mem.PageTranslator:
			h.fold(2, uint64(t.Entries), uint64(t.WalkCycles), uint64(t.Streams),
				math.Float64bits(t.PrefetchFactor))
		default:
			h.fold(3)
		}
	}
	return h.h
}

type fpHasher struct{ h uint64 }

func (f *fpHasher) fold(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		f.foldBytes(buf[:])
	}
}

func (f *fpHasher) foldBytes(bs []byte) {
	for _, b := range bs {
		f.h = (f.h ^ uint64(b)) * 1099511628211
	}
}
