package core

import (
	"fmt"
	"sort"

	"github.com/vnpu-sim/vnpu/internal/isa"
	"github.com/vnpu-sim/vnpu/internal/noc"
	"github.com/vnpu-sim/vnpu/internal/topo"
)

// NoCTableEntry is one row of a core's NoC routing table (Fig 5): the
// destination virtual core, its physical core, and the direction the
// local router must forward packets for that destination — NULL when the
// default dimension-order route applies.
type NoCTableEntry struct {
	VCore     isa.CoreID
	PCore     topo.NodeID
	Direction noc.Direction
}

// String renders the entry like Fig 5's table rows.
func (e NoCTableEntry) String() string {
	return fmt.Sprintf("v=%d p=%d dir=%s", e.VCore, e.PCore, e.Direction)
}

// nocEntryBits is the meta-zone cost of one NoC table entry: 8-bit vID,
// 8-bit pID, 3-bit direction, valid bit.
const nocEntryBits = 20

// NoCTable is the per-core table stored in the core's meta zone. It is
// derived from the vNPU's routing state and read by the send/receive
// engine's vRouter when rewriting destinations (§4.1.2).
type NoCTable struct {
	Core    topo.NodeID
	Entries []NoCTableEntry
}

// SizeBits reports the table's meta-zone footprint.
func (t NoCTable) SizeBits() int { return len(t.Entries) * nocEntryBits }

// NoCTableFor materializes the NoC routing table of one virtual core: one
// entry per destination, with an explicit first-hop direction when the
// vNPU uses confined routing and the confined route departs from the
// dimension-order default.
func (v *VNPU) NoCTableFor(vcore isa.CoreID) (NoCTable, error) {
	src, err := v.rt.Lookup(vcore)
	if err != nil {
		return NoCTable{}, err
	}
	table := NoCTable{Core: src}
	for _, dstV := range v.rt.VirtualCores() {
		if dstV == vcore {
			continue
		}
		dstP, err := v.rt.Lookup(dstV)
		if err != nil {
			return NoCTable{}, err
		}
		entry := NoCTableEntry{VCore: dstV, PCore: dstP, Direction: noc.DirNone}
		r, err := v.route(src, dstP)
		if err != nil {
			return NoCTable{}, err
		}
		if path := r.Nodes(); len(path) >= 2 {
			dirs, err := noc.PathDirections(v.dev.Graph(), path[:2])
			if err != nil {
				return NoCTable{}, err
			}
			// Record an explicit direction only when it overrides DOR —
			// the optimization that keeps regular-topology tables empty.
			dor, derr := v.dev.NoC().DOR(src, dstP)
			if derr != nil || len(dor.Nodes()) < 2 || dor.Nodes()[1] != path[1] {
				entry.Direction = dirs[0]
			}
		}
		table.Entries = append(table.Entries, entry)
	}
	sort.Slice(table.Entries, func(i, j int) bool {
		return table.Entries[i].VCore < table.Entries[j].VCore
	})
	return table, nil
}

// NoCMetaBits reports the total meta-zone bits all cores' NoC tables
// occupy — part of the Fig 19 accounting.
func (v *VNPU) NoCMetaBits() (int, error) {
	total := 0
	for _, vc := range v.rt.VirtualCores() {
		t, err := v.NoCTableFor(vc)
		if err != nil {
			return 0, err
		}
		total += t.SizeBits()
	}
	return total, nil
}
