package topo

import "math/bits"

// bitset is a fixed-width bit vector over dense node positions. The
// candidate enumerators use it so their inner loops (membership tests,
// exclusive-neighbor checks, frontier bookkeeping) run on machine words
// instead of hash maps — the dominant constant factor of a mapping miss.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)       { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitset) clear(i int)     { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b bitset) test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// intersects reports whether b and o share any set bit.
func (b bitset) intersects(o bitset) bool {
	for i, w := range b {
		if w&o[i] != 0 {
			return true
		}
	}
	return false
}

// intersectCount counts the bits set in both b and o.
func (b bitset) intersectCount(o bitset) int {
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// orAndNot sets b |= (x & y) &^ z, the frontier-growth update.
func (b bitset) orAndNot(x, y, z bitset) {
	for i := range b {
		b[i] |= (x[i] & y[i]) &^ z[i]
	}
}

func (b bitset) any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// min returns the lowest set position (-1 when empty).
func (b bitset) min() int {
	for i, w := range b {
		if w != 0 {
			return i<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// max returns the highest set position (-1 when empty).
func (b bitset) max() int {
	for i := len(b) - 1; i >= 0; i-- {
		if w := b[i]; w != 0 {
			return i<<6 + 63 - bits.LeadingZeros64(w)
		}
	}
	return -1
}

// forEach calls fn for every set position in ascending order; fn
// returning false stops the scan.
func (b bitset) forEach(fn func(i int) bool) {
	for wi, w := range b {
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if !fn(i) {
				return
			}
			w &= w - 1
		}
	}
}
