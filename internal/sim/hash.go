package sim

// FoldU64 is FNV-1a over a sequence of uint64 words, low byte first. The
// hardware models hash their timing parameters with it, so equal
// fingerprints mean equal timelines for equal request sequences.
func FoldU64(vs ...uint64) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	return h
}
