package metrics

import "time"

// PlacementStats is a snapshot of the placement engine's serving counters:
// how often candidate scoring was answered from the mapping cache, how much
// the cache churned, and how long placement decisions took. The placement
// engine (internal/place) fills it; serving front-ends expose it and
// cmd/vnpuserve prints it in the end-of-run report.
type PlacementStats struct {
	// Placements counts placement decisions (one per dispatch attempt,
	// covering every chip considered).
	Placements uint64
	// CacheHits counts per-chip mapping resolutions answered from the
	// cache (including resolutions that joined an in-flight computation).
	CacheHits uint64
	// CacheMisses counts per-chip mapping resolutions that had to run the
	// topology mapper.
	CacheMisses uint64
	// CacheEvictions counts entries dropped to honor the cache capacity.
	CacheEvictions uint64
	// CacheSize is the number of entries resident at snapshot time.
	CacheSize int
	// PlaceTime is the cumulative wall-clock time spent in placement
	// decisions.
	PlaceTime time.Duration
	// MapTime is the cumulative wall-clock time spent inside the topology
	// mapper itself — the cost of the misses, whichever path (inline or
	// async worker) paid it.
	MapTime time.Duration
	// AsyncMaps counts mapping computations scheduled on the async mapper
	// workers for a dispatch-path miss (a Rank that parks its job).
	AsyncMaps uint64
}

// HitRate reports the fraction of mapping resolutions served from the
// cache (0 when nothing was resolved yet).
func (s PlacementStats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// AvgPlaceTime reports the mean wall-clock latency of one placement
// decision (0 before the first placement).
func (s PlacementStats) AvgPlaceTime() time.Duration {
	if s.Placements == 0 {
		return 0
	}
	return s.PlaceTime / time.Duration(s.Placements)
}

// AvgMapTime reports the mean wall-clock cost of one mapping miss — one
// run of the topology mapper (0 before the first miss).
func (s PlacementStats) AvgMapTime() time.Duration {
	if s.CacheMisses == 0 {
		return 0
	}
	return s.MapTime / time.Duration(s.CacheMisses)
}
