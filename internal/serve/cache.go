package serve

import (
	"crypto/sha256"

	"andorsched/internal/andor"
	"andorsched/internal/power"
)

// cacheKey identifies one off-line compilation: the application (by a
// canonical content hash), the platform (by its spec string), the
// processor count, and the power-management overheads. Two requests with
// the same key share one Plan. A heterogeneous request instead carries the
// platform's content hash (power.Hetero.Key — a reference name and its
// spelled-out spec collapse onto one entry) plus the placement policy,
// which is a plan parameter; platform and procs stay zero there.
type cacheKey struct {
	graph     [sha256.Size]byte
	platform  string
	procs     int
	hetero    string
	placement string
	ov        power.Overheads
}

// graphDigest hashes a graph's canonical text rendering. FormatText is
// deterministic (nodes and edges in ID order), so structurally identical
// submissions — whether they arrived as JSON, .andor text or a named
// workload — collapse onto one digest.
func graphDigest(g *andor.Graph) [sha256.Size]byte {
	return sha256.Sum256([]byte(andor.FormatText(g)))
}
