package andor

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sort"
)

// SectionDigest is a structural fingerprint of a program section: two
// sections with equal digests present the off-line phase with bit-identical
// scheduling problems. It covers everything the canonical list scheduler
// consumes — each node's kind, WCET and ACET, the intra-section dependence
// edges (as local indices), and the relative order of node IDs (the
// longest-task-first tie-break) — and deliberately nothing else: names,
// absolute node IDs and inter-graph position do not enter, so the digest is
// stable across graph re-parses, clones and loop expansion.
type SectionDigest [sha256.Size]byte

// Digest computes the section's structural fingerprint. It is deterministic
// and depends only on the section's scheduling-relevant content (see
// SectionDigest). Zero-length sections all share the zero problem and hash
// to the same digest. The result is memoized on the (immutable) section.
func (s *Section) Digest() SectionDigest {
	if d := s.digest.Load(); d != nil {
		return *d
	}
	d := s.computeDigest()
	s.digest.Store(&d)
	return d
}

func (s *Section) computeDigest() SectionDigest {
	return sha256.Sum256(s.digestInput())
}

// digestInput is the byte string the digest hashes, in a buffer sized to
// fit it exactly.
func (s *Section) digestInput() []byte {
	// Local index of each member node, in Nodes order (the order the
	// off-line phase enumerates tasks in).
	local := make(map[*Node]int, len(s.Nodes))
	for i, n := range s.Nodes {
		local[n] = i
	}
	// Rank of each node's ID within the section. The canonical scheduler
	// breaks priority ties by node ID; only the relative order matters, so
	// hashing ranks instead of raw IDs keeps the digest stable when the
	// same structure appears at different ID offsets.
	idRank := make([]int, len(s.Nodes))
	byID := make([]int, len(s.Nodes))
	for i := range byID {
		byID[i] = i
	}
	sort.Slice(byID, func(a, b int) bool { return s.Nodes[byID[a]].ID < s.Nodes[byID[b]].ID })
	for rank, i := range byID {
		idRank[i] = rank
	}

	// Six words per node plus one per in-section edge end: two per edge,
	// once among the head's successors and once among the tail's
	// predecessors.
	words := 1 + 6*len(s.Nodes)
	for _, n := range s.Nodes {
		for _, m := range n.succ {
			if _, ok := local[m]; ok {
				words += 2
			}
		}
	}
	buf := make([]byte, 0, 8*words)
	u64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	u64(uint64(len(s.Nodes)))
	for i, n := range s.Nodes {
		u64(uint64(n.Kind))
		u64(wcetBits(n))
		u64(acetBits(n))
		u64(uint64(idRank[i]))
		// Intra-section edges only: predecessors outside the section are
		// Or entries the barrier discipline satisfies implicitly, exactly
		// as the off-line phase treats them.
		buf = appendLocalEdges(buf, local, n.pred)
		buf = appendLocalEdges(buf, local, n.succ)
	}
	return buf
}

// wcetBits and acetBits return the exact IEEE-754 bit patterns the off-line
// phase consumes, so the digest distinguishes values that differ only in the
// last ulp (the cache contract is bit-identical schedules, not approximately
// equal ones). Non-compute nodes contribute fixed zeros.
func wcetBits(n *Node) uint64 {
	if n.Kind != Compute {
		return 0
	}
	return math.Float64bits(n.WCET)
}

func acetBits(n *Node) uint64 {
	if n.Kind != Compute {
		return 0
	}
	return math.Float64bits(n.ACET)
}

// appendLocalEdges appends the count and local indices of the edge
// endpoints that lie inside the section, in declaration order.
func appendLocalEdges(buf []byte, local map[*Node]int, nodes []*Node) []byte {
	cnt := 0
	for _, m := range nodes {
		if _, ok := local[m]; ok {
			cnt++
		}
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(cnt))
	for _, m := range nodes {
		if j, ok := local[m]; ok {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(j))
		}
	}
	return buf
}
