package andor

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"
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
	s.digestOnce.Do(func() { s.digest = s.computeDigest() })
	return s.digest
}

// computeDigest hashes the section's structure: the node count, then per
// node (in Nodes order, the order the off-line phase enumerates tasks in)
// its kind, WCET and ACET bits, the rank of its ID within the section, and
// the count and local indices of its in-section predecessors and then
// successors, every word a little-endian uint64. The words stream into the
// hash through a stack chunk; the in-section lookups run on the section's
// local indices sorted by node ID, on the stack for sections of up to 64
// nodes.
func (s *Section) computeDigest() SectionDigest {
	// byID holds the local indices sorted by node ID. A node's position in
	// it is the rank of its ID: the canonical scheduler breaks priority
	// ties by node ID, and only the relative order matters, so hashing
	// ranks instead of raw IDs keeps the digest stable when the same
	// structure appears at different ID offsets. Binary search by ID then
	// finds an edge end's local index, or reports it outside the section.
	var stack [64]int32
	byID := stack[:0]
	if len(s.Nodes) > len(stack) {
		byID = make([]int32, 0, len(s.Nodes))
	}
	for i := range s.Nodes {
		byID = append(byID, int32(i))
	}
	slices.SortFunc(byID, func(a, b int32) int { return cmp.Compare(s.Nodes[a].ID, s.Nodes[b].ID) })
	rank := func(n *Node) (int, bool) {
		k, found := slices.BinarySearchFunc(byID, n.ID, func(i int32, id int) int { return cmp.Compare(s.Nodes[i].ID, id) })
		return k, found && s.Nodes[byID[k]] == n
	}

	h := sha256.New()
	var chunk [512]byte
	used := 0
	u64 := func(v uint64) {
		if used == len(chunk) {
			h.Write(chunk[:])
			used = 0
		}
		binary.LittleEndian.PutUint64(chunk[used:], v)
		used += 8
	}
	u64(uint64(len(s.Nodes)))
	for _, n := range s.Nodes {
		r, _ := rank(n)
		u64(uint64(n.Kind))
		u64(wcetBits(n))
		u64(acetBits(n))
		u64(uint64(r))
		// Intra-section edges only: predecessors outside the section are
		// Or entries the barrier discipline satisfies implicitly, exactly
		// as the off-line phase treats them.
		for _, ends := range [2][]*Node{n.Preds(), n.Succs()} {
			cnt := 0
			for _, m := range ends {
				if _, in := rank(m); in {
					cnt++
				}
			}
			u64(uint64(cnt))
			for _, m := range ends {
				if k, in := rank(m); in {
					u64(uint64(byID[k]))
				}
			}
		}
	}
	h.Write(chunk[:used])
	var d SectionDigest
	h.Sum(d[:0])
	return d
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
