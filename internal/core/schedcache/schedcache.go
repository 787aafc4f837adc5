// Package schedcache memoizes the expensive artifact of the off-line phase:
// the canonical per-section list schedules (paper §3.2). One cache entry
// holds everything a section's two canonical list schedules produce —
// dispatch orders, worst-case finish times, speculative remainders and the
// section lengths — keyed by the section's structural digest plus the
// parameters that reach the list scheduler (processor count, maximum
// frequency, overhead pad). The same (section, m, f_max, pad) problem is
// therefore scheduled once per process, no matter how many times
// core.NewPlan recompiles the surrounding application: experiment grids over
// load, processor-sizing probes, serve-layer plan-cache misses on equivalent
// graphs and the CLV ablations all collapse onto one computation.
//
// The cache is sharded (16 ways, key-hash selected) so concurrent compiles
// contend on different locks, size-bounded per shard with LRU eviction, and
// safe for concurrent use. Values are immutable after Put: readers share the
// stored Schedule without copying, which is sound because the off-line phase
// only ever reads it back.
package schedcache

import (
	"container/list"
	"encoding/binary"
	"sync"
	"sync/atomic"

	"andorsched/internal/andor"
)

// Key identifies one canonical section-scheduling problem. Two keys are
// equal exactly when the off-line phase would feed the simulation engine
// bit-identical inputs: the section digest covers structure, execution
// times and tie-break order; Procs, FMaxBits and PadBits cover the
// scheduling parameters. The platform and the power-management overheads
// enter only through f_max and the pad — the canonical schedules run at
// maximum speed with overheads disabled, so nothing else of either can
// influence the result, and platforms sharing f_max share entries.
type Key struct {
	// Section is the structural digest (andor.Section.Digest).
	Section andor.SectionDigest
	// Procs is the processor count m.
	Procs int
	// FMaxBits is math.Float64bits of the platform's maximum frequency
	// (the reference rate Hetero.RefFmax on heterogeneous platforms).
	FMaxBits uint64
	// PadBits is math.Float64bits of the per-task overhead pad
	// (power.Overheads.PadTimeHetero).
	PadBits uint64
	// Hetero identifies the processor mix and the placement policy the
	// canonical schedules were built with: power.Hetero.Key() plus the
	// placement name. Empty for identical-processor keys. Unlike the
	// homogeneous parameters, the whole mix matters — per-class speeds,
	// power tables and counts all shape a heterogeneous canonical
	// schedule — so the platform's content hash is the only safe
	// discriminator.
	Hetero string
	// ClassBits folds the section's per-task class affinities (`@class`
	// tags resolved to class indices) into the key. The section digest
	// deliberately omits class tags — homogeneous schedules ignore them —
	// so without this, two graphs differing only in pinning would collide
	// on one heterogeneous entry. Zero on identical-processor keys.
	ClassBits uint64
}

// Schedule is one cached canonical section schedule. All slices are indexed
// by the section's local task index (the Section.Nodes order). A Schedule
// stored in a Cache is immutable: neither the cache's owner nor readers may
// modify it afterwards.
type Schedule struct {
	// LenW and LenA are the worst- and average-case canonical schedule
	// lengths (the paper's per-section PMP inputs).
	LenW, LenA float64
	// Order[i] is task i's canonical dispatch order.
	Order []int
	// FinishW[i] is task i's finish time in the worst-case canonical
	// schedule (the pre-shift latest finish time).
	FinishW []float64
	// SpecRemain[i] is the average-case canonical time from task i's
	// dispatch to the section end (the per-PMP speculation statistic).
	SpecRemain []float64
	// Classes[i] is the processor class task i's canonical schedule ran it
	// on (sim.Task.CanonClass) — the class the online phase pins the task
	// to. Nil on identical-processor entries.
	Classes []int
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries dropped
	// by the per-shard LRU bound.
	Hits, Misses, Evictions uint64
	// Size is the current number of cached schedules across all shards.
	Size int
	// Capacity is the configured bound across all shards.
	Capacity int
}

const numShards = 16

// Cache is a sharded, size-bounded, concurrency-safe schedule cache.
// The zero value is not usable; construct with New.
type Cache struct {
	shards   [numShards]shard
	capPer   int
	capacity int

	hits, misses, evictions atomic.Uint64
}

type shard struct {
	mu  sync.Mutex
	m   map[Key]*list.Element
	lru *list.List // of *entry, front = most recently used
}

type entry struct {
	key   Key
	sched *Schedule
}

// New returns a cache bounded to roughly capacity schedules (floored at one
// per shard, so the effective minimum is 16).
func New(capacity int) *Cache {
	capPer := (capacity + numShards - 1) / numShards
	if capPer < 1 {
		capPer = 1
	}
	c := &Cache{capPer: capPer, capacity: capPer * numShards}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]*list.Element)
		c.shards[i].lru = list.New()
	}
	return c
}

// shardFor mixes the key into a shard index. The digest's first word is
// already uniform; the scalar parameters are folded in so that the same
// section at different m / f_max / pad spreads across shards.
func (c *Cache) shardFor(k Key) *shard {
	h := binary.LittleEndian.Uint64(k.Section[:8])
	h ^= uint64(k.Procs) * 0x9e3779b97f4a7c15
	h ^= k.FMaxBits * 0xbf58476d1ce4e5b9
	h ^= k.PadBits * 0x94d049bb133111eb
	h ^= k.ClassBits * 0xd6e8feb86659fd93
	for i := 0; i < len(k.Hetero); i++ {
		h = (h ^ uint64(k.Hetero[i])) * 0x100000001b3
	}
	h ^= h >> 33
	return &c.shards[h%numShards]
}

// Get returns the schedule cached under k, if any, marking it recently
// used. The returned Schedule is shared and must not be modified.
func (c *Cache) Get(k Key) (*Schedule, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	el, ok := s.m[k]
	if ok {
		s.lru.MoveToFront(el)
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*entry).sched, true
}

// Put stores sched under k, evicting least-recently-used entries beyond the
// shard bound. sched must not be modified after Put. Concurrent Puts of the
// same key are benign: the values are deterministic functions of the key,
// so whichever copy lands is interchangeable with the rest.
func (c *Cache) Put(k Key, sched *Schedule) {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.m[k]; ok {
		// Keep the existing, already-shared value; just refresh recency.
		s.lru.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.m[k] = s.lru.PushFront(&entry{key: k, sched: sched})
	var evicted uint64
	for s.lru.Len() > c.capPer {
		back := s.lru.Back()
		delete(s.m, back.Value.(*entry).key)
		s.lru.Remove(back)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len returns the number of cached schedules.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters. Hits/misses/evictions are monotonic; Size
// is instantaneous.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Size:      c.Len(),
		Capacity:  c.capacity,
	}
}
