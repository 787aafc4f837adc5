package power

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// Class is one processor class of a heterogeneous platform: some number of
// identical processors sharing a DVS table and a speed multiplier.
//
// Speed models microarchitectural throughput (IPC, specialized datapaths):
// a class running at level frequency f retires work at the effective rate
// Speed·f cycles per second, while paying the power P(f) of its own table.
// An accelerator is a class with Speed > 1; a little core is a class with a
// low-voltage table and/or Speed < 1. The identical platforms of the paper
// are the degenerate single class with Speed == 1.
type Class struct {
	// Name labels the class in reports and is the target of `@class`
	// affinity tags in .andor workloads.
	Name string
	// Count is the number of processors of this class (≥ 1).
	Count int
	// Plat is the class's own DVS table: its f_max, its P(f) curve, its
	// idle fraction.
	Plat *Platform
	// Speed is the work-throughput multiplier (> 0). Effective execution
	// rate at level frequency f is Speed·f.
	Speed float64

	// Derived by NewHetero, read on every engine dispatch.
	effFmax, energyPerCycle float64
	rates                   []float64 // Speed·f per level
	first                   int       // index of the class's first processor
}

// EffFmax returns the class's maximal effective execution rate in cycles
// per second: Speed · f_max. Like EnergyPerCycle it is computed once by
// NewHetero and is only meaningful on a platform's own classes.
func (c *Class) EffFmax() float64 { return c.effFmax }

// EnergyPerCycle returns the minimal achievable energy per unit of work on
// this class: min over levels of P(f)/(Speed·f) = C_ef·V²/Speed at the
// lowest-voltage level. It is what an energy-greedy placement compares.
func (c *Class) EnergyPerCycle() float64 { return c.energyPerCycle }

// Rate returns the effective execution rate at level i in cycles per
// second: Speed · f_i.
func (c *Class) Rate(i int) float64 { return c.rates[i] }

// Procs returns the class's processor index range [first, end): processors
// are numbered class-major, so each class owns a contiguous block.
func (c *Class) Procs() (first, end int) { return c.first, c.first + c.Count }

// derive fills the class's cached properties.
func (c *Class) derive(first int) {
	c.first = first
	c.effFmax = c.Speed * c.Plat.Max().Freq
	c.energyPerCycle = math.Inf(1)
	c.rates = make([]float64, c.Plat.NumLevels())
	for i, l := range c.Plat.Levels() {
		c.rates[i] = c.Speed * l.Freq
		if e := c.Plat.Power(l) / c.rates[i]; e < c.energyPerCycle {
			c.energyPerCycle = e
		}
	}
}

// Hetero describes a heterogeneous multiprocessor platform as an ordered
// list of processor classes. Processors are numbered class-major: class 0's
// processors first, then class 1's, and so on. Hetero values are immutable
// after construction.
type Hetero struct {
	// Name labels the platform in reports.
	Name string

	classes []Class
	procCls []int // per-processor class index, class-major
	ref     int   // index of the class with the highest EffFmax
}

// NewHetero validates the class list and builds a platform. Unlike
// NewPlatform, it returns errors rather than panicking: heterogeneous specs
// arrive from workload files and service requests, so bad values are
// runtime conditions, not programming errors.
func NewHetero(name string, classes []Class) (*Hetero, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("power: heterogeneous platform %q is empty: needs at least one processor class", name)
	}
	h := &Hetero{Name: name, classes: append([]Class(nil), classes...)}
	procs := 0
	for _, c := range classes {
		procs += max(c.Count, 0)
	}
	h.procCls = make([]int, 0, procs)
	for i := range h.classes {
		c := &h.classes[i]
		if c.Name == "" {
			c.Name = fmt.Sprintf("class%d", i)
		}
		if c.Count < 1 {
			return nil, fmt.Errorf("power: class %q has no processors (count %d): each class needs at least one", c.Name, c.Count)
		}
		if c.Speed <= 0 || math.IsNaN(c.Speed) || math.IsInf(c.Speed, 0) {
			return nil, fmt.Errorf("power: class %q has non-positive speed %g: per-processor speeds must be > 0", c.Name, c.Speed)
		}
		if c.Plat == nil {
			return nil, fmt.Errorf("power: class %q has no DVS table", c.Name)
		}
		for j := 0; j < i; j++ {
			if h.classes[j].Name == c.Name {
				return nil, fmt.Errorf("power: duplicate class name %q", c.Name)
			}
		}
		c.derive(len(h.procCls))
		for p := 0; p < c.Count; p++ {
			h.procCls = append(h.procCls, i)
		}
		if c.EffFmax() > h.classes[h.ref].EffFmax() {
			h.ref = i
		}
	}
	return h, nil
}

// Homogeneous wraps an identical-processor platform as the degenerate
// 1-class heterogeneous platform: m processors of one class at Speed 1 —
// the machine every identical-processor plan and engine run uses.
//
// The machine is built once per platform and processor count and shared by
// every later call: Hetero values are immutable.
func Homogeneous(p *Platform, m int) (*Hetero, error) {
	if p == nil {
		return nil, fmt.Errorf("power: Homogeneous needs a platform")
	}
	if p.homog == nil { // a Platform not made by NewPlatform
		return NewHetero(p.Name, []Class{{Name: "cpu", Count: m, Plat: p, Speed: 1}})
	}
	p.homog.mu.Lock()
	defer p.homog.mu.Unlock()
	if h, ok := p.homog.m[m]; ok {
		return h, nil
	}
	h, err := NewHetero(p.Name, []Class{{Name: "cpu", Count: m, Plat: p, Speed: 1}})
	if err != nil {
		return nil, err
	}
	if p.homog.m == nil {
		p.homog.m = make(map[int]*Hetero)
	}
	p.homog.m[m] = h
	return h, nil
}

// NumProcs returns the total processor count across all classes.
func (h *Hetero) NumProcs() int { return len(h.procCls) }

// NumClasses returns the number of processor classes.
func (h *Hetero) NumClasses() int { return len(h.classes) }

// Class returns the i-th class. The result is owned by the platform.
func (h *Hetero) Class(i int) *Class { return &h.classes[i] }

// ClassOf returns the class index of processor p (class-major numbering).
func (h *Hetero) ClassOf(p int) int { return h.procCls[p] }

// ClassIndex returns the index of the class with the given name, or -1.
func (h *Hetero) ClassIndex(name string) int {
	for i := range h.classes {
		if h.classes[i].Name == name {
			return i
		}
	}
	return -1
}

// RefFmax returns the platform's reference execution rate: the maximal
// effective rate Speed·f_max over all classes. Task work is measured in
// cycles at this rate — a task with WCET w seconds carries w·RefFmax cycles
// of worst-case work, and only the fastest class can retire it in w
// seconds.
func (h *Hetero) RefFmax() float64 { return h.classes[h.ref].EffFmax() }

// MaxLevels returns the largest DVS-table size over all classes.
func (h *Hetero) MaxLevels() int {
	n := 0
	for i := range h.classes {
		if l := h.classes[i].Plat.NumLevels(); l > n {
			n = l
		}
	}
	return n
}

// Key returns a content-addressed digest of the platform: identical specs
// (classes, counts, speeds, DVS tables, capacitances, idle fractions —
// names excluded) yield identical keys. Plan caches use it so compiled
// plans never cross platforms.
func (h *Hetero) Key() string {
	hash := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		hash.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(len(h.classes)))
	for i := range h.classes {
		c := &h.classes[i]
		u64(uint64(c.Count))
		f64(c.Speed)
		f64(c.Plat.Cef)
		f64(c.Plat.IdleFrac)
		u64(uint64(c.Plat.NumLevels()))
		for _, l := range c.Plat.Levels() {
			f64(l.Freq)
			f64(l.Volt)
		}
	}
	return "hetero:" + hex.EncodeToString(hash.Sum(nil))
}

// PadTimeHetero returns the per-task worst-case allowance the off-line phase
// reserves so that power management costs can never cause a deadline miss:
// the largest, over all classes, of one worst-case speed change plus one
// speed computation at the class's slowest effective rate. Inflating each
// task's WCET by this amount in the canonical schedules guarantees that, at
// run time, paying the overheads still leaves at least the task's true WCET
// of budget (see internal/core).
func (o Overheads) PadTimeHetero(h *Hetero) float64 {
	worst := 0.0
	for i := 0; i < h.NumClasses(); i++ {
		c := h.Class(i)
		if p := o.MaxChangeTime(c.Plat) + o.CompTime(c.Plat.Min().Freq*c.Speed); p > worst {
			worst = p
		}
	}
	return worst
}

// mustHetero builds a reference platform from static data; errors are
// programming errors.
func mustHetero(name string, classes []Class) *Hetero {
	h, err := NewHetero(name, classes)
	if err != nil {
		panic(err)
	}
	return h
}

// littleCore is the low-voltage DVS table of the BigLittle reference
// platform: 100–400 MHz at 0.70–1.05 V. Its minimal energy per cycle
// (C_ef·0.70²) is 2.5× below the big cores' (C_ef·1.10²).
func littleCore() *Platform {
	const n = 8
	levels := make([]Level, n)
	for i := 0; i < n; i++ {
		frac := float64(i) / float64(n-1)
		levels[i] = MHz(100+frac*300, 0.70+frac*0.35)
	}
	return NewPlatform("LittleCore", levels)
}

// SymmetricHetero returns the first reference platform: m identical
// Transmeta TM5400 processors as one class — the paper's own configuration
// expressed in the heterogeneous model.
func SymmetricHetero(m int) *Hetero {
	return mustHetero("symmetric", []Class{
		{Name: "cpu", Count: m, Plat: Transmeta5400(), Speed: 1},
	})
}

// BigLittle returns the second reference platform: two full-speed Transmeta
// cores plus two low-voltage little cores at 100–400 MHz. Little cores are
// slower (EffFmax 400 MHz vs 700 MHz) but far cheaper per cycle of work, so
// an energy-greedy placement that proves a task's deadline feasible on a
// little core saves energy over fastest-first.
func BigLittle() *Hetero {
	return mustHetero("big.LITTLE", []Class{
		{Name: "big", Count: 2, Plat: Transmeta5400(), Speed: 1},
		{Name: "little", Count: 2, Plat: littleCore(), Speed: 1},
	})
}

// AccelOffload returns the third reference platform: two general-purpose
// Transmeta cores plus one accelerator class — a narrow DVS table at
// moderate voltage with a 4× throughput multiplier, modeling a specialized
// datapath. Tasks tagged `@accel` in a workload are steered to it by the
// class-affinity placement.
func AccelOffload() *Hetero {
	return mustHetero("accel-offload", []Class{
		{Name: "cpu", Count: 2, Plat: Transmeta5400(), Speed: 1},
		{Name: "accel", Count: 1, Speed: 4, Plat: NewPlatform("Accel", []Level{
			MHz(300, 1.00),
			MHz(400, 1.10),
			MHz(500, 1.20),
		})},
	})
}

// ReferenceHetero resolves a reference heterogeneous platform by name:
// "symmetric" (4× Transmeta), "biglittle", or "accel".
func ReferenceHetero(name string) (*Hetero, error) {
	switch name {
	case "symmetric":
		return SymmetricHetero(4), nil
	case "biglittle", "big.LITTLE":
		return BigLittle(), nil
	case "accel", "accel-offload":
		return AccelOffload(), nil
	}
	return nil, fmt.Errorf("power: unknown reference heterogeneous platform %q (want symmetric, biglittle or accel)", name)
}

// HeteroSpec is the JSON wire form of a heterogeneous platform, accepted by
// the -platform flag (as a file) and the /v1 request schema (inline).
type HeteroSpec struct {
	Name    string      `json:"name,omitempty"`
	Classes []ClassSpec `json:"classes"`
}

// ClassSpec is one class of a HeteroSpec. Exactly one of Platform (a named
// homogeneous table: "transmeta" or "xscale") or Levels must be given.
type ClassSpec struct {
	Name     string      `json:"name,omitempty"`
	Count    int         `json:"count"`
	Speed    *float64    `json:"speed,omitempty"` // default 1; must be > 0 when given
	Platform string      `json:"platform,omitempty"`
	Levels   []LevelSpec `json:"levels,omitempty"`
	Cef      float64     `json:"cef,omitempty"`
	IdleFrac *float64    `json:"idle_frac,omitempty"`
}

// LevelSpec is one DVS operating point of a ClassSpec.
type LevelSpec struct {
	MHz  float64 `json:"mhz"`
	Volt float64 `json:"volt"`
}

// Spec caps keep adversarial inputs (fuzzing, the public /v1 schema) from
// allocating unbounded platforms.
const (
	maxSpecClasses = 64
	maxSpecLevels  = 256
	maxSpecProcs   = 4096
)

// ParseHeteroSpec decodes and validates a heterogeneous platform spec. The
// input is either a JSON string naming a reference platform ("symmetric",
// "biglittle", "accel") or a HeteroSpec object. Unknown fields are
// rejected.
func ParseHeteroSpec(data []byte) (*Hetero, error) {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		return ReferenceHetero(name)
	}
	var spec HeteroSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("power: bad platform spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("power: bad platform spec: trailing data after JSON object")
	}
	return spec.Build()
}

// Build validates the spec and constructs the platform.
func (s *HeteroSpec) Build() (*Hetero, error) {
	if len(s.Classes) > maxSpecClasses {
		return nil, fmt.Errorf("power: platform spec has %d classes (max %d)", len(s.Classes), maxSpecClasses)
	}
	name := s.Name
	if name == "" {
		name = "custom"
	}
	procs := 0
	classes := make([]Class, 0, len(s.Classes))
	for i, cs := range s.Classes {
		cname := cs.Name
		if cname == "" {
			cname = fmt.Sprintf("class%d", i)
		}
		if cs.Count > maxSpecProcs {
			return nil, fmt.Errorf("power: class %q count %d exceeds max %d", cname, cs.Count, maxSpecProcs)
		}
		procs += cs.Count
		if procs > maxSpecProcs {
			return nil, fmt.Errorf("power: platform spec has more than %d processors", maxSpecProcs)
		}
		// An explicit "speed": 0 is a spec error, not a request for the
		// default: only an absent field means Speed 1 (NewHetero rejects
		// the zero below with a targeted message).
		speed := 1.0
		if cs.Speed != nil {
			speed = *cs.Speed
		}
		plat, err := cs.table(cname)
		if err != nil {
			return nil, err
		}
		if cs.Cef != 0 {
			if cs.Cef < 0 || math.IsNaN(cs.Cef) || math.IsInf(cs.Cef, 0) {
				return nil, fmt.Errorf("power: class %q has non-positive cef %g", cname, cs.Cef)
			}
			plat = plat.WithCef(cs.Cef)
		}
		if cs.IdleFrac != nil {
			f := *cs.IdleFrac
			if f < 0 || f > 1 || math.IsNaN(f) {
				return nil, fmt.Errorf("power: class %q idle_frac %g outside [0,1]", cname, f)
			}
			plat = plat.WithIdleFrac(f)
		}
		classes = append(classes, Class{Name: cname, Count: cs.Count, Plat: plat, Speed: speed})
	}
	return NewHetero(name, classes)
}

// table resolves the class's DVS table from either the named platform or
// the explicit level list, validating spec-supplied levels (NewPlatform
// panics on bad data; spec data must error instead).
func (cs *ClassSpec) table(cname string) (*Platform, error) {
	if cs.Platform != "" {
		if len(cs.Levels) != 0 {
			return nil, fmt.Errorf("power: class %q gives both a named platform and explicit levels", cname)
		}
		switch cs.Platform {
		case "transmeta":
			return Transmeta5400(), nil
		case "xscale":
			return IntelXScale(), nil
		}
		return nil, fmt.Errorf("power: class %q names unknown platform %q (want transmeta or xscale)", cname, cs.Platform)
	}
	if len(cs.Levels) == 0 {
		return nil, fmt.Errorf("power: class %q has no DVS levels and no named platform", cname)
	}
	if len(cs.Levels) > maxSpecLevels {
		return nil, fmt.Errorf("power: class %q has %d levels (max %d)", cname, len(cs.Levels), maxSpecLevels)
	}
	levels := make([]Level, len(cs.Levels))
	seen := make(map[float64]bool, len(cs.Levels))
	for i, ls := range cs.Levels {
		if ls.MHz <= 0 || ls.Volt <= 0 || math.IsNaN(ls.MHz) || math.IsNaN(ls.Volt) ||
			math.IsInf(ls.MHz, 0) || math.IsInf(ls.Volt, 0) {
			return nil, fmt.Errorf("power: class %q level %d has non-positive frequency/voltage", cname, i)
		}
		if seen[ls.MHz] {
			return nil, fmt.Errorf("power: class %q has duplicate frequency %gMHz", cname, ls.MHz)
		}
		seen[ls.MHz] = true
		levels[i] = MHz(ls.MHz, ls.Volt)
	}
	return NewPlatform(cname, levels), nil
}
