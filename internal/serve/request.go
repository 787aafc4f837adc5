package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"

	"andorsched/internal/andor"
	"andorsched/internal/cli"
	"andorsched/internal/core"
	"andorsched/internal/power"
	"andorsched/internal/sim"
	"andorsched/internal/workload"
)

// AppSpec describes the application and system configuration of a request.
// Exactly one of Graph, Text and Workload selects the application; the
// rest of the fields select the platform model.
type AppSpec struct {
	// Graph is an AND/OR graph in the andor JSON schema (see
	// graphtool -json).
	Graph json.RawMessage `json:"graph,omitempty"`
	// Text is an application in the .andor text format.
	Text string `json:"text,omitempty"`
	// Workload names a built-in application: "atr", "synthetic" or
	// "random[:seed]". File paths are deliberately not accepted over the
	// network.
	Workload string `json:"workload,omitempty"`
	// Platform is the DVS platform spec: "transmeta" (default), "xscale"
	// or "synthetic:N:fminMHz:fmaxMHz".
	Platform string `json:"platform,omitempty"`
	// Procs is the processor count m (default 2).
	Procs int `json:"procs,omitempty"`
	// Hetero selects a heterogeneous platform instead of Platform/Procs:
	// either a JSON string naming a reference platform ("symmetric",
	// "biglittle", "accel") or a power.HeteroSpec object with per-class
	// speed/power tables. The spec carries its own processor counts, so
	// Hetero is mutually exclusive with Platform and Procs. The platform is
	// content-addressed into the plan-cache key.
	Hetero json.RawMessage `json:"hetero,omitempty"`
	// Placement names the placement policy compiled into a heterogeneous
	// plan: "fastest-first" (the default), "energy-greedy" or
	// "class-affinity". Only valid together with Hetero.
	Placement string `json:"placement,omitempty"`
	// Overheads overrides the paper's default power-management costs.
	Overheads *OverheadsSpec `json:"overheads,omitempty"`

	// rawText is the text of a body decodeRunFast decoded, unescaped into
	// a buffer the handler owns; Text is then empty. resolveApp hashes it
	// and copies it into a string only to parse it, so nothing outlives
	// the request aliasing the buffer.
	rawText []byte
}

// hasText reports whether the spec carries a text.
func (spec *AppSpec) hasText() bool { return spec.Text != "" || len(spec.rawText) > 0 }

// textSum is the text memo's key: the SHA-256 of the text.
func (spec *AppSpec) textSum() [sha256.Size]byte {
	if spec.rawText != nil {
		return sha256.Sum256(spec.rawText)
	}
	return textKey(spec.Text)
}

// textString returns the text, copying it out of rawText if it is there.
func (spec *AppSpec) textString() string {
	if spec.rawText != nil {
		return string(spec.rawText)
	}
	return spec.Text
}

// OverheadsSpec is the wire form of power.Overheads.
type OverheadsSpec struct {
	SpeedCompCycles float64 `json:"speed_comp_cycles"`
	SpeedChangeUs   float64 `json:"speed_change_us"`
	VoltSlewUsPerV  float64 `json:"volt_slew_us_per_volt"`
}

// RunRequest asks for one or more on-line executions of an application.
type RunRequest struct {
	AppSpec
	// Scheme is the power-management scheme name (default "GSS").
	Scheme string `json:"scheme,omitempty"`
	// Deadline is the absolute deadline in seconds; when 0, Load applies.
	Deadline float64 `json:"deadline,omitempty"`
	// Load is the system load CT_worst/D in (0,1] (default 0.5), used when
	// Deadline is 0.
	Load float64 `json:"load,omitempty"`
	// Seed drives actual execution times and OR branches (default 0). Run
	// i's stream is drawn from a master SplitMix64 sequence seeded here, so
	// a request is reproducible run by run from its seed alone.
	Seed uint64 `json:"seed,omitempty"`
	// Runs is the Monte-Carlo run count (default 1). Runs > 1 switches the
	// response to NDJSON streaming: one JSON row per run, then a summary.
	Runs int `json:"runs,omitempty"`
	// Chunks splits the Monte-Carlo loop across up to this many pool
	// workers (0 = automatic: large-run requests fan out across the pool,
	// small ones stay serial; 1 forces the serial path). Rows, their order
	// and the trailing summary are byte-identical for every chunk count:
	// per-run seeds are read off the master stream in O(1) by
	// exectime.SeedAt and summaries are reduced in run order. Capped at
	// Runs and at 64.
	Chunks int `json:"chunks,omitempty"`
	// Worst makes every task consume its full WCET (no sampling).
	Worst bool `json:"worst,omitempty"`
}

// CompareRequest asks for a common-random-numbers comparison of several
// schemes on one application.
type CompareRequest struct {
	AppSpec
	// Schemes lists scheme names; empty, or the single keyword "all",
	// means all nine (the paper's six plus CLV, ASP and ORA).
	Schemes []string `json:"schemes,omitempty"`
	// Deadline / Load: as in RunRequest.
	Deadline float64 `json:"deadline,omitempty"`
	Load     float64 `json:"load,omitempty"`
	// Runs is the number of frames per scheme (default 200).
	Runs int `json:"runs,omitempty"`
	// Chunks splits the comparison's frames across up to this many pool
	// workers (0 = automatic, 1 = serial; capped at Runs and at 64). The
	// response is byte-identical for every chunk count: per-frame CRN
	// seeds are read off the master stream in O(1) by exectime.SeedAt and
	// scheme statistics are reduced in frame order.
	Chunks int `json:"chunks,omitempty"`
	// Seed drives the common random numbers (default 0).
	Seed uint64 `json:"seed,omitempty"`
}

// PlanResponse summarizes a compiled plan. For a heterogeneous plan,
// Platform carries the heterogeneous platform's name, Levels the largest
// per-class DVS table, and Classes/Placement are set.
type PlanResponse struct {
	App         string  `json:"app"`
	Nodes       int     `json:"nodes"`
	Sections    int     `json:"sections"`
	Paths       int     `json:"paths"`
	Procs       int     `json:"procs"`
	Platform    string  `json:"platform"`
	Levels      int     `json:"levels"`
	Classes     int     `json:"classes,omitempty"`
	Placement   string  `json:"placement,omitempty"`
	CTWorst     float64 `json:"ct_worst_s"`
	CTAvg       float64 `json:"ct_avg_s"`
	MinDeadline float64 `json:"min_deadline_s"`
	Cached      bool    `json:"cached"`
}

// RunRow is one execution's result row.
type RunRow struct {
	Run          int     `json:"run"`
	Scheme       string  `json:"scheme"`
	DeadlineS    float64 `json:"deadline_s"`
	FinishS      float64 `json:"finish_s"`
	MetDeadline  bool    `json:"met_deadline"`
	EnergyJ      float64 `json:"energy_j"`
	ActiveJ      float64 `json:"active_j"`
	OverheadJ    float64 `json:"overhead_j"`
	IdleJ        float64 `json:"idle_j"`
	SpeedChanges int     `json:"speed_changes"`
	// ClassGrossJ and ClassIdleJ break the energy down per processor
	// class on heterogeneous platforms, indexed like the platform's class
	// list (gross = active + overhead). Absent for homogeneous runs.
	ClassGrossJ []float64 `json:"class_gross_j,omitempty"`
	ClassIdleJ  []float64 `json:"class_idle_j,omitempty"`
	Path        []int     `json:"path,omitempty"`
}

// RunSummary trails a streamed multi-run response.
type RunSummary struct {
	Summary        bool    `json:"summary"`
	Runs           int     `json:"runs"`
	Scheme         string  `json:"scheme"`
	DeadlineS      float64 `json:"deadline_s"`
	MeanEnergyJ    float64 `json:"mean_energy_j"`
	MeanFinishS    float64 `json:"mean_finish_s"`
	MaxFinishS     float64 `json:"max_finish_s"`
	DeadlineMisses int     `json:"deadline_misses"`
	LSTViolations  int     `json:"lst_violations"`
	SpeedChanges   int     `json:"speed_changes"`
	// MeanClassGrossJ and MeanClassIdleJ are the per-class means of the
	// rows' class energy breakdowns (heterogeneous platforms only).
	MeanClassGrossJ []float64 `json:"mean_class_gross_j,omitempty"`
	MeanClassIdleJ  []float64 `json:"mean_class_idle_j,omitempty"`
}

// CompareResponse reports per-scheme energies normalized to NPM under
// common random numbers.
type CompareResponse struct {
	App        string          `json:"app"`
	Runs       int             `json:"runs"`
	DeadlineS  float64         `json:"deadline_s"`
	NPMEnergyJ float64         `json:"npm_mean_energy_j"`
	Schemes    []CompareScheme `json:"schemes"`
}

// CompareScheme is one scheme's aggregate in a CompareResponse.
type CompareScheme struct {
	Scheme           string  `json:"scheme"`
	MeanNormEnergy   float64 `json:"mean_norm_energy"`
	CI95             float64 `json:"ci95"`
	MeanSpeedChanges float64 `json:"mean_speed_changes"`
	DeadlineMisses   int     `json:"deadline_misses"`
}

// apiError carries an HTTP status with a client-facing message.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *apiError {
	return &apiError{status: status, msg: fmt.Sprintf(format, args...)}
}

// maxGraphNodes bounds accepted applications; beyond this the off-line
// phase's cost stops being interactive and a request could occupy the
// compile path for seconds.
const maxGraphNodes = 20000

func checkGraphSize(g *andor.Graph) *apiError {
	if g.Len() > maxGraphNodes {
		return errf(http.StatusBadRequest, "graph has %d nodes, limit %d", g.Len(), maxGraphNodes)
	}
	return nil
}

// resolvedApp is resolveApp's output: the validated graph, the cache key,
// and — for heterogeneous requests — the parsed platform and the placement
// policy compiled into the plan. hp == nil means identical processors. A
// text request whose digest came from the text memo leaves g nil and
// keeps its spec, whose text parseDeferred parses; the spec outlives every
// use of the resolvedApp, which ends with the request.
type resolvedApp struct {
	g     *andor.Graph
	spec  *AppSpec
	key   cacheKey
	hp    *power.Hetero
	place sim.PlacementPolicy
}

// parseDeferred parses the text of a request resolved through the text
// memo, for the compile its plan-cache miss needs. The memo only holds
// texts that parsed, so the error return is defensive.
func (ra *resolvedApp) parseDeferred() *apiError {
	if ra.g != nil {
		return nil
	}
	g, err := andor.ParseText(ra.spec.textString())
	if err != nil {
		return errf(http.StatusBadRequest, "text: %v", err)
	}
	ra.g = g
	return nil
}

// resolveApp turns an AppSpec into a validated graph plus the cache-key
// ingredients. The graph digest comes from the canonical text rendering,
// so equivalent submissions in different encodings share a cache entry;
// heterogeneous platforms are content-addressed the same way (power.Key),
// so a reference name and its spelled-out spec share one entry too. A
// text seen before is keyed through the text memo without being parsed.
func (s *Server) resolveApp(spec *AppSpec) (resolvedApp, *apiError) {
	var ra resolvedApp
	key := &ra.key

	given := 0
	for _, ok := range []bool{len(spec.Graph) > 0, spec.hasText(), spec.Workload != ""} {
		if ok {
			given++
		}
	}
	if given == 0 {
		return ra, errf(http.StatusBadRequest, "one of graph, text or workload is required")
	}
	if given > 1 {
		return ra, errf(http.StatusBadRequest, "graph, text and workload are mutually exclusive")
	}

	switch {
	case len(spec.Graph) > 0:
		g := andor.NewGraph("")
		if err := json.Unmarshal(spec.Graph, g); err != nil {
			return ra, errf(http.StatusBadRequest, "graph: %v", err)
		}
		if err := g.Validate(); err != nil {
			return ra, errf(http.StatusBadRequest, "graph: %v", err)
		}
		if apiErr := checkGraphSize(g); apiErr != nil {
			return ra, apiErr
		}
		ra.g, key.graph = g, graphDigest(g)
	case spec.hasText():
		sum := spec.textSum()
		if digest, ok := s.texts.lookup(sum); ok {
			ra.spec, key.graph = spec, digest
			break
		}
		g, err := andor.ParseText(spec.textString())
		if err != nil {
			return ra, errf(http.StatusBadRequest, "text: %v", err)
		}
		if apiErr := checkGraphSize(g); apiErr != nil {
			return ra, apiErr
		}
		ra.g, key.graph = g, graphDigest(g)
		s.texts.insert(sum, key.graph)
	default:
		var err error
		ra.g, key.graph, err = memoBuiltinWorkload(spec.Workload)
		if err != nil {
			return ra, errf(http.StatusBadRequest, "%v", err)
		}
	}

	if len(spec.Hetero) > 0 {
		if spec.Platform != "" || spec.Procs != 0 {
			return ra, errf(http.StatusBadRequest,
				"hetero is mutually exclusive with platform and procs (the hetero spec carries its own processor counts)")
		}
		hp, err := power.ParseHeteroSpec(spec.Hetero)
		if err != nil {
			return ra, errf(http.StatusBadRequest, "hetero: %v", err)
		}
		if hp.NumProcs() > s.cfg.MaxProcs {
			return ra, errf(http.StatusBadRequest, "hetero platform has %d processors, limit %d",
				hp.NumProcs(), s.cfg.MaxProcs)
		}
		place, err := cli.ParsePlacement(spec.Placement)
		if err != nil {
			return ra, errf(http.StatusBadRequest, "%v", err)
		}
		ra.hp = hp
		ra.place = place
		key.hetero = hp.Key()
		key.placement = place.Name()
	} else if spec.Placement != "" {
		return ra, errf(http.StatusBadRequest, "placement requires a hetero platform")
	}

	procs := spec.Procs
	if procs == 0 {
		procs = 2
	}
	if procs < 1 || procs > s.cfg.MaxProcs {
		return ra, errf(http.StatusBadRequest, "procs %d outside [1, %d]", procs, s.cfg.MaxProcs)
	}

	platform := spec.Platform
	if platform == "" {
		platform = "transmeta"
	}
	if ra.hp == nil {
		if _, err := parsePlatformMemo(platform); err != nil {
			return ra, errf(http.StatusBadRequest, "%v", err)
		}
		key.platform = platform
		key.procs = procs
	}

	ov := power.DefaultOverheads()
	if o := spec.Overheads; o != nil {
		if o.SpeedCompCycles < 0 || o.SpeedChangeUs < 0 || o.VoltSlewUsPerV < 0 {
			return ra, errf(http.StatusBadRequest, "overheads must be non-negative")
		}
		ov = power.Overheads{
			SpeedCompCycles: o.SpeedCompCycles,
			SpeedChangeTime: o.SpeedChangeUs * 1e-6,
			VoltSlewTime:    o.VoltSlewUsPerV * 1e-6,
		}
	}

	key.ov = ov
	return ra, nil
}

// builtinMemo caches the graph and content digest of the fixed builtin
// workloads. Building the ATR graph costs ~400 allocations; doing that
// per request would dominate the steady-state /v1/run path, whose
// simulation is allocation-free. Graphs here are shared across requests,
// which is sound for the same reason cached Plans are: nothing mutates a
// graph after construction.
// The memo is an atomic.Pointer to an immutable map, republished
// copy-on-write on insert: the name space is tiny and fixed, so the copy
// happens a bounded number of times per process, after which the warm
// request path reads it without a lock. Racing inserters may each publish
// a copy; both carry equivalent entries, so whichever lands last wins
// harmlessly.
var builtinMemo atomic.Pointer[map[string]memoEntry]

type memoEntry struct {
	g      *andor.Graph
	digest [sha256.Size]byte
}

// memoBuiltinWorkload resolves a builtin workload name, memoizing the
// fixed (parameterless) ones. Seeded random workloads are rebuilt per
// request: their name space is unbounded, and memoizing them would let a
// client grow the map without limit.
func memoBuiltinWorkload(name string) (*andor.Graph, [sha256.Size]byte, error) {
	memoizable := name == "atr" || name == "synthetic"
	if memoizable {
		if m := builtinMemo.Load(); m != nil {
			if e, ok := (*m)[name]; ok {
				return e.g, e.digest, nil
			}
		}
	}
	g, err := builtinWorkload(name)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	digest := graphDigest(g)
	if memoizable {
		next := make(map[string]memoEntry, 2)
		if m := builtinMemo.Load(); m != nil {
			for k, v := range *m {
				next[k] = v
			}
		}
		next[name] = memoEntry{g: g, digest: digest}
		builtinMemo.Store(&next)
	}
	return g, digest, nil
}

// platformMemo caches the parsed named platforms. The named space is fixed
// ("transmeta", "xscale"), so the map cannot grow without bound; synthetic
// specs are parameterized by client strings and are parsed per request.
// Platforms are immutable after construction (cached Plans already share
// them), so sharing one instance across requests is sound.
// Copy-on-write like builtinMemo: lock-free reads on the warm path.
var platformMemo atomic.Pointer[map[string]*power.Platform]

// parsePlatformMemo resolves a platform spec, memoizing the named ones.
func parsePlatformMemo(spec string) (*power.Platform, error) {
	memoizable := spec == "transmeta" || spec == "xscale"
	if memoizable {
		if m := platformMemo.Load(); m != nil {
			if p, ok := (*m)[spec]; ok {
				return p, nil
			}
		}
	}
	p, err := cli.ParsePlatform(spec)
	if err != nil {
		return nil, err
	}
	if memoizable {
		next := make(map[string]*power.Platform, 2)
		if m := platformMemo.Load(); m != nil {
			for k, v := range *m {
				next[k] = v
			}
		}
		next[spec] = p
		platformMemo.Store(&next)
	}
	return p, nil
}

// builtinWorkload resolves the network-safe subset of workload names: the
// named applications only, never file paths.
func builtinWorkload(name string) (*andor.Graph, error) {
	switch {
	case name == "atr":
		return workload.ATR(workload.DefaultATRConfig()), nil
	case name == "synthetic":
		return workload.Synthetic(), nil
	case name == "random" || strings.HasPrefix(name, "random:"):
		seed := uint64(1)
		if rest, ok := strings.CutPrefix(name, "random:"); ok && rest != "" {
			v, err := strconv.ParseUint(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("serve: bad random seed %q", rest)
			}
			seed = v
		}
		return workload.Random(seed, andor.DefaultRandomOpts()), nil
	}
	return nil, fmt.Errorf("serve: unknown workload %q (want atr, synthetic or random[:seed])", name)
}

// resolveDeadline applies the deadline/load convention shared by run and
// compare requests: an explicit deadline wins; otherwise load (default
// 0.5) stretches the plan's canonical worst case. A deadline so long that
// the plan's energy bound over it overflows is refused, naming the field
// that set it: its runs' energies could overflow too, and JSON cannot
// carry an infinity.
func resolveDeadline(plan *core.Plan, deadline, load float64) (float64, *apiError) {
	ctWorst := plan.CTWorst
	if deadline != 0 {
		if deadline < 0 {
			return 0, errf(http.StatusBadRequest, "negative deadline %g", deadline)
		}
		if ctWorst > deadline {
			return 0, errf(http.StatusBadRequest,
				"infeasible deadline %gs < canonical worst case %gs", deadline, ctWorst)
		}
		if math.IsInf(plan.EnergyBound(deadline), 0) {
			return 0, errf(http.StatusBadRequest,
				"deadline %gs too long: the plan's energy bound over it is not finite", deadline)
		}
		return deadline, nil
	}
	if load == 0 {
		load = 0.5
	}
	if load < 0 || load > 1 {
		return 0, errf(http.StatusBadRequest, "load %g outside (0, 1]", load)
	}
	d := ctWorst / load
	if math.IsInf(plan.EnergyBound(d), 0) {
		return 0, errf(http.StatusBadRequest,
			"load %g too small: the plan's energy bound over the deadline it sets is not finite", load)
	}
	return d, nil
}
