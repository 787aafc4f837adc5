// Package obs is the simulator stack's observability layer: a structured
// event tracer, a metrics registry, trace exporters (Chrome trace_event
// JSON, NDJSON, text summaries) and profiling hooks.
//
// The package has no dependencies outside the standard library and no
// dependency on the rest of this repository, so every layer (engine,
// schemes, drivers, binaries) can emit into it without import cycles.
//
// Design rules:
//
//   - Tracing is pull-free and nil-gated: producers hold a Tracer interface
//     value and emit only when it is non-nil, so the default (no tracing)
//     costs one pointer comparison per hook point and allocates nothing.
//     Event is a plain value struct — passing it to Tracer.Event does not
//     box or escape.
//   - Metrics instruments are created up front (at run start) and updated
//     with atomic operations, so concurrent runs may share a registry and
//     the race detector stays quiet.
//   - Exporters consume the recorded []Event / Snapshot after the run;
//     nothing in the hot path formats strings or writes I/O.
package obs

import "sync"

// Kind identifies the type of a traced event.
type Kind uint8

const (
	// EvTaskDispatch: a processor dequeued a task. Time is the dispatch
	// instant, Level the chosen operating level, Prev the processor's level
	// before the pick, Value the power-management overhead (speed
	// computation + change) in seconds charged before execution starts.
	EvTaskDispatch Kind = iota
	// EvTaskFinish: a task completed. Time is the completion instant,
	// Level the processor's level at completion.
	EvTaskFinish
	// EvSpeedChange: a processor changed voltage/speed level. Prev → Level,
	// Value the transition overhead in seconds.
	EvSpeedChange
	// EvSlackShare: a dynamic scheme computed a task's slack-sharing
	// allocation at pickup. Level is the greedy slack-sharing level, Value
	// the slack in seconds beyond the task's minimum (worst-case work at
	// f_max). Proc is -1: policies do not know the executing processor.
	EvSlackShare
	// EvSlackSteal: a speculative floor overrode the greedy slack-sharing
	// level — slack was "stolen" from the current task to bank speed for
	// later work. Prev is the greedy level, Level the floored level.
	EvSlackSteal
	// EvORResolve: an OR synchronization node resolved. Node is the OR
	// node's graph ID, Name its label, Branch the successor index taken.
	EvORResolve
	// EvIdle: a processor resumed work after an idle interval. Time is the
	// end of the interval (so event streams stay in nondecreasing time
	// order), Value its duration in seconds.
	EvIdle
	// EvSectionBegin / EvSectionEnd bracket one program section (the span
	// between OR synchronization barriers). Node is the section ID.
	EvSectionBegin
	EvSectionEnd

	numKinds
)

// String returns the kind's stable wire name (used by the NDJSON exporter).
func (k Kind) String() string {
	switch k {
	case EvTaskDispatch:
		return "task_dispatch"
	case EvTaskFinish:
		return "task_finish"
	case EvSpeedChange:
		return "speed_change"
	case EvSlackShare:
		return "slack_share"
	case EvSlackSteal:
		return "slack_steal"
	case EvORResolve:
		return "or_resolve"
	case EvIdle:
		return "idle"
	case EvSectionBegin:
		return "section_begin"
	case EvSectionEnd:
		return "section_end"
	}
	return "unknown"
}

// Event is one structured trace record. Which fields are meaningful depends
// on Kind (see the Kind constants); unused int fields are -1 when the
// producer has no value for them and Name is empty when there is no label.
type Event struct {
	Kind Kind
	// Time is the simulation time in seconds. Producers emit events in
	// nondecreasing Time order.
	Time float64
	// Proc is the processor index, or -1.
	Proc int
	// Task is the engine's task index within the current section, or -1.
	Task int
	// Node is the application-graph node ID (or section ID for section
	// events), or -1.
	Node int
	// Name labels the task / OR node, if known.
	Name string
	// Level and Prev are platform level indices (new and previous).
	Level, Prev int
	// Branch is the OR successor index taken (EvORResolve), else 0.
	Branch int
	// Value is a kind-specific quantity in seconds (overhead, idle or
	// slack duration).
	Value float64
}

// Tracer receives structured events from the simulator stack. A nil Tracer
// disables tracing; producers must nil-check before emitting so the
// disabled path stays allocation-free.
//
// Implementations must tolerate concurrent Event calls when they are shared
// across concurrently running simulations.
type Tracer interface {
	Event(e Event)
}

// Collector is a Tracer that records events in memory for post-run export.
// It is safe for concurrent use.
type Collector struct {
	mu     sync.Mutex
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Event implements Tracer.
func (c *Collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

// Events returns a copy of the recorded events in arrival order.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of recorded events.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

// Reset discards all recorded events.
func (c *Collector) Reset() {
	c.mu.Lock()
	c.events = c.events[:0]
	c.mu.Unlock()
}
