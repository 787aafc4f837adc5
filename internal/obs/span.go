package obs

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync/atomic"
	"time"
)

// This file is the request-scoped half of the observability layer: where
// obs.Event traces one *simulation* at sub-microsecond granularity, a
// TraceRec traces one *request* through the serving pipeline as a small
// set of named phase spans (decode, admission, cache, compile, queue
// wait, execution, encode). The design constraints match the rest of the
// package: nil-gated (a nil *TraceRec no-ops every method, so the
// tracing-off path costs one pointer comparison), allocation-conscious
// (spans land in a fixed-capacity slice owned by a pooled record — the
// steady state allocates only the trace-ID hex string), and safe for the
// worker-pool execution model (span slots are reserved with an atomic
// counter, so concurrent batch chunks may record into one request's
// trace).

// TraceID is a W3C Trace Context trace-id: 16 random bytes, rendered as
// 32 lowercase hex digits.
type TraceID [16]byte

// SpanID is a W3C Trace Context parent-id: 8 bytes.
type SpanID [8]byte

// String renders the trace ID as 32 lowercase hex digits.
func (id TraceID) String() string {
	var b [32]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// String renders the span ID as 16 lowercase hex digits.
func (id SpanID) String() string {
	var b [16]byte
	hex.Encode(b[:], id[:])
	return string(b[:])
}

// NewTraceID returns a random, non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	hi, lo := rand.Uint64(), rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(hi >> (8 * i))
		id[8+i] = byte(lo >> (8 * i))
	}
	if id == (TraceID{}) {
		id[0] = 1 // the all-zero ID is invalid per the W3C spec
	}
	return id
}

// NewSpanID returns a random, non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	v := rand.Uint64()
	for i := 0; i < 8; i++ {
		id[i] = byte(v >> (8 * i))
	}
	if id == (SpanID{}) {
		id[0] = 1
	}
	return id
}

// Traceparent renders a W3C traceparent header value for the given IDs
// with the sampled flag set.
func Traceparent(tid TraceID, sid SpanID) string {
	var b [55]byte
	b[0], b[1], b[2] = '0', '0', '-'
	hex.Encode(b[3:35], tid[:])
	b[35] = '-'
	hex.Encode(b[36:52], sid[:])
	b[52], b[53], b[54] = '-', '0', '1'
	return string(b[:])
}

// ParseTraceparent parses a W3C traceparent header
// ("00-<32 hex>-<16 hex>-<2 hex>"). It accepts any version except the
// reserved "ff" and ignores trailing version-specific fields. The boolean
// reports whether the header carried a usable (non-zero) trace ID.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	var tid TraceID
	var sid SpanID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return tid, sid, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return tid, sid, false
	}
	if !hexDecode(tid[:], h[3:35]) || !hexDecode(sid[:], h[36:52]) {
		return TraceID{}, SpanID{}, false
	}
	if tid == (TraceID{}) {
		return TraceID{}, SpanID{}, false
	}
	return tid, sid, true
}

// hexDecode decodes src (lowercase or uppercase hex) into dst without
// allocating. len(src) must be 2*len(dst).
func hexDecode(dst []byte, src string) bool {
	for i := range dst {
		hi, ok1 := hexVal(src[2*i])
		lo, ok2 := hexVal(src[2*i+1])
		if !ok1 || !ok2 {
			return false
		}
		dst[i] = hi<<4 | lo
	}
	return true
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}

// maxTraceSpans bounds the spans one request may record. Requests that
// exceed it (a huge batch resolving hundreds of plans) keep the first
// maxTraceSpans spans and count the rest in DroppedSpans — recording
// stays O(1) memory per request regardless of request size.
const maxTraceSpans = 64

// span is the internal storage form of one phase span: offsets from the
// record's start, so a record carries one time.Time and the spans stay
// plain integers.
type span struct {
	phase  string
	start  time.Duration
	end    time.Duration
	detail string
	n      int64
}

// TraceRec records one request's phase spans. Obtain one from
// Flight.Start, record with Mark, Record, RecordOffset or RecordSpan, and
// hand it back with Flight.Finish. All methods are nil-safe: a nil
// *TraceRec (tracing disabled) turns every call into a no-op, so producers
// need no conditionals beyond the ones the compiler elides.
//
// Span slots are reserved with an atomic counter, so goroutines working
// on behalf of one request (the per-worker chunks of a batch) may record
// concurrently. Readers only see a record after Finish hands it to the
// flight recorder, whose mutex orders the handoff.
type TraceRec struct {
	id       TraceID
	idStr    string
	parent   SpanID
	hasPar   bool
	endpoint string
	status   int
	start    time.Time
	dur      time.Duration

	n       atomic.Int32
	dropped atomic.Int32
	spans   []span // fixed capacity maxTraceSpans

	// mark is the cursor for Mark: the end offset of the last
	// cursor-recorded phase (initially 0 = the request's arrival). It is
	// only touched from the request's serial control flow — concurrent
	// recorders (batch chunks, pool workers) must use the explicit
	// Record* forms instead.
	mark time.Duration

	refs int // retention count; guarded by the owning Flight's mutex
}

// ID returns the 32-hex-digit trace ID, or "" on a nil record.
func (r *TraceRec) ID() string {
	if r == nil {
		return ""
	}
	return r.idStr
}

// Endpoint returns the endpoint label the record was started with.
func (r *TraceRec) Endpoint() string {
	if r == nil {
		return ""
	}
	return r.endpoint
}

// StartTime returns the request's arrival time (zero on nil). It serves
// as a clock-read-free "now" for completion-path consumers whose
// precision needs are coarse (exemplar timestamps).
func (r *TraceRec) StartTime() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.start
}

// Now returns the current time when the record is live and the zero time
// when it is nil — the capture half of the span idiom:
//
//	t0 := rec.Now()
//	... the phase ...
//	rec.Record(phase, t0, "")
//
// With tracing off both calls collapse to nil checks.
func (r *TraceRec) Now() time.Time {
	if r == nil {
		return time.Time{}
	}
	return time.Now()
}

// Record appends a span for phase running from start to now, with a short
// annotation ("" for none; use constant strings — "hit", "miss" — to keep
// the hot path allocation-free).
func (r *TraceRec) Record(phase string, start time.Time, detail string) {
	if r == nil {
		return
	}
	// time.Since over the record's monotonic start is the cheap half of
	// the clock (one nanotime read, no wall-clock VDSO call); with several
	// spans per request this is the difference between tracing costing a
	// fraction of a microsecond and costing several.
	r.recordOffsets(phase, start.Sub(r.start), time.Since(r.start), detail, 0)
}

// RecordSpan appends a span with both endpoints supplied by the caller —
// zero clock reads, for producers that already hold the timestamps (the
// pool worker's queue-wait span reuses the pickup stamp it takes anyway).
func (r *TraceRec) RecordSpan(phase string, start, end time.Time) {
	if r == nil {
		return
	}
	r.recordOffsets(phase, start.Sub(r.start), end.Sub(r.start), "", 0)
}

// Mark records phase, with a short annotation as for Record, as running
// from the previous mark (initially the request's arrival) to now, and
// advances the mark — one clock read per contiguous serial phase instead
// of two. Not safe for concurrent recorders; see the mark field.
func (r *TraceRec) Mark(phase, detail string) {
	if r == nil {
		return
	}
	end := time.Since(r.start)
	start := r.mark
	r.mark = end
	r.recordOffsets(phase, start, end, detail, 0)
}

// SinceStart returns the current offset from the request's arrival (zero
// on nil) — the capture half of the offset-based span idiom, pairing
// with RecordOffset. It costs a single monotonic clock read, where Now
// costs a wall+monotonic pair.
func (r *TraceRec) SinceStart() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.start)
}

// RecordOffset appends a span running from the startOff offset (from
// SinceStart) to now, with a count (0 for none; e.g. the Monte-Carlo runs
// of a chunk).
func (r *TraceRec) RecordOffset(phase string, startOff time.Duration, n int64) {
	if r == nil {
		return
	}
	r.recordOffsets(phase, startOff, time.Since(r.start), "", n)
}

func (r *TraceRec) recordOffsets(phase string, start, end time.Duration, detail string, n int64) {
	i := int(r.n.Add(1)) - 1
	if i >= len(r.spans) {
		r.dropped.Add(1)
		return
	}
	s := &r.spans[i]
	s.phase = phase
	s.start = start
	s.end = end
	s.detail = detail
	s.n = n
}

// VisitSpans calls fn for every recorded span in recording order. It is
// meant for the completion path (phase-latency metrics): the caller must
// still own the record (i.e. call it before Flight.Finish).
func (r *TraceRec) VisitSpans(fn func(phase string, start, dur time.Duration, detail string, n int64)) {
	if r == nil {
		return
	}
	n := int(r.n.Load())
	if n > len(r.spans) {
		n = len(r.spans)
	}
	for i := 0; i < n; i++ {
		s := &r.spans[i]
		fn(s.phase, s.start, s.end-s.start, s.detail, s.n)
	}
}

// reset prepares a pooled record for reuse. Only the slots the previous
// request actually recorded are cleared (dropping their string references
// for the GC): every reader — VisitSpans, the flight recorder's snapshot
// — stops at n, so stale bytes beyond it are unreachable, and clearing
// all 64 slots would put a ~3.6KB write-barriered memclr on every
// request's critical path for nothing.
func (r *TraceRec) reset() {
	r.id = TraceID{}
	r.idStr = ""
	r.parent = SpanID{}
	r.hasPar = false
	r.endpoint = ""
	r.status = 0
	r.start = time.Time{}
	r.dur = 0
	r.mark = 0
	used := int(r.n.Load())
	if used > len(r.spans) {
		used = len(r.spans)
	}
	for i := 0; i < used; i++ {
		r.spans[i] = span{}
	}
	r.n.Store(0)
	r.dropped.Store(0)
}

// PhaseSpan is the exported (snapshot) form of one phase span, in
// microseconds from the request's start — the same unit the Chrome trace
// export uses.
type PhaseSpan struct {
	Phase   string  `json:"phase"`
	StartUS float64 `json:"start_us"`
	DurUS   float64 `json:"dur_us"`
	Detail  string  `json:"detail,omitempty"`
	N       int64   `json:"n,omitempty"`
}

// RequestTrace is an immutable snapshot of one completed request trace,
// safe to hold after the flight recorder recycles the underlying record.
type RequestTrace struct {
	TraceID      string      `json:"trace_id"`
	ParentSpan   string      `json:"parent_span,omitempty"`
	Endpoint     string      `json:"endpoint"`
	Status       int         `json:"status"`
	Start        time.Time   `json:"start"`
	DurationUS   float64     `json:"duration_us"`
	Spans        []PhaseSpan `json:"spans"`
	DroppedSpans int         `json:"dropped_spans,omitempty"`
}

// traceKey is the context key carrying a *TraceRec.
type traceKey struct{}

// ContextWithTrace returns a context carrying rec. A nil rec returns ctx
// unchanged.
func ContextWithTrace(ctx context.Context, rec *TraceRec) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, rec)
}

// TraceFromContext returns the context's trace record, or nil.
func TraceFromContext(ctx context.Context) *TraceRec {
	rec, _ := ctx.Value(traceKey{}).(*TraceRec)
	return rec
}
